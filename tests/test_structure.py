"""Structure guard: one eigen-solver path and no private cross-module imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ptwalk"
MODULES = sorted(SRC.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_ptwalk_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "ptwalk"


def _is_linalg_eig(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "eig"):
        return False
    owner = func.value
    return (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or (
        isinstance(owner, ast.Name) and owner.id == "linalg"
    )


def violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _is_ptwalk_import(node) and _is_private(alias.name):
                    found.append(f"line {node.lineno}: imports private {alias.name}")
                if node.module == "numpy.linalg" and alias.name == "eig":
                    found.append(f"line {node.lineno}: imports numpy.linalg.eig")
        elif isinstance(node, ast.Call) and _is_linalg_eig(node):
            found.append(f"line {node.lineno}: calls linalg.eig")
    return found


def test_the_guard_sees_both_kinds_of_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from .quench import _overlap_grid, __version__\n"
        "from numpy.linalg import eig\n"
        "np.linalg.eig(np.eye(2))\n"
    )
    assert violations(bad) == [
        "line 2: imports private _overlap_grid",
        "line 3: imports numpy.linalg.eig",
        "line 4: calls linalg.eig",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_one_solver_path_and_public_imports(path):
    assert violations(path) == []


def test_every_module_is_checked():
    assert len(MODULES) >= 11
