"""Structure guard: one eigen-solver path, no private cross-module imports, no
scipy, and a pinned public surface."""

import ast
import importlib
import os
import subprocess
import sys
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


def scipy_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: imports {n}" for n in names if n.split(".")[0] == "scipy"]
    return found


def test_the_scipy_guard_sees_every_import_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy, scipy.linalg\n"
        "def f():\n"
        "    from scipy import optimize\n"
        "    from .scipy_like import x\n"
    )
    assert scipy_imports(bad) == ["line 1: imports scipy.linalg", "line 3: imports scipy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_import_scipy(path):
    assert scipy_imports(path) == []


def test_importing_the_cli_does_not_load_scipy(tmp_path):
    # numpy is the only runtime dependency: nothing the CLI imports may pull scipy in.
    # floattext is imported by the first table laid out as bytes, and only then:
    # neither the import nor a phase-diagram table (the Python join) loads it.
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    job = ["phase-diagram", "--out", str(tmp_path / "pd.csv")]
    code = ("import sys, ptwalk.cli; print('scipy' in sys.modules, 'ptwalk.floattext' in "
            f"sys.modules); ptwalk.cli.main({job!r}); print('ptwalk.floattext' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split() == ["False", "False", "False"]
    assert (tmp_path / "pd.csv").read_text().count("\n") == 1 + 32 * 32


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    # benchmarks/tracing.py reads every name of every layer's __all__ with
    # getattr under --trace 1, so a stale entry would crash a traced run.
    module = importlib.import_module("ptwalk" if path.stem == "__init__" else f"ptwalk.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# The package's public names.  A change to this list is a change to the
# public surface and is declared in CHANGES.md.
PUBLIC = [
    "BandStructure", "BlochField", "ChernResult", "CoinParams", "ConfigError",
    "DegenerateSpectrum", "DegenerateTriangle", "EigenSystem", "ExceptionalPoint",
    "FixedPoint", "FixedPointKind", "PRESETS", "PTPhase", "PositionState",
    "QuenchSpec", "SingularNormalization", "Submanifold", "WalkError", "__version__",
    "band_structure", "bloch_field", "build_spec", "build_submanifolds",
    "chern_numbers", "d_coefficients", "evolve", "find_fixed_points",
    "momentum_operator_closed", "onsite_probabilities", "pauli_assemble",
    "phase_diagram", "pt_classify", "reconstruct_bloch_field",
    "reconstruct_matrix_elements", "sample_shot_noise", "step_position",
    "winding_number",
]


def test_the_public_surface_is_pinned():
    import ptwalk

    assert sorted(ptwalk.__all__) == PUBLIC
