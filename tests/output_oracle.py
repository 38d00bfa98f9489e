"""Row-at-a-time table writer: the oracle for the CLI's column-wise encoder.

This is the writer the CLI used before it encoded tables one column at a
time.  CSV formats every row with one %-format taken from the value types of
the first row ('%.17g' for floats, '%s' for the rest); JSON is one
``json.dumps(indent=2, sort_keys=True)`` over the whole payload.
"""

import json


def table_text(fmt: str, columns: list[str], rows: list[tuple], meta: dict) -> str:
    if fmt == "csv":
        first = rows[0] if rows else ()
        row_fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first)
        lines = [",".join(columns)]
        lines += [row_fmt % row for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"meta": meta, "columns": columns, "rows": [list(row) for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
