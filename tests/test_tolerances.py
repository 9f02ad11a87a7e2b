"""Every tolerance of the package lives in qincompat.tolerances."""

import ast
from pathlib import Path

import qincompat

PACKAGE = Path(qincompat.__file__).resolve().parent
# verify.py holds the pass thresholds of its self-check suites, not tolerances of the computation
EXEMPT = {"tolerances.py", "verify.py"}


def test_no_small_float_literal_outside_the_table():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-2:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
