"""The top-level package exports exactly the documented entry points."""

import ast
import importlib
import re
from pathlib import Path

import qincompat

README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PUBLIC = [
    "__version__",
    "incompatibility",
    "IncompatibilityReport",
    "OptimizerConfig",
    "ObservableSet",
    "Eigenbasis",
    "eigenbasis_of",
    "mub_bases",
    "entropic_report",
    "EntropicReport",
    "Verdict",
    "entropic_failure_demo",
    "shared_eigenvector_pair",
    "QincompatError",
    "InputFormatError",
    "BoundViolationError",
]


def test_all_is_the_documented_api_and_the_readme_example_runs():
    assert qincompat.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(qincompat, name) is not None, name
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # the tracer replaces these attributes by name, so a rename must fail here, not only in a traced run;
    # its table is read from the source, not imported
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    spanned = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANNED" for t in node.targets)
    )
    wrapped = [(module, attribute) for module, attribute, _ in spanned] + [("observables", "commutes")]
    missing = [f"{m}.{a}" for m, a in wrapped if not hasattr(importlib.import_module(f"qincompat.{m}"), a)]
    assert spanned
    assert missing == []
