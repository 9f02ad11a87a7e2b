"""The top-level package exports exactly the documented entry points."""

import re
from pathlib import Path

import qincompat

README = Path(__file__).resolve().parents[1] / "README.md"

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
