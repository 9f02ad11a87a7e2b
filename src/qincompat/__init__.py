"""Operational incompatibility of quantum observables.

The headline number: for a set of observables, build the uniform ensemble
of all their eigenstates, let an interceptor measure each transmitted state
and resend a reconstruction, and maximize the average fidelity of what
arrives. The incompatibility of the set is one minus that optimal fidelity.
It is zero exactly for commuting sets, strictly positive otherwise (even
when the observables share some eigenvectors, where entropy-based bounds go
blind), and maximal for mutually unbiased bases, where it equals
(1 - 1/N)(1 - 1/d) exactly.

Entry points: :func:`incompatibility` for the measure with bound
certificates, :func:`entropic_report` for the comparison against the
entropy bound, and the ``qincompat`` command-line tool. The package exports
only these and the types they take and return; everything else is imported
from its submodule (``qincompat.fidelity``, ``qincompat.linalg``, ...).
"""

__version__ = "0.1.0"

from .entropic import (
    EntropicReport,
    Verdict,
    entropic_failure_demo,
    entropic_report,
    shared_eigenvector_pair,
)
from .errors import BoundViolationError, InputFormatError, QincompatError
from .observables import Eigenbasis, ObservableSet, eigenbasis_of, mub_bases
from .optimizer import IncompatibilityReport, OptimizerConfig, incompatibility

__all__ = [
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
