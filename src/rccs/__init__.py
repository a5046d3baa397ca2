"""Exact-arithmetic toolkit for Reichenbachian common cause systems.

Two classical event models (atomless interval events on the unit
interval and finite weighted spaces), the structural predicates that
connect them (compatibility, logical independence, correlation), a
verification and construction engine for common cause systems of size 2
and 3, an exhaustive finite-space search, and a numeric Bell-inequality
witness showing why no single system can serve all observable pairs at
once.

The Bell witness is the only part that needs numpy.  ``rccs.bell`` and
its names are loaded on first use (PEP 562), so importing the package
or running a classical computation never loads numpy.
"""

import importlib

from .engine import (
    CommonCauseSystem,
    ConstructionSteps,
    VerificationReport,
    construct_size3,
    construction_steps,
    correlation_decomposition,
    verify_common_cause,
    verify_rccs,
)
from .errors import InputError, InternalInvariantError, PreconditionError, RccsError
from .events import EMPTY, FULL, IntervalEvent, as_fraction
from .finite import (
    DEFAULT_MAX_POINTS,
    FiniteEvent,
    FiniteSpace,
    enumerate_partitions,
    finite_measure,
    search_rccs,
)
from .lattice import (
    LatticeEvent,
    Partition,
    check_product_inequality,
    compatible,
    correlation,
    logical_independence_equiv,
    logically_independent,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: reached only for names not bound above, that is "bell" and its names in __all__
    if name == "bell" or name in __all__:
        bell = importlib.import_module(".bell", __name__)
        return bell if name == "bell" else getattr(bell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | {"bell"})


__all__ = [
    "BellWitness",
    "CommonCauseSystem",
    "ConstructionSteps",
    "DEFAULT_MAX_POINTS",
    "EMPTY",
    "FULL",
    "FiniteEvent",
    "FiniteSpace",
    "InputError",
    "InternalInvariantError",
    "IntervalEvent",
    "LatticeEvent",
    "Partition",
    "PreconditionError",
    "RccsError",
    "VerificationReport",
    "as_fraction",
    "basis_product_state",
    "bell_expectations",
    "bell_value",
    "build_witness",
    "check_product_inequality",
    "classical_bound_check",
    "commutator_norm",
    "compatible",
    "construct_size3",
    "construction_steps",
    "correlation",
    "correlation_decomposition",
    "enumerate_partitions",
    "finite_measure",
    "is_partial_isometry",
    "is_projection",
    "logical_independence_equiv",
    "logically_independent",
    "no_common_ccs_demo",
    "search_rccs",
    "verify_common_cause",
    "verify_rccs",
]
