"""Exact-arithmetic toolkit for Reichenbachian common cause systems.

Two classical event models (atomless interval events on the unit
interval and finite weighted spaces), the structural predicates that
connect them (compatibility, logical independence, correlation), a
verification and construction engine for common cause systems of size 2
and 3, an exhaustive finite-space search, and a numeric Bell-inequality
witness showing why no single system can serve all observable pairs at
once.

``import rccs`` loads none of the submodules.  Each one, and each public
name, is loaded on first use (PEP 562), so a computation loads only the
modules it runs.  Each subcommand of the command line loads, besides
``cli``, ``serialize``, ``events`` and ``errors``:

* ``construct`` and ``verify``: ``lattice``, and ``engine`` once their
  input is read and checked;
* ``search``: ``finite`` and ``lattice``;
* ``bell``: ``bell``;
* ``demo``: ``bell``, ``lattice`` and ``engine``.

An input or usage error loads nothing more.  numpy is loaded only by the
array functions of the Bell witness; no subcommand loads it.
"""

import importlib

__version__ = "0.1.0"

# the search's point cutoff, stated here so that the command line reads it without loading rccs.finite
DEFAULT_MAX_POINTS = 14  # larger spaces only on request: the cover's work can still grow as 2^m

# every submodule and the public names it defines; each name is listed once
_NAMES = {
    "bell": (
        "BellWitness",
        "basis_product_state",
        "bell_expectations",
        "bell_value",
        "build_witness",
        "classical_bound_check",
        "commutator_norm",
        "is_partial_isometry",
        "is_projection",
        "no_common_ccs_demo",
    ),
    "cli": (),
    "engine": (
        "CommonCauseSystem",
        "ConstructionSteps",
        "VerificationReport",
        "construct_size3",
        "construction_steps",
        "correlation_decomposition",
        "verify_common_cause",
        "verify_rccs",
    ),
    "errors": ("InputError", "InternalInvariantError", "PreconditionError", "RccsError"),
    "events": ("EMPTY", "FULL", "IntervalEvent", "as_fraction"),
    "finite": (
        "FiniteEvent",
        "FiniteSpace",
        "enumerate_partitions",
        "finite_measure",
        "search_rccs",
    ),
    "lattice": (
        "LatticeEvent",
        "Partition",
        "check_product_inequality",
        "compatible",
        "correlation",
        "logical_independence_equiv",
        "logically_independent",
    ),
    "serialize": (),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_HOME, "DEFAULT_MAX_POINTS"])


def __getattr__(name: str):
    # PEP 562: reached only for names not bound yet; an imported submodule binds itself here
    if name in _NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_NAMES) | set(_HOME))
