"""qdesk: exact desk-scale quantum simulation.

Three toolboxes over one labeled tensor-product core:

* pointer-basis pre-measurement, branch decomposition, and seeded
  Born-rule sampling (``measurement``);
* steered decisions over a Bell pair, exact and sampled correlators, CHSH
  search, and a no-signaling audit (``suggestion``);
* consistency conditions for evolution around a closed loop: the linear
  single-valuedness constraint next to the density-matrix fixed point
  (``ctc``).

All randomness enters through explicit seeds (SplitMix64); every operation
is a pure function of its inputs.

The public names below and the submodules holding them are resolved on first
use (PEP 562), so ``import qdesk`` loads no submodule and a command loads only
the modules it reads.
"""

import importlib

_EXPORTS = {
    "errors": ("ConfigError", "DimensionMismatchError", "FormatError", "InvariantError",
               "LayoutError", "ProtocolError", "QdeskError", "SchemeError", "SolverError"),
    "tensor": ("ATOL", "DensityMatrix", "StateVector", "Subsystem", "SubsystemLayout",
               "UnitaryOperator", "apply_unitary", "layout_of", "reduced_state", "subsystem"),
    "serialization": ("parse_density", "parse_state", "parse_unitary", "serialize_density",
                      "serialize_state", "serialize_unitary"),
    "measurement": ("Branch", "PointerScheme", "branch_decomposition",
                    "build_premeasurement_unitary", "pointer_scheme", "premeasure",
                    "sample_labels"),
    "suggestion": ("ChshSearchResult", "CorrelationTally", "NoSignalingAudit", "SessionRecords",
                   "TSIRELSON_BOUND", "chsh_grid_search", "chsh_value", "correlator",
                   "no_signaling_audit", "sample_rounds", "session_records", "signaling_weights",
                   "tally_from_records"),
    "ctc": ("AdmissibilityScan", "ConsistencySubspace", "CtcScenario", "DeutschSolution",
            "admissible_fraction", "deutsch_fixed_point", "grandfather_scenario",
            "linear_consistency_basis", "trace_distance"),
    "rng": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
