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
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    FormatError,
    InvariantError,
    LayoutError,
    ProtocolError,
    QdeskError,
    SchemeError,
    SolverError,
)
from .tensor import (
    ATOL,
    DensityMatrix,
    StateVector,
    Subsystem,
    SubsystemLayout,
    UnitaryOperator,
    apply_unitary,
    embed_operator,
    layout_of,
    overlap,
    partial_trace,
    reduced_state,
    subsystem,
    tensor_product,
    to_density,
)
from .serialization import (
    parse_density,
    parse_state,
    parse_unitary,
    serialize_density,
    serialize_state,
    serialize_unitary,
)
from .measurement import (
    Branch,
    PointerScheme,
    branch_decomposition,
    build_premeasurement_unitary,
    pointer_scheme,
    premeasure,
    sample_branch,
    sample_labels,
)
from .suggestion import (
    ChshSearchResult,
    CorrelationTally,
    DecisionScheme,
    Direction,
    NoSignalingAudit,
    SessionRecords,
    TSIRELSON_BOUND,
    build_stage_unitaries,
    build_suggestion_unitary,
    chsh_grid_search,
    chsh_search,
    chsh_value,
    correlator,
    joint_distribution,
    no_signaling_audit,
    run_session,
    sample_rounds,
    session_records,
    signaling_weights,
    staged_decision,
    tally_from_records,
)
from .ctc import (
    AdmissibilityScan,
    ConsistencySubspace,
    CtcScenario,
    DeutschSolution,
    admissible_fraction,
    ctc_output_state,
    deutsch_fixed_point,
    grandfather_scenario,
    is_consistent_initial_state,
    linear_consistency_basis,
    trace_distance,
)
from .rng import SplitMix64, haar_state, haar_unitary, mix64, stream_seed

__version__ = "0.1.0"
