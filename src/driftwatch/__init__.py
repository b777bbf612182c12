"""Online tensor decomposition with drift-aware one-class anomaly detection."""

from .advisor import (
    Action,
    AdvisorConfig,
    LocationSnapshot,
    PipelineState,
    UpdatePolicy,
    Verdict,
    advised_decision,
    baseline_threshold_policy,
    calibrate_gamma_change,
    environmental_probability,
    knn_score,
    knn_unit_vectors,
    mean_abs_change,
    process_event,
)
from .decomp import (
    NesgdState,
    OptimizerKind,
    StreamDecomposition,
    StreamOptions,
    cp_gradient,
    decompose_stream_init,
    default_lr,
    init_factors,
    sgd_sweep,
    update_online,
)
from .errors import (
    BadModeError,
    DivergedError,
    DriftwatchError,
    EmptyStreamError,
    ImmobileError,
    IoError,
    KktViolationError,
    NumericalError,
    NuTooSmallError,
    ShapeMismatchError,
    TooFewLocationsError,
    ValidationError,
)
from .incremental import (
    BorderedSystem,
    MigrationEvent,
    add_sample,
    build_system,
)
from .ocsvm import (
    KernelSpec,
    OcsvmModel,
    classify,
    decision_value,
    kernel_eval,
    kernel_matrix,
    kkt_partition,
    median_pairwise_sigma,
    train_batch,
)
from .synth import AnomalySpec, DriftSpec, SynthSpec, generate
from .tensor import (
    DenseTensor3,
    KruskalFactors,
    khatri_rao,
    kruskal_reconstruct,
    load_tensor_csv,
    mode_design,
    rmse,
    save_factor_csv,
    save_tensor_csv,
    unfold,
)

__version__ = "0.1.0"
