"""Online tensor decomposition with drift-aware one-class anomaly detection."""

from .advisor import (
    Action,
    AdvisorConfig,
    LocationSnapshot,
    PipelineState,
    UpdatePolicy,
    calibrate_gamma_change,
    environmental_probability,
    knn_score,
    process_event,
)
from .decomp import (
    LrSchedule,
    NesgdState,
    OptimizerKind,
    StreamDecomposition,
    StreamOptions,
    decompose_stream_init,
    init_factors,
    update_online,
)
from .errors import (
    BadModeError,
    DivergedError,
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
from .files import load_tensor_csv, save_factor_csv, save_tensor_csv
from .incremental import add_sample
from .ocsvm import (
    KernelSpec,
    OcsvmModel,
    decision_value,
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
    mode_design,
    rmse,
)

__version__ = "0.1.0"
