"""Certified upper bounds on affinity-based indicators of multilevel
coherence and multipartite correlation, with verification suites for every
identity and inequality the indicators rest on."""

from .affinity import (
    InequalityCertificate,
    alpha_affinity,
    block_diagonal_affinity,
    certificates_to_csv,
    data_processing_sum,
    holder_negative_exponent_bound,
    power_mean_bound,
    selective_loss_bound,
    selective_power_sum,
)
from .channels import (
    KrausChannel,
    apply,
    channel_from_json,
    channel_to_json,
    dephasing_channel,
    identity_channel,
    kraus_channel,
    make_local_product,
    make_monomial_incoherent,
    random_channel,
    random_projective,
    selective_apply,
    unitary_channel,
)
from .embedding import (
    EmbeddingMap,
    build_embedding,
    depth_correspondence_pure,
    embed_pure,
    embed_state,
    theorem3_check,
    transport_report_json,
)
from .errors import (
    AlphaOutOfRange,
    BadExponent,
    BadIndex,
    BadLength,
    BadWeights,
    ChannelInvalid,
    DimensionMismatch,
    DTooLarge,
    EmptySet,
    FeasibilityCheckFailed,
    KOutOfRange,
    NonFinite,
    NonPositiveEntry,
    NotHermitian,
    NotPSD,
    NTooLarge,
    ResourceKitError,
    TraceDeviation,
    WitnessEncodingError,
)
from .feasible import (
    Factorization,
    FeasibleFamily,
    PartitionSet,
    WitnessComponent,
    build_family,
    coherent_rank_pure,
    encode,
    enumerate_partitions,
    factorize_pure,
    is_feasible_pure,
)
from .indicators import (
    IndicatorResult,
    MaxAffinityResult,
    check_witness,
    closed_form_k2,
    compute_indicator,
    indicator_suite,
    max_affinity,
    multilevel_coherence,
    multipartite_correlation,
    results_to_csv,
    results_to_json,
)
from .states import (
    DensityMatrix,
    PureState,
    Spectrum,
    basis_pure,
    frac_power,
    load_state,
    partial_trace,
    pure_state,
    random_mixed,
    random_pure,
    random_unitary,
    save_state,
    spectral,
    state_from_json,
    state_to_json,
    tensor,
    tensor_pure,
    trace_distance,
    validate,
)
from .verify import run_suite, summarize

__version__ = "0.1.0"
