"""Sequential part scheduling for additive-score part-based classifiers.

Fits per-part score likelihoods, computes an optimal part-ordering-and-
stopping policy by backward dynamic programming over (used-parts bitmask,
belief bin), and runs sequential inference on that same snapped belief chain,
evaluating parts on demand.
"""

from .errors import (
    CapacityError,
    ConfigurationError,
    FormatError,
    InvalidActionError,
    InvalidParameterError,
    InvalidRangeError,
    PartschedError,
    ProviderError,
)
from .likelihoods import (
    PDF_FLOOR,
    ScoreLikelihood,
    ScoreSampleSet,
    fit_part_likelihood,
    load_likelihoods,
    read_sample_sets,
    save_likelihoods,
    save_sample_sets,
)
from .policy import (
    LABEL_NEG,
    LABEL_POS,
    BeliefGrid,
    CostParams,
    Policy,
    load_policy,
    part_action,
    save_policy,
    train_policy,
)
from .inference import (
    NEG_LABEL,
    POS_LABEL,
    DetectionResult,
    DetectionResults,
    DetectorModel,
    InferenceStats,
    MatrixResponseProvider,
    ResponseProvider,
    full_score,
    load_responses,
    load_responses_bin,
    load_responses_csv,
    load_results_csv,
    run_grid,
    save_responses_bin,
    save_responses_csv,
    save_results_csv,
)
from .oracle import (
    TinyInstance,
    exhaustive_value_row,
    random_tiny_instance,
    simulate_policy,
    step_trace,
)
from .synth import (
    SyntheticSpec,
    classification_counts,
    compute_rnpe,
    lambda_sweep,
    make_synthetic,
    precision_recall,
    save_sweep_csv,
)
