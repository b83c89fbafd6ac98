import types

import partsched

# Every public non-module name of the package.  A change to the exports shows
# here, in the diff, and belongs in CHANGES.md.
PUBLIC_NAMES = [
    "BeliefGrid", "CapacityError", "ConfigurationError", "CostParams", "DetectionResult",
    "DetectionResults", "DetectorModel", "FormatError", "InferenceStats",
    "InvalidParameterError", "InvalidRangeError",
    "LABEL_NEG", "LABEL_POS", "MatrixResponseProvider", "NEG_LABEL", "PDF_FLOOR", "POS_LABEL",
    "PartschedError", "Policy", "ProviderError", "ResponseProvider", "ScoreLikelihood",
    "ScoreSampleSet", "SyntheticSpec", "TinyInstance", "classification_counts", "compute_rnpe",
    "exhaustive_value_row",
    "fit_part_likelihood", "full_score", "lambda_sweep", "load_likelihoods", "load_policy",
    "load_responses", "load_responses_bin", "load_responses_csv", "load_results_csv",
    "make_synthetic", "part_action", "precision_recall", "random_tiny_instance",
    "read_sample_sets", "run_grid", "save_likelihoods", "save_policy", "save_responses_bin",
    "save_responses_csv", "save_results_csv", "save_sample_sets", "save_sweep_csv",
    "simulate_policy", "step_trace", "train_policy",
]


def test_public_names_are_pinned():
    names = sorted(name for name in dir(partsched) if not name.startswith("_")
                   and not isinstance(getattr(partsched, name), types.ModuleType))
    assert names == PUBLIC_NAMES
