import hashlib
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from partsched import (
    BeliefGrid,
    CostParams,
    DetectionResults,
    DetectorModel,
    InferenceStats,
    InvalidParameterError,
    MatrixResponseProvider,
    SyntheticSpec,
    classification_counts,
    compute_rnpe,
    full_score,
    lambda_sweep,
    make_synthetic,
    precision_recall,
    run_grid,
    save_sweep_csv,
    simulate_policy,
    train_policy,
)
from partsched import inference, likelihoods, synth
from partsched.inference import DetectionResult, NEG_LABEL, POS_LABEL
from partsched.policy import LABEL_NEG, LABEL_POS, part_action

from conftest import SCAN_REGIMES


# sha256 of the pos then neg bin bytes of every part, recorded before the KDE
# evaluated in blocks: the n=9 detectors of the scan regimes, seed 1404.  These
# are the exact KDE sum's bins; the second digests are the lattice evaluator's,
# which fits these detectors by default and moves their bins by about 1e-13.
RECORDED_DETECTOR_BINS_SHA256 = {
    "scan": "94bf960b8743e00876bdc4fef245bd543d7d996e19a7638ea0df3869d42df5c8",
    "scan-deep": "1c4eac41899caf9d5eb7d2eb93a47e1a0c35a010eb01689ea9f51f7cc031550e",
}
RECORDED_LATTICE_DETECTOR_BINS_SHA256 = {
    "scan": "301d49e5f01d02acf8f4c93460948bca066ec154adfab31246f5b781a0373136",
    "scan-deep": "79866f283ba8e228cf2025ae5e0dfd063031e9d3b2c6796698e172b7ad06a5e0",
}

# sha256 of make_synthetic's score matrix (little-endian float64) then its truth labels (one
# byte each), recorded when the class means were added through a full-size np.where matrix:
# a scan-sized spec, a spec whose means are all zero, and a profile with a zero multiplier.
SYNTHETIC_DIGEST_SPECS = {
    "scan": SyntheticSpec(n_parts=9, separation=4.0, prior_positive=0.01, n_locations=20_000,
                          seed=1),
    "zero-separation": SyntheticSpec(n_parts=3, separation=0.0, prior_positive=0.5,
                                     n_locations=5_000, seed=4),
    "profile": SyntheticSpec(n_parts=4, separation=2.5, prior_positive=0.3, n_locations=5_000,
                             seed=7, informativeness_profile=(1.0, 0.0, 0.5, 2.0)),
}
RECORDED_SYNTHETIC_SHA256 = {
    "scan": "e8258393dc775451671b4b1035b8b4d31a67a396d1501e617a4cd9de77b6dc68",
    "zero-separation": "87bb890b9a87ac3d99c186220e8e9b1c8a0d4f2474ddf066896d899c2284ec58",
    "profile": "d1be6e6a86646d8ec79d09946eb6adfb263730083ada6aa20977bdcce66b769f",
}

# the result rows a caller keeps when it needs only what the metrics read
Outcome = namedtuple("Outcome", "location_id label score")


def traced_peak(call):
    """Peak bytes that tracemalloc sees while `call()` runs, and its result."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def gauss_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def result_stub(location_id, label, score):
    return DetectionResult(location_id, label, score, (), 0, 0.5, 0.0)


class TestSyntheticSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(n_parts=0, separation=1.0, prior_positive=0.5, n_locations=10, seed=0)
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(n_parts=2, separation=-1.0, prior_positive=0.5, n_locations=10, seed=0)
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(n_parts=2, separation=1.0, prior_positive=1.5, n_locations=10, seed=0)
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(n_parts=2, separation=1.0, prior_positive=0.5, n_locations=10,
                          seed=0, informativeness_profile=(1.0,))

    def test_default_profile_descends_geometrically(self):
        spec = SyntheticSpec(n_parts=4, separation=1.0, prior_positive=0.5,
                             n_locations=10, seed=0)
        mult = spec.multipliers
        assert mult[0] == 1.0
        ratios = mult[1:] / mult[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        assert np.all(np.diff(mult) < 0)


class TestMakeSynthetic:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n_parts=3, separation=2.0, prior_positive=0.3,
                             n_locations=50, seed=9, train_samples=100)
        m1, p1, t1 = make_synthetic(spec)
        m2, p2, t2 = make_synthetic(spec)
        np.testing.assert_array_equal(p1.scores, p2.scores)
        np.testing.assert_array_equal(t1, t2)
        for a, b in zip(m1.likelihoods, m2.likelihoods):
            np.testing.assert_array_equal(a.pos, b.pos)

    @staticmethod
    def detector_bins_sha256(case):
        separation, prior, _ = SCAN_REGIMES[case]
        spec = SyntheticSpec(n_parts=9, separation=separation, prior_positive=prior,
                             n_locations=1, seed=1404)
        digest = hashlib.sha256()
        for lik in make_synthetic(spec)[0].likelihoods:
            digest.update(lik.pos.astype("<f8").tobytes())
            digest.update(lik.neg.astype("<f8").tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("case", sorted(RECORDED_DETECTOR_BINS_SHA256))
    def test_detector_bins_pinned(self, case, monkeypatch):
        monkeypatch.setattr(likelihoods, "_LATTICE_POINTS", 0)  # the exact sum for every fit
        assert self.detector_bins_sha256(case) == RECORDED_DETECTOR_BINS_SHA256[case]

    @pytest.mark.parametrize("case", sorted(RECORDED_LATTICE_DETECTOR_BINS_SHA256))
    def test_lattice_detector_bins_pinned(self, case):
        assert self.detector_bins_sha256(case) == RECORDED_LATTICE_DETECTOR_BINS_SHA256[case]

    @pytest.mark.parametrize("case", sorted(RECORDED_SYNTHETIC_SHA256))
    def test_scores_and_truth_pinned(self, case):
        _, provider, truth = make_synthetic(SYNTHETIC_DIGEST_SPECS[case])
        digest = hashlib.sha256(provider.scores.astype("<f8").tobytes())
        digest.update(truth.astype(np.uint8).tobytes())
        assert digest.hexdigest() == RECORDED_SYNTHETIC_SHA256[case]

    def test_memory_stays_near_its_score_matrix(self):
        # the matrix, the truth labels and the fits' fixed-size temporaries: 1.125x here
        spec = SyntheticSpec(n_parts=9, separation=4.0, prior_positive=0.01,
                             n_locations=200_000, seed=5)
        peak, (_, provider, _) = traced_peak(lambda: make_synthetic(spec))
        assert peak <= 1.25 * provider.scores.nbytes

    def test_zero_separation_classes_indistinguishable(self):
        spec = SyntheticSpec(n_parts=2, separation=0.0, prior_positive=0.5,
                             n_locations=10, seed=4, train_samples=2000)
        model, _, _ = make_synthetic(spec)
        for lik in model.likelihoods:
            l1 = np.abs(lik.pos - lik.neg).sum() * lik.bin_width
            assert l1 < 0.25  # KDE sampling noise only

    def test_single_part_sign_classifier_matches_gaussian_tail(self):
        # means at +/- separation/2 = +/- 2, so sign-threshold error is Phi(-2)
        spec = SyntheticSpec(n_parts=6, separation=4.0, prior_positive=0.01,
                             n_locations=10000, seed=21,
                             informativeness_profile=(1.0,) * 6)
        _, provider, truth = make_synthetic(spec)
        predicted = provider.scores[:, 0] > 0.0
        error = float(np.mean(predicted != truth))
        assert error == pytest.approx(gauss_cdf(-2.0), abs=0.006)

    # the fitted support spans about 4 x separation: 1e5 fits under the
    # density floor's 1e6 limit, 1e6 does not and is the spec's fault
    @pytest.mark.parametrize("separation, fits", [(1e5, True), (1e6, False), (1e308, False)])
    def test_separation_too_wide_to_fit_is_invalid(self, separation, fits):
        spec = SyntheticSpec(n_parts=2, separation=separation, prior_positive=0.5,
                             n_locations=10, seed=1, train_samples=300)
        if fits:
            assert len(make_synthetic(spec)[0].likelihoods) == 2
        else:
            with pytest.raises(InvalidParameterError, match="separation"):
                make_synthetic(spec)

    def test_first_part_is_most_informative_choice(self):
        spec = SyntheticSpec(n_parts=5, separation=3.0, prior_positive=0.5,
                             n_locations=10, seed=2, train_samples=1500)
        model, _, _ = make_synthetic(spec)
        policy = train_policy(model.likelihoods, CostParams(16.0, 16.0), BeliefGrid(101))
        assert policy.actions[0, policy.grid.nearest_index(0.5)] == part_action(0)


class TestComputeRnpe:
    def test_full_evaluation_gives_one(self):
        stats = InferenceStats(n_locations=100, non_root_evals=800, n_positive=0, mean_tau=0.0)
        assert compute_rnpe(stats, n_parts=9, n_locations=100) == 1.0

    def test_plain_arithmetic(self):
        stats = InferenceStats(n_locations=100, non_root_evals=100, n_positive=0, mean_tau=0.0)
        assert compute_rnpe(stats, n_parts=9, n_locations=100) == 8.0

    def test_zero_evaluations_reports_infinity(self):
        stats = InferenceStats(n_locations=10, non_root_evals=0, n_positive=0, mean_tau=0.0)
        assert compute_rnpe(stats, n_parts=9, n_locations=10) == math.inf


class TestClassificationCounts:
    def test_conservation_of_counts(self, rng):
        truth = rng.random(500) < 0.4
        results = [result_stub(i, POS_LABEL if rng.random() < 0.5 else NEG_LABEL, 0.0)
                   for i in range(500)]
        counts = classification_counts(results, truth)
        assert counts.tp + counts.fp + counts.tn + counts.fn == 500
        n_pos = int(truth.sum())
        n_neg = 500 - n_pos
        assert counts.fn_rate * n_pos + counts.fp_rate * n_neg + counts.tp + counts.tn \
            == pytest.approx(500.0)


class TestPrecisionRecall:
    def test_perfect_separation_gives_unit_ap(self):
        truth = np.array([True, True, False, False])
        results = [result_stub(0, POS_LABEL, 5.0), result_stub(1, POS_LABEL, 4.0),
                   result_stub(2, POS_LABEL, 1.0), result_stub(3, NEG_LABEL, -math.inf)]
        curve = precision_recall(results, truth)
        assert curve.average_precision == 1.0

    def test_random_scores_ap_near_prior(self, rng):
        truth = rng.random(10000) < 0.5
        results = [result_stub(i, POS_LABEL, float(s))
                   for i, s in enumerate(rng.standard_normal(10000))]
        ap = precision_recall(results, truth).average_precision
        assert ap == pytest.approx(0.5, abs=0.02)

    def test_background_group_is_one_threshold(self):
        # both -inf locations move across the threshold together, so the
        # positive hiding among them cannot be ranked above the negative
        truth = np.array([True, False, True])
        results = [result_stub(0, POS_LABEL, 3.0),
                   result_stub(1, NEG_LABEL, -math.inf),
                   result_stub(2, NEG_LABEL, -math.inf)]
        curve = precision_recall(results, truth)
        assert curve.average_precision == pytest.approx(0.5 + 0.5 * (2.0 / 3.0))

    def test_no_positives_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="precision/recall needs at least one positive location"):
            precision_recall([result_stub(0, POS_LABEL, 1.0)], np.array([False]))

    def test_empty_results_give_an_empty_curve(self):
        curve = precision_recall([], np.array([True, False]))
        assert (curve.precision.size, curve.recall.size, curve.thresholds.size) == (0, 0, 0)
        assert curve.average_precision == 0.0


def test_metrics_read_result_columns(small_spec, monkeypatch):
    # on a DetectionResults the metrics read its arrays and build no
    # DetectionResult, and agree with the same results read object by object
    model, provider, truth = make_synthetic(small_spec)
    policy = train_policy(model.likelihoods, CostParams(8.0, 4.0), BeliefGrid(21))
    results, _ = run_grid(model, policy, provider)
    as_objects = list(results)
    built = []

    def counting_result(*args, **kwargs):
        built.append(args)
        return DetectionResult(*args, **kwargs)

    monkeypatch.setattr(inference, "DetectionResult", counting_result)
    counts = classification_counts(results, truth)
    curve = precision_recall(results, truth)
    assert built == []
    assert counts == classification_counts(as_objects, truth)
    expected = precision_recall(as_objects, truth)
    for name in ("precision", "recall", "thresholds"):
        np.testing.assert_array_equal(getattr(curve, name), getattr(expected, name))
    assert curve.average_precision == expected.average_precision
    assert 0 < counts.tp < len(results) and np.isinf(curve.thresholds[-1])


def scan_outcomes(n, seed):
    """n scan-like result rows: 2% foreground with Gaussian scores, the rest background at
    -inf; and truth labels, 1% positive."""
    rng = np.random.default_rng(seed)
    positive = rng.random(n) < 0.02
    scores = np.where(positive, rng.standard_normal(n), -math.inf)
    rows = [Outcome(i, POS_LABEL if p else NEG_LABEL, s)
            for i, (p, s) in enumerate(zip(positive.tolist(), scores.tolist()))]
    return rows, rng.random(n) < 0.01


class TestMetricMemory:
    # on a list the metrics read each field into one array, with no copied list and no list
    # of pointers per field: about 26 and 9 bytes per row
    N = 200_000

    def test_precision_recall_peak_per_row(self):
        rows, truth = scan_outcomes(self.N, 8)
        peak, curve = traced_peak(lambda: precision_recall(rows, truth))
        assert peak <= 30 * self.N
        assert 0.0 < curve.average_precision < 1.0

    def test_classification_counts_peak_per_row(self):
        rows, truth = scan_outcomes(self.N, 9)
        peak, counts = traced_peak(lambda: classification_counts(rows, truth))
        assert peak <= 16 * self.N
        assert counts.tp + counts.fp + counts.tn + counts.fn == self.N


def results_with_ties(rng, n=400):
    """DetectionResults over a shuffled location order whose scores repeat and include ±inf,
    NaN and both zeros, with truth labels for them."""
    values = np.array([1.5, 1.5, 0.0, -0.0, 2.0, math.inf, -math.inf, math.nan])
    score = rng.choice(values, size=n)
    positive = rng.random(n) < 0.6
    score[~positive & (rng.random(n) < 0.8)] = -math.inf
    results = DetectionResults(location_id=rng.permutation(n), positive=positive, score=score,
                               tau=np.zeros(n), n_evaluated=np.zeros(n),
                               order=np.zeros((n, 1)), final_belief=np.full(n, 0.5),
                               partial_score=np.zeros(n))
    return results, rng.random(n) < 0.3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_metrics_agree_between_a_list_and_columns(seed):
    results, truth = results_with_ties(np.random.default_rng(seed))
    expected_curve = precision_recall(results, truth)
    expected_counts = classification_counts(results, truth)
    rows = list(results)
    outcomes = [Outcome(r.location_id, r.label, r.score) for r in rows]
    for read in (lambda: rows, lambda: outcomes, lambda: iter(rows)):  # iter: read only once
        curve = precision_recall(read(), truth)
        for name in ("precision", "recall", "thresholds"):
            np.testing.assert_array_equal(getattr(curve, name), getattr(expected_curve, name))
        assert curve.average_precision == expected_curve.average_precision
        assert classification_counts(read(), truth) == expected_counts
    thresholds = expected_curve.thresholds
    assert np.isnan(thresholds).any() and np.isposinf(thresholds).any()
    assert np.isneginf(thresholds).any()


@pytest.fixture(scope="module")
def small_spec():
    return SyntheticSpec(n_parts=4, separation=3.0, prior_positive=0.5,
                         n_locations=600, seed=33, train_samples=800)


class TestLambdaSweep:
    def test_full_scores_equal_full_score_bit_for_bit(self, small_spec, rng, monkeypatch):
        # sweep's ap_full baseline is a run_grid pass of the policy that declares foreground
        # at once: one provider call per part, each location's parts summed left to right
        # in part-index order, then the bias
        policies = []

        def recording_run_grid(model, policy, provider):
            policies.append(policy)
            return run_grid(model, policy, provider)

        monkeypatch.setattr(synth, "run_grid", recording_run_grid)
        lambda_sweep(small_spec, [(8.0, 4.0)], BeliefGrid(21))
        full = policies[0]  # the baseline pass comes before every point's
        assert (full.actions == LABEL_POS).all()
        assert full.values.tobytes() == (8.0 * (1.0 - full.grid.centers)).tobytes()
        model = make_synthetic(small_spec)[0]
        model = DetectorModel(bias=-0.7, likelihoods=model.likelihoods, costs=model.costs)
        scores = rng.standard_normal((300, 4)) * 5.0
        scores[1] = [1e16, 1.0, -1e16, 0.5]  # another summation order gives 1.5 or 0.0
        scores[::7, 1] = np.inf
        scores[::11, 3] = -np.inf  # rows 0 and 77 hold both, and sum to NaN

        class Counting(MatrixResponseProvider):
            calls = 0

            def get_responses(self, location_ids, part_id):
                Counting.calls += 1
                return super().get_responses(location_ids, part_id)

        provider = Counting(scores)
        results, _ = run_grid(model, full, provider)
        assert Counting.calls == model.n_parts == 4
        expected = np.array([full_score(model, provider, i) for i in range(300)])
        assert np.isnan(expected[77]) and np.isinf(expected[7]) and expected[1] == 0.5 - 0.7
        assert results.score.tobytes() == expected.tobytes()

    def test_single_point_matches_direct_evaluation(self, small_spec):
        grid = BeliefGrid(41)
        rows = lambda_sweep(small_spec, [(8.0, 4.0)], grid)
        model, provider, truth = make_synthetic(small_spec)
        policy = train_policy(model.likelihoods, CostParams(8.0, 4.0), grid)
        results, stats = run_grid(model, policy, provider)
        counts = classification_counts(results, truth)
        # the full detector: every location scored exhaustively, labelled positive
        baseline = [DetectionResult(loc, POS_LABEL, full_score(model, provider, loc),
                                    tuple(range(model.n_parts)), 0, 0.5, 0.0)
                    for loc in range(provider.n_locations)]
        ap = precision_recall(results, truth).average_precision
        ap_full = precision_recall(baseline, truth).average_precision
        direct = synth.SweepRow(lambda_fp=8.0, lambda_fn=4.0, ap=ap,
                                rnpe=compute_rnpe(stats, model.n_parts, provider.n_locations),
                                mean_tau=stats.mean_tau, fp_rate=counts.fp_rate,
                                fn_rate=counts.fn_rate, ap_full=ap_full, delta_ap=ap_full - ap)
        assert rows == [direct]

    def test_ap_full_is_shared_by_every_point(self, small_spec):
        rows = lambda_sweep(small_spec, [(4.0, 4.0), (16.0, 8.0)], BeliefGrid(21))
        assert rows[0].ap_full == rows[1].ap_full
        assert all(r.delta_ap == r.ap_full - r.ap for r in rows)

    def test_spec_without_a_positive_fails_before_any_training(self, monkeypatch):
        spec = SyntheticSpec(n_parts=2, separation=1.0, prior_positive=0.0,
                             n_locations=20, seed=1, train_samples=300)
        monkeypatch.setattr(synth, "train_policy", None)  # any training would call it
        with pytest.raises(InvalidParameterError, match="at least one positive location"):
            lambda_sweep(spec, [(4.0, 4.0)])

    def test_duplicate_points_rejected(self, small_spec):
        with pytest.raises(InvalidParameterError):
            lambda_sweep(small_spec, [(4.0, 4.0), (4.0, 4.0)])

    def test_empty_grid_rejected(self, small_spec):
        with pytest.raises(InvalidParameterError):
            lambda_sweep(small_spec, [])

    # NaN != NaN, so a repeated NaN point would pass the uniqueness rule; a zero or
    # negative cost is CostParams' error too, raised before the good point runs
    @pytest.mark.parametrize("points", [[(math.nan, 1.0)], [(4.0, math.inf)], [(-math.inf, 2.0)],
                                        [(math.nan, 1.0), (math.nan, 1.0)],
                                        [(4.0, 4.0), (0.0, 4.0)], [(4.0, 4.0), (4.0, -1.0)]],
                             ids=["nan", "inf", "-inf", "repeated-nan", "zero", "negative"])
    def test_non_finite_point_rejected_before_any_work(self, small_spec, points, monkeypatch):
        monkeypatch.setattr(synth, "make_synthetic", None)  # any work would call it
        with pytest.raises(InvalidParameterError, match="lambda grid values must be finite"):
            lambda_sweep(small_spec, points)

    def test_equal_cost_sweep_trends(self, small_spec):
        grid = BeliefGrid(41)
        rows = lambda_sweep(small_spec, [(l, l) for l in (0.5, 4.0, 32.0)], grid)
        assert [(r.lambda_fp, r.lambda_fn) for r in rows] == [(0.5, 0.5), (4.0, 4.0), (32.0, 32.0)]
        errors = [r.fp_rate + r.fn_rate for r in rows]
        n = small_spec.n_locations
        for a, b in zip(errors, errors[1:]):
            se = math.sqrt(max(a * (1 - a), 1e-9) / n) + math.sqrt(max(b * (1 - b), 1e-9) / n)
            assert b <= a + 2.0 * se

    def test_rows_independent_of_other_points(self, small_spec):
        grid = BeliefGrid(21)
        points = [(4.0, 4.0), (16.0, 8.0)]
        rows = lambda_sweep(small_spec, points, grid)
        assert rows == lambda_sweep(small_spec, points, grid)
        assert rows == [lambda_sweep(small_spec, [p], grid)[0] for p in points]

    def test_triangular_grid_reproduces_cost_ratio_pattern(self):
        # raising lambda_fp at fixed lambda_fn buys fewer false positives and
        # (because early positive declarations get rarer) more saved evaluations
        spec = SyntheticSpec(n_parts=9, separation=3.0, prior_positive=0.5,
                             n_locations=2000, seed=3, train_samples=1000)
        points = [(float(fp), float(fn))
                  for fn in (4, 8, 16, 32, 64) for fp in (4, 8, 16, 32, 64) if fp >= fn]
        rows = lambda_sweep(spec, points, BeliefGrid(31))
        assert len(rows) == 15
        fn4 = sorted((r for r in rows if r.lambda_fn == 4.0),
                     key=lambda r: r.lambda_fp)
        n = spec.n_locations
        for a, b in zip(fn4, fn4[1:]):
            se = math.sqrt(max(a.fp_rate * (1 - a.fp_rate), 1e-9) / n) + \
                math.sqrt(max(b.fp_rate * (1 - b.fp_rate), 1e-9) / n)
            assert b.fp_rate <= a.fp_rate + 2.0 * se
            assert b.rnpe >= a.rnpe * 0.98

    def test_csv_round_trip(self, tmp_path, small_spec):
        import csv

        sweep = lambda_sweep(small_spec, [(8.0, 8.0)], BeliefGrid(21))
        path = tmp_path / "sweep.csv"
        save_sweep_csv(sweep, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["lambda_fp"]) == 8.0
        assert set(rows[0]) == {"lambda_fp", "lambda_fn", "ap", "rnpe",
                                "mean_tau", "fp_rate", "fn_rate", "ap_full", "delta_ap"}


class TestDegenerateSeparation:
    def test_policy_stops_immediately_and_costs_half_lambda(self):
        spec = SyntheticSpec(n_parts=3, separation=0.0, prior_positive=0.5,
                             n_locations=10, seed=17, train_samples=2000)
        model, _, _ = make_synthetic(spec)
        costs = CostParams(3.0, 3.0)
        policy = train_policy(model.likelihoods, costs, BeliefGrid(101))
        assert policy.actions[0, policy.grid.nearest_index(0.5)] in (LABEL_NEG, LABEL_POS)
        est = simulate_policy(policy, model.likelihoods, 20000, seed=3)
        assert abs(est.mean_cost - 1.5) <= 3.0 * est.std_error + 1e-9

    def test_accuracy_indistinguishable_from_prior_classifier(self):
        spec = SyntheticSpec(n_parts=3, separation=0.0, prior_positive=0.5,
                             n_locations=2000, seed=29, train_samples=2000)
        model, provider, truth = make_synthetic(spec)
        policy = train_policy(model.likelihoods, CostParams(3.0, 3.0), BeliefGrid(101))
        results, _ = run_grid(model, policy, provider)
        counts = classification_counts(results, truth)
        # the policy labels everything one way; its error is the class prior,
        # which a binomial test at 1% cannot distinguish from coin-flip truth
        error = counts.error_rate
        se = math.sqrt(0.25 / spec.n_locations)
        assert abs(error - 0.5) <= 2.58 * se
