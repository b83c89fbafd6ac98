"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from partsched import (
    BeliefGrid,
    CostParams,
    MatrixResponseProvider,
    SyntheticSpec,
    classification_counts,
    compute_rnpe,
    exhaustive_value_row,
    full_score,
    make_synthetic,
    precision_recall,
    random_tiny_instance,
    run_grid,
    simulate_policy,
    train_policy,
)
from partsched.cli import main
from partsched.inference import DetectionResult, POS_LABEL
from partsched.policy import LABEL_NEG, LABEL_POS

# Small absolute guards alongside statistical tolerances: _FLOOR_DUST bounds
# the value mass sitting on pdf-floor bins (probability <= ~3e-6 per trial,
# cost scale <= ~35) that a finite sample cannot resolve.
_FLOOR_DUST = 1e-5


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def baseline_results(model, provider):
    """Full-evaluation classifier: every location scored exhaustively."""
    return [
        DetectionResult(loc, POS_LABEL, full_score(model, provider, loc),
                        tuple(range(model.n_parts)), 0, 0.5, 0.0)
        for loc in range(provider.n_locations)
    ]


class CountingProvider(MatrixResponseProvider):
    def __init__(self, scores):
        super().__init__(scores)
        self.requests = {}

    def get_response(self, location_id, part_id):
        key = (location_id, part_id)
        self.requests[key] = self.requests.get(key, 0) + 1
        return super().get_response(location_id, part_id)


def test_c1_dp_optimality_certification():
    with criterion("C1 dp-vs-exhaustive certification (20 seeds, <=1e-6, <60s)"):
        start = time.monotonic()
        worst = 0.0
        for seed in range(20):
            inst = random_tiny_instance(seed)
            policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
            oracle_row = exhaustive_value_row(inst)
            diff = float(np.max(np.abs(policy.values - oracle_row)))
            assert diff <= 1e-6, f"seed {seed}: |dp - exhaustive| = {diff}"
            worst = max(worst, diff)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"certification took {elapsed:.1f}s"
        print(f"  max |dp - exhaustive| = {worst:.3e} in {elapsed:.2f}s")


def test_c2_terminal_stage_exactness():
    with criterion("C2 terminal stage bit-exact"):
        from conftest import mixed_likelihood, separable_likelihood, uninformative_likelihood

        for lam_fp, lam_fn in ((20.0, 5.0), (3.0, 3.0), (7.5, 31.0)):
            costs = CostParams(lam_fp, lam_fn)
            grid = BeliefGrid(101)
            expected = np.minimum(lam_fn * grid.centers, lam_fp * (1.0 - grid.centers))
            labels = np.where(lam_fn * grid.centers <= lam_fp * (1.0 - grid.centers),
                              LABEL_NEG, LABEL_POS)
            policy = train_policy([mixed_likelihood(0), separable_likelihood(1)], costs, grid)
            assert np.array_equal(policy.actions[-1], labels)
            assert policy.actions[-1, 0] == LABEL_NEG and policy.actions[-1, -1] == LABEL_POS
            # V(full mask, .) is V(empty, .) of a DP with no part worth its unit cost:
            # an uninformative part leaves the belief where it is
            values = train_policy([uninformative_likelihood(0)], costs, grid).values
            assert np.array_equal(values, expected)
            assert values[0] == 0.0 and values[-1] == 0.0


@pytest.fixture(scope="module")
def nine_part_model():
    spec = SyntheticSpec(n_parts=9, separation=3.0, prior_positive=0.5,
                         n_locations=100, seed=41)
    model, _, _ = make_synthetic(spec)
    return model


def test_c3_value_function_properties(nine_part_model):
    with criterion("C3 value-row properties on a 9-part model, every mask (d=101, <5min)"):
        from conftest import value_row

        start = time.monotonic()
        costs = CostParams(20.0, 5.0)
        grid = BeliefGrid(101)
        liks = nine_part_model.likelihoods
        stop = np.minimum(costs.lambda_fn * grid.centers,
                          costs.lambda_fp * (1.0 - grid.centers))
        rows = np.array([value_row(liks, costs, grid, s) for s in range(1 << 9)])
        assert np.array_equal(rows[0], train_policy(liks, costs, grid).values)
        assert np.all(rows <= stop[None, :] + 1e-12)
        assert rows.min() >= 0.0
        for s in range(1 << 9):
            for extra in range(9):
                if not (s >> extra) & 1:
                    assert np.all(rows[s] <= rows[s | (1 << extra)] + 1e-12)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        print(f"  trained and checked in {elapsed:.2f}s")


def test_c4_inference_equivalence():
    with criterion("C4 positive scores equal exhaustive scores (1e4 locations)"):
        spec = SyntheticSpec(n_parts=9, separation=2.0, prior_positive=0.3,
                             n_locations=10000, seed=13)
        model, plain_provider, _ = make_synthetic(spec)
        provider = CountingProvider(plain_provider.scores)
        policy = train_policy(model.likelihoods, CostParams(8.0, 8.0), BeliefGrid(101))
        results, stats = run_grid(model, policy, provider)
        # the override sees every fetch once: an empty ledger cannot pass
        assert all(count == 1 for count in provider.requests.values())
        assert len(provider.requests) == sum(len(r.parts_evaluated) for r in results)
        # the plain provider takes the gather fast path and must agree exactly
        assert run_grid(model, policy, MatrixResponseProvider(plain_provider.scores)) == \
            (results, stats)
        n_positive = 0
        for r in results:
            assert len(set(r.parts_evaluated)) == len(r.parts_evaluated) <= 9
            if r.label == POS_LABEL:
                n_positive += 1
                exhaustive = full_score(model, provider, r.location_id)
                assert abs(r.score - exhaustive) <= 1e-12
        assert n_positive > 100  # the check must actually exercise positives
        print(f"  {n_positive} positive locations matched exhaustive scores")


def test_c5_monte_carlo_consistency():
    with criterion("C5 simulated cost within 3 SE of V(empty, 0.5) at 1e6 trials"):
        for seed in (0, 3, 7, 9):
            inst = random_tiny_instance(seed)
            policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
            est = simulate_policy(policy, inst.likelihoods, 1_000_000, seed=100 + seed)
            dp = float(policy.values[inst.grid.nearest_index(0.5)])
            diff = abs(est.mean_cost - dp)
            assert diff <= 3.0 * est.std_error + _FLOOR_DUST, \
                f"seed {seed}: |{est.mean_cost} - {dp}| vs 3*{est.std_error}"


def test_c6_tradeoff_trend_reproduction():
    with criterion("C6 error rate and RNPE trends over the equal-cost sweep (<15min)"):
        start = time.monotonic()
        spec = SyntheticSpec(n_parts=9, separation=3.0, prior_positive=0.5,
                             n_locations=10000, seed=23)
        model, provider, truth = make_synthetic(spec)
        n = spec.n_locations
        lambdas = (0.5, 2.0, 8.0, 32.0, 128.0)
        errors, rnpes = [], []
        for lam in lambdas:
            policy = train_policy(model.likelihoods, CostParams(lam, lam), BeliefGrid(101))
            results, stats = run_grid(model, policy, provider)
            counts = classification_counts(results, truth)
            errors.append(counts.error_rate)
            rnpes.append(compute_rnpe(stats, model.n_parts, provider.n_locations))
        for a, b in zip(errors, errors[1:]):
            se_pair = math.sqrt(max(a * (1 - a), 1e-12) / n) + \
                math.sqrt(max(b * (1 - b), 1e-12) / n)
            assert b <= a + 2.0 * se_pair, f"error rate rose: {a} -> {b}"
        for a, b in zip(rnpes[1:], rnpes[2:]):  # lambda >= 2 rows
            assert b <= a, f"rnpe rose for lambda >= 2: {a} -> {b}"
        elapsed = time.monotonic() - start
        assert elapsed < 900.0
        print(f"  errors={['%.4f' % e for e in errors]} "
              f"rnpes={['%.3g' % r for r in rnpes]} in {elapsed:.1f}s")


def test_c7_savings_at_headline_operating_point():
    with criterion("C7 large savings at negligible accuracy loss (fp=20, fn=5)"):
        spec = SyntheticSpec(n_parts=9, separation=4.0, prior_positive=0.01,
                             n_locations=10000, seed=11)
        model, provider, truth = make_synthetic(spec)
        policy = train_policy(model.likelihoods, CostParams(20.0, 5.0), BeliefGrid(101))
        results, stats = run_grid(model, policy, provider)
        rnpe = compute_rnpe(stats, model.n_parts, provider.n_locations)
        ap_engine = precision_recall(results, truth).average_precision
        ap_full = precision_recall(baseline_results(model, provider), truth).average_precision
        degradation = ap_full - ap_engine
        assert rnpe >= 5.0
        assert degradation <= 0.02
        # regression bounds frozen from the first certified run
        # (rnpe = 56.94, degradation = -0.0007 at seed 11)
        assert rnpe >= 50.0
        assert degradation <= 0.005
        print(f"  rnpe={rnpe:.2f} ap_engine={ap_engine:.4f} ap_full={ap_full:.4f}")


def test_c8_uninformative_degeneracy():
    with criterion("C8 zero separation stops immediately at prior cost"):
        spec = SyntheticSpec(n_parts=9, separation=0.0, prior_positive=0.5,
                             n_locations=10, seed=19)
        model, _, _ = make_synthetic(spec)
        costs = CostParams(3.0, 3.0)
        policy = train_policy(model.likelihoods, costs, BeliefGrid(101))
        initial = policy.actions[0, policy.grid.nearest_index(0.5)]
        assert initial in (LABEL_NEG, LABEL_POS)
        est = simulate_policy(policy, model.likelihoods, 100000, seed=2)
        expected = min(costs.lambda_fn, costs.lambda_fp) * 0.5
        assert abs(est.mean_cost - expected) <= 3.0 * est.std_error + 1e-9
        print(f"  initial action={'neg' if initial == LABEL_NEG else 'pos'} "
              f"mean_cost={est.mean_cost}")


def test_c9_pipeline_round_trip_determinism(tmp_path):
    with criterion("C9 fit -> train-policy -> infer reruns byte-identical"):
        from partsched import ScoreSampleSet, save_responses_bin, save_sample_sets

        rng = np.random.default_rng(3)
        sets = [ScoreSampleSet(k, rng.standard_normal(200) + 1.5,
                               rng.standard_normal(200) - 1.5) for k in range(4)]
        samples = tmp_path / "samples.csv"
        save_sample_sets(sets, samples)
        responses = tmp_path / "responses.bin"
        save_responses_bin(rng.standard_normal((300, 4)), responses)

        outputs = []
        for tag in ("one", "two"):
            liks = tmp_path / f"liks_{tag}.json"
            policy = tmp_path / f"policy_{tag}.bin"
            results = tmp_path / f"results_{tag}.csv"
            assert main(["fit", "--samples", str(samples), "--out", str(liks)]) == 0
            assert main(["train-policy", "--likelihoods", str(liks),
                         "--lambda-fp", "20", "--lambda-fn", "5",
                         "--out", str(policy)]) == 0
            assert main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                         "--responses", str(responses), "--out", str(results)]) == 0
            outputs.append((liks.read_bytes(), policy.read_bytes(), results.read_bytes()))
        assert outputs[0] == outputs[1]
