import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from partsched import (
    BeliefGrid,
    CapacityError,
    CostParams,
    InvalidParameterError,
    MatrixResponseProvider,
    SyntheticSpec,
    TinyInstance,
    exhaustive_value_row,
    make_synthetic,
    random_tiny_instance,
    run_grid,
    simulate_policy,
    step_trace,
    train_policy,
)
from partsched.cli import VERIFY_TOLERANCE
from partsched.inference import POS_LABEL
from partsched.oracle import _chain_tables, _outcome_bins, _snap
from partsched.policy import LABEL_NEG, LABEL_POS, Policy, _score_bin_transitions, part_action

from conftest import (
    ENGINE_TRACE_CASES,
    UNTRAINED_SHA256,
    assert_labelled_alone_alike,
    constant_policy,
    engine_trace_case,
    overlapping_likelihood,
    separable_likelihood,
    scan_synthetic,
    two_part_instance,
    uninformative_likelihood,
)

RECORDED_VALUE_ROWS_SHA256 = "7e7a87dc059afc558df9cb46405b798ffc0db2bd12135ad3a6aa62ae69da2a42"


class TestTinyInstance:
    def test_rejects_too_many_parts(self):
        liks = tuple(uninformative_likelihood(k) for k in range(4))
        with pytest.raises(CapacityError):
            TinyInstance(likelihoods=liks, costs=CostParams(4.0, 4.0), grid=BeliefGrid(11))

    def test_rejects_fine_grids(self):
        with pytest.raises(CapacityError):
            TinyInstance(likelihoods=(uninformative_likelihood(0),),
                         costs=CostParams(4.0, 4.0), grid=BeliefGrid(101))

    def test_accepts_diffuse_likelihoods(self):
        # the memoized (mask, belief bin) solver needs no limit on the active score bins
        inst = TinyInstance(likelihoods=(uninformative_likelihood(0, n_bins=8),
                                         overlapping_likelihood(1),
                                         overlapping_likelihood(2, tilt=0.5)),
                            costs=CostParams(12.0, 12.0), grid=BeliefGrid(11))
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        assert (policy.actions[0] >= part_action(0)).any()
        assert np.max(np.abs(policy.values - exhaustive_value_row(inst))) <= VERIFY_TOLERANCE


class TestExhaustiveOptimalValue:
    """Optimal values read from exhaustive_value_row, the oracle's one value solver."""

    def test_all_parts_used_reduces_to_stop_cost(self):
        inst = two_part_instance(costs=CostParams(6.0, 4.0))
        row = exhaustive_value_row(inst, (1 << inst.n_parts) - 1)
        expected = np.minimum(4.0 * inst.grid.centers, 6.0 * (1.0 - inst.grid.centers))
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    def test_uninformative_part_means_stop_now(self):
        inst = TinyInstance(likelihoods=(uninformative_likelihood(0, n_bins=4),),
                            costs=CostParams(10.0, 10.0), grid=BeliefGrid(11))
        value = exhaustive_value_row(inst)[inst.grid.nearest_index(0.5)]
        assert value == pytest.approx(5.0, abs=1e-12)

    def test_perfect_separator_worth_one_evaluation(self):
        inst = TinyInstance(likelihoods=(separable_likelihood(0, n_bins=4),),
                            costs=CostParams(100.0, 100.0), grid=BeliefGrid(21))
        value = exhaustive_value_row(inst)[inst.grid.nearest_index(0.5)]
        assert 1.0 <= value < 1.01

    def test_certifies_trained_policy_on_random_instances(self):
        for seed in range(8):
            inst = random_tiny_instance(seed)
            policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
            row = exhaustive_value_row(inst)
            assert np.max(np.abs(policy.values - row)) <= 1e-6, f"seed {seed}"

    def test_two_parts_three_bins_matches_to_nano(self):
        from partsched import DiscretePdf, ScoreLikelihood

        def lik(part_id, pos_masses, neg_masses):
            return ScoreLikelihood(part_id=part_id,
                                   pos=DiscretePdf.from_weights(0.0, 1.0, pos_masses),
                                   neg=DiscretePdf.from_weights(0.0, 1.0, neg_masses))

        inst = TinyInstance(
            likelihoods=(lik(0, [0.5, 0.3, 0.2], [0.1, 0.3, 0.6]),
                         lik(1, [0.7, 0.2, 0.1], [0.2, 0.2, 0.6])),
            costs=CostParams(11.0, 7.0),
            grid=BeliefGrid(11),
        )
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        row = exhaustive_value_row(inst)
        assert np.max(np.abs(policy.values - row)) <= 1e-9

    def test_trained_actions_match_oracle_tree_on_every_path(self):
        from partsched.oracle import _ExhaustiveTreeSolver

        inst = two_part_instance(costs=CostParams(9.0, 7.0))
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        solver = _ExhaustiveTreeSolver(inst)
        n_bins = inst.likelihoods[0].pos.n_bins

        def walk(mask, idx):
            trained = int(policy.actions[mask, idx])
            assert trained == solver.best_action(mask, idx), (mask, idx)
            if trained >= 2:
                k = trained - 2
                for j in range(n_bins):
                    walk(mask | (1 << k), solver.successors[k][idx][j])

        walk(0, inst.grid.nearest_index(0.5))

    def test_value_rows_pinned(self):
        # sha256 of exhaustive_value_row's bytes at every start mask, seeds
        # 0-199: the pure-Python recursion must reproduce it bit for bit
        digest = hashlib.sha256()
        for seed in range(200):
            inst = random_tiny_instance(seed)
            for mask in range(1 << inst.n_parts):
                digest.update(exhaustive_value_row(inst, mask).tobytes())
        assert digest.hexdigest() == RECORDED_VALUE_ROWS_SHA256

    def test_fixed_order_threshold_policies_never_beat_optimum(self):
        # absolute slack covers pdf-floor dust (~1e-6 of outcome mass) that a
        # finite sample cannot resolve when the rare branch never fires
        inst = two_part_instance(costs=CostParams(10.0, 6.0))
        optimum = exhaustive_value_row(inst)[inst.grid.nearest_index(0.5)]
        for theta_lo, theta_hi, order in [(0.2, 0.8, (0, 1)), (0.4, 0.6, (1, 0)),
                                          (0.05, 0.95, (0, 1)), (0.5, 0.5, (1, 0))]:
            policy = threshold_policy(inst, theta_lo, theta_hi, order)
            est = simulate_policy(policy, inst.likelihoods, 40000, seed=9)
            assert est.mean_cost >= optimum - 3.0 * est.std_error - 1e-4


def threshold_policy(inst, theta_lo, theta_hi, order) -> Policy:
    """Admissible fixed-order policy: label outside [theta_lo, theta_hi], else next part."""
    grid = inst.grid
    n = inst.n_parts
    n_states = 1 << n
    actions = np.empty((n_states, grid.d), dtype=np.uint8)
    stop_neg = inst.costs.lambda_fn * grid.centers
    stop_pos = inst.costs.lambda_fp * (1.0 - grid.centers)
    terminal = np.where(stop_neg <= stop_pos, LABEL_NEG, LABEL_POS)
    for mask in range(n_states):
        remaining = [k for k in order if not (mask >> k) & 1]
        for i, p in enumerate(grid.centers):
            if p < theta_lo:
                actions[mask, i] = LABEL_NEG
            elif p > theta_hi:
                actions[mask, i] = LABEL_POS
            elif remaining:
                actions[mask, i] = 2 + remaining[0]
            else:
                actions[mask, i] = terminal[i]
    return Policy(n_parts=n, grid=grid, costs=inst.costs,
                  actions=actions, values=np.zeros(grid.d),
                  likelihoods_sha256=UNTRAINED_SHA256)


class TestSimulatePolicy:
    # d = 11: every trial stops at once in the start bin, whose center is 0.5,
    # and pays lambda * 0.5
    def test_forced_negative(self):
        inst = two_part_instance(costs=CostParams(7.0, 3.0))
        policy = constant_policy(2, LABEL_NEG, d=inst.grid.d, costs=inst.costs)
        est = simulate_policy(policy, inst.likelihoods, 5000, seed=1)
        assert est.fn_rate == 1.0
        assert est.mean_tau == 0.0
        assert est.mean_cost == pytest.approx(1.5, abs=1e-12)
        assert est.std_error == 0.0

    def test_forced_positive(self):
        inst = two_part_instance(costs=CostParams(7.0, 3.0))
        policy = constant_policy(2, LABEL_POS, d=inst.grid.d, costs=inst.costs)
        est = simulate_policy(policy, inst.likelihoods, 5000, seed=1)
        assert est.fp_rate == 1.0
        assert est.mean_cost == pytest.approx(3.5, abs=1e-12)

    def test_consistent_with_dp_value(self):
        inst = random_tiny_instance(7)
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        est = simulate_policy(policy, inst.likelihoods, 200000, seed=5)
        dp = policy.values[inst.grid.nearest_index(0.5)]
        assert abs(est.mean_cost - dp) <= 4.0 * est.std_error + 1e-9

    def test_seeded_reproducibility(self):
        inst = random_tiny_instance(2)
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        a = simulate_policy(policy, inst.likelihoods, 30000, seed=3)
        b = simulate_policy(policy, inst.likelihoods, 30000, seed=3)
        assert a == b

    def test_doubling_trials_shrinks_std_error(self):
        # overlapping classes keep per-trial costs genuinely random
        from conftest import mixed_likelihood

        inst = TinyInstance(
            likelihoods=(mixed_likelihood(0), mixed_likelihood(1)),
            costs=CostParams(12.0, 12.0), grid=BeliefGrid(11))
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        small = simulate_policy(policy, inst.likelihoods, 50000, seed=11)
        big = simulate_policy(policy, inst.likelihoods, 100000, seed=11)
        ratio = big.std_error / small.std_error
        assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.2)

    def test_chain_tables_bound_memory(self):
        # n=12, d=101: the float64 weights, reused as the cdf, take 1.95 MB; the trials
        # walked per chunk add about 1.5 MB
        spec = SyntheticSpec(n_parts=12, separation=1.0, prior_positive=0.3,
                             n_locations=1, seed=3)
        model, _, _ = make_synthetic(spec, CostParams(200.0, 200.0))
        policy = train_policy(model.likelihoods, model.costs)
        simulate_policy(policy, model.likelihoods, 100, seed=0)  # imports, if any
        tracemalloc.start()
        try:
            est = simulate_policy(policy, model.likelihoods, 10 ** 5, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = 12 * 101 * model.likelihoods[0].pos.n_bins * 8
        assert peak < 2.5 * weights
        assert est.mean_tau > 1.0  # the trials walk the chain


class TestOutcomeBins:
    """The bisection draw equals the count draw min((row <= u).sum(), n_bins - 1)."""

    @staticmethod
    def counted(cdf, rows, u):
        return np.minimum((cdf[rows] <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 7, 8, 9, 201])
    def test_adversarial_rows(self, n_bins):
        rng = np.random.default_rng(n_bins)
        cdf = np.cumsum(rng.random((40, n_bins)), axis=1)
        cdf /= cdf[:, -1:]
        cdf[1] = np.cumsum(np.where(np.arange(n_bins) % 3 == 1, 0.0, 1.0)) / n_bins  # zero-mass runs
        cdf[2] = 0.0  # all mass in one bin: every entry is equal
        cdf[2, -1] = 1.0
        cdf[3] = 0.5  # a last entry below 1, drawn above it
        cdf[4] = np.minimum(np.arange(1, n_bins + 1) / n_bins, 1.0 - 1e-9)
        rows = np.repeat(np.arange(cdf.shape[0]), 2 * n_bins + 4)
        u = rng.random(rows.size)
        # u exactly at each entry of its row, and above every entry
        at_entry = np.concatenate([np.arange(r * (2 * n_bins + 4), r * (2 * n_bins + 4) + n_bins)
                                   for r in range(cdf.shape[0])])
        u[at_entry] = cdf[rows[at_entry], np.tile(np.arange(n_bins), cdf.shape[0])]
        u[rows == 3] = 0.75
        u[:: 2 * n_bins + 4] = 1.0
        u[1:: 2 * n_bins + 4] = 0.0
        assert np.array_equal(_outcome_bins(cdf, rows, u), self.counted(cdf, rows, u))

    def test_chain_table_rows(self):
        likelihoods = scan_synthetic("scan-deep")[0].likelihoods
        weights, _ = _chain_tables(likelihoods, BeliefGrid(101))
        cdf = np.cumsum(weights, axis=2).reshape(-1, weights.shape[2])
        rng = np.random.default_rng(0)
        rows = rng.integers(0, cdf.shape[0], 50_000)
        u = rng.random(rows.size)
        u[:1000] = cdf[rows[:1000], rng.integers(0, cdf.shape[1], 1000)]
        assert np.array_equal(_outcome_bins(cdf, rows, u), self.counted(cdf, rows, u))


class TestSnap:
    """`_snap` rounds p * (d - 1) to the nearest bin, an exact tie to the lower one."""

    @staticmethod
    def exact(d, p):
        x = Fraction(p) * (d - 1)  # exact: every float is a dyadic rational
        below = math.floor(x)
        return min(max(below + (x - below > Fraction(1, 2)), 0), d - 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9, 10, 11, 20, 22, 101, 1001, 1025, 2000])
    def test_matches_exact_rounding(self, d):
        centers = BeliefGrid(d).centers
        points = set(centers.tolist())
        quarter = 0.25 / (d - 1)  # a quarter bin either side of each midpoint
        points.update((i + 0.5) / (d - 1) + s * quarter for i in range(d - 1) for s in (-1, 1))
        if d % 2 == 0:
            points.add(0.5)  # the middle midpoint, exact in binary on every even grid
        if (d - 1) & (d - 2) == 0:  # d - 1 a power of two: every midpoint is exact in binary
            points.update((i + 0.5) / (d - 1) for i in range(d - 1))
        p = np.array(sorted(points))
        expected = [self.exact(d, x) for x in p.tolist()]
        assert _snap(centers, p).tolist() == expected
        assert [int(_snap(centers, x)) for x in p.tolist()] == expected

    @pytest.mark.parametrize("d", [2, 3, 11, 101, 1001])
    def test_matches_nearest_index(self, d):
        centers = BeliefGrid(d).centers
        mid = (centers[:-1] + centers[1:]) / 2.0  # ties, wherever the float sum is exact
        p = np.concatenate([centers, mid, np.nextafter(mid, 0.0), np.nextafter(mid, 1.0),
                            [0.0, 1.0, -1.0, -0.25, -1e-9, 1.0 + 1e-9, 1.25, 2.0]])
        expected = BeliefGrid(d).nearest_index(p)
        assert np.array_equal(_snap(centers, p), expected)
        assert [int(_snap(centers, float(x))) for x in p] == expected.tolist()

    def test_start_is_the_middle_bin(self):
        # the engine starts at Policy.start, the oracle at _snap(centers, 0.5)
        for d in range(2, 2001):
            centers = BeliefGrid(d).centers
            start = constant_policy(1, LABEL_NEG, d=d).start
            assert start == int(_snap(centers, 0.5)) == (d - 1) // 2, d
            if d % 2:  # 0.5 up to its last bit
                assert abs(centers[start] - 0.5) <= np.spacing(0.5), d
            else:
                assert centers[start] < 0.5 < centers[start + 1], d


def training_successors(likelihoods, grid):
    return [_score_bin_transitions(lik, grid)[1] for lik in likelihoods]


class TestChainTables:
    """The oracle's chain tables, snapped by `_snap`, have training's successors."""

    @pytest.mark.parametrize("d", [11, 21, 101, 201, 1001])
    @pytest.mark.parametrize("regime", ["scan", "scan-deep"])
    def test_scan_successors_match_training(self, regime, d):
        likelihoods = scan_synthetic(regime)[0].likelihoods
        grid = BeliefGrid(d)
        _, successors = _chain_tables(likelihoods, grid)
        assert np.array_equal(successors, training_successors(likelihoods, grid))

    def test_tiny_successors_match_training(self):
        for seed in range(200):
            inst = random_tiny_instance(seed)
            _, successors = _chain_tables(inst.likelihoods, inst.grid)
            assert np.array_equal(successors, training_successors(inst.likelihoods, inst.grid)), seed


class TestStepTrace:
    def test_immediate_label_ignores_script(self):
        inst = two_part_instance()
        policy = constant_policy(2, LABEL_NEG, d=inst.grid.d, costs=inst.costs)
        trace = step_trace(policy, inst.likelihoods, [])
        assert trace == [(LABEL_NEG, 0.5)]
        # an even grid has no center at 0.5: the start is the lower nearest one
        even = constant_policy(2, LABEL_NEG, d=10, costs=inst.costs)
        assert step_trace(even, inst.likelihoods, []) == [(LABEL_NEG, even.grid.centers[4])]

    def test_uninformative_likelihoods_keep_belief_flat(self):
        liks = (uninformative_likelihood(0, n_bins=4), uninformative_likelihood(1, n_bins=4))
        inst_grid = BeliefGrid(11)
        # force two evaluations then a terminal label
        actions = np.full((4, 11), LABEL_NEG, dtype=np.uint8)
        actions[0b00, :] = 2 + 0
        actions[0b01, :] = 2 + 1
        policy = Policy(n_parts=2, grid=inst_grid, costs=CostParams(4.0, 4.0),
                        actions=actions, values=np.zeros(11),
                        likelihoods_sha256=UNTRAINED_SHA256)
        trace = step_trace(policy, liks, [0.3, 0.9])
        assert len(trace) == 3
        for _, belief in trace:
            assert belief == pytest.approx(0.5, abs=1e-12)

    def test_script_exhaustion(self):
        inst = two_part_instance(costs=CostParams(100.0, 100.0))
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        with pytest.raises(InvalidParameterError,
                           match="script exhausted after 0 evaluations without a stop decision"):
            step_trace(policy, inst.likelihoods, [])

    @pytest.mark.filterwarnings("error")  # infinite responses must not trip numpy casts
    def test_matches_inference_engine_trace(self):
        for case in ENGINE_TRACE_CASES:
            model, policy, scores = engine_trace_case(case)
            provider = MatrixResponseProvider(scores)
            results, _ = run_grid(model, policy, provider)
            for i in range(min(20, len(results))):
                assert_labelled_alone_alike(model, policy, scores, results, i, case)
            for r, row in zip(results, scores):
                used = r.parts_evaluated[:r.tau]
                trace = step_trace(policy, model.likelihoods, [row[k] for k in used])
                label = LABEL_POS if r.label == POS_LABEL else LABEL_NEG
                where = (case, r.location_id)
                assert [a for a, _ in trace] == [part_action(k) for k in used] + [label], where
                assert r.final_belief == trace[-1][1], where
                partial = 0.0
                for k in used:
                    partial += float(row[k])
                assert r.partial_score == partial, where


class TestRandomTinyInstance:
    def test_deterministic_per_seed(self):
        a = random_tiny_instance(13)
        b = random_tiny_instance(13)
        assert a.costs == b.costs
        assert a.grid == b.grid
        for la, lb in zip(a.likelihoods, b.likelihoods):
            np.testing.assert_array_equal(la.pos.bins, lb.pos.bins)
            np.testing.assert_array_equal(la.neg.bins, lb.neg.bins)

    def test_seeds_vary(self):
        costs = {random_tiny_instance(s).costs for s in range(6)}
        assert len(costs) > 1

    def test_instances_are_valid(self):
        for seed in range(10):
            inst = random_tiny_instance(seed)
            assert 1 <= inst.n_parts <= 3
            assert inst.grid.d <= 21
