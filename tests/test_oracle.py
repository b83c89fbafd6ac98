import numpy as np
import pytest

from partsched import (
    BeliefGrid,
    CapacityError,
    CostParams,
    DetectorModel,
    InsufficientScriptError,
    MatrixResponseProvider,
    SyntheticSpec,
    TinyInstance,
    exhaustive_optimal_value,
    exhaustive_value_row,
    make_synthetic,
    random_tiny_instance,
    run_grid,
    run_location,
    simulate_policy,
    step_trace,
    train_policy,
)
from partsched.inference import POS_LABEL
from partsched.policy import LABEL_NEG, LABEL_POS, Policy, part_action

from conftest import (
    constant_policy,
    overlapping_likelihood,
    separable_likelihood,
    two_part_instance,
    uninformative_likelihood,
)


class TestTinyInstance:
    def test_rejects_too_many_parts(self):
        liks = tuple(uninformative_likelihood(k) for k in range(4))
        with pytest.raises(CapacityError):
            TinyInstance(likelihoods=liks, costs=CostParams(4.0, 4.0), grid=BeliefGrid(11))

    def test_rejects_fine_grids(self):
        with pytest.raises(CapacityError):
            TinyInstance(likelihoods=(uninformative_likelihood(0),),
                         costs=CostParams(4.0, 4.0), grid=BeliefGrid(101))

    def test_rejects_diffuse_likelihoods(self):
        with pytest.raises(CapacityError):
            TinyInstance(likelihoods=(uninformative_likelihood(0, n_bins=8),
                                      overlapping_likelihood(1)),
                         costs=CostParams(4.0, 4.0), grid=BeliefGrid(11))


class TestExhaustiveOptimalValue:
    def test_all_parts_used_reduces_to_stop_cost(self):
        inst = two_part_instance(costs=CostParams(6.0, 4.0))
        full = (1 << inst.n_parts) - 1
        for p0 in inst.grid.centers:
            expected = min(4.0 * p0, 6.0 * (1.0 - p0))
            got = exhaustive_optimal_value(inst, float(p0), start_mask=full)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_uninformative_part_means_stop_now(self):
        inst = TinyInstance(likelihoods=(uninformative_likelihood(0, n_bins=4),),
                            costs=CostParams(10.0, 10.0), grid=BeliefGrid(11))
        assert exhaustive_optimal_value(inst, 0.5) == pytest.approx(5.0, abs=1e-12)

    def test_perfect_separator_worth_one_evaluation(self):
        inst = TinyInstance(likelihoods=(separable_likelihood(0, n_bins=4),),
                            costs=CostParams(100.0, 100.0), grid=BeliefGrid(21))
        value = exhaustive_optimal_value(inst, 0.5)
        assert 1.0 <= value < 1.01

    def test_certifies_trained_policy_on_random_instances(self):
        for seed in range(8):
            inst = random_tiny_instance(seed)
            policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
            row = exhaustive_value_row(inst)
            assert np.max(np.abs(policy.values[0] - row)) <= 1e-6, f"seed {seed}"

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
        assert np.max(np.abs(policy.values[0] - row)) <= 1e-9

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

    def test_fixed_order_threshold_policies_never_beat_optimum(self):
        # absolute slack covers pdf-floor dust (~1e-6 of outcome mass) that a
        # finite sample cannot resolve when the rare branch never fires
        inst = two_part_instance(costs=CostParams(10.0, 6.0))
        optimum = exhaustive_optimal_value(inst, 0.5)
        for theta_lo, theta_hi, order in [(0.2, 0.8, (0, 1)), (0.4, 0.6, (1, 0)),
                                          (0.05, 0.95, (0, 1)), (0.5, 0.5, (1, 0))]:
            policy = threshold_policy(inst, theta_lo, theta_hi, order)
            est = simulate_policy(policy, inst.likelihoods, 0.5, inst.costs, 40000, seed=9)
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
                  actions=actions, values=np.zeros((n_states, grid.d)))


class TestSimulatePolicy:
    def test_forced_negative(self):
        inst = two_part_instance(costs=CostParams(7.0, 3.0))
        policy = constant_policy(2, LABEL_NEG, d=inst.grid.d, costs=inst.costs)
        est = simulate_policy(policy, inst.likelihoods, 1.0, inst.costs, 5000, seed=1)
        assert est.fn_rate == 1.0
        assert est.mean_tau == 0.0
        assert est.mean_cost == pytest.approx(3.0, abs=1e-12)
        assert est.std_error == 0.0

    def test_forced_positive(self):
        inst = two_part_instance(costs=CostParams(7.0, 3.0))
        policy = constant_policy(2, LABEL_POS, d=inst.grid.d, costs=inst.costs)
        est = simulate_policy(policy, inst.likelihoods, 0.0, inst.costs, 5000, seed=1)
        assert est.fp_rate == 1.0
        assert est.mean_cost == pytest.approx(7.0, abs=1e-12)

    def test_consistent_with_dp_value(self):
        inst = random_tiny_instance(7)
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        est = simulate_policy(policy, inst.likelihoods, 0.5, inst.costs, 200000, seed=5)
        dp = policy.values[0, inst.grid.nearest_index(0.5)]
        assert abs(est.mean_cost - dp) <= 4.0 * est.std_error + 1e-9

    def test_seeded_reproducibility(self):
        inst = random_tiny_instance(2)
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        a = simulate_policy(policy, inst.likelihoods, 0.5, inst.costs, 30000, seed=3)
        b = simulate_policy(policy, inst.likelihoods, 0.5, inst.costs, 30000, seed=3)
        assert a == b

    def test_doubling_trials_shrinks_std_error(self):
        # overlapping classes keep per-trial costs genuinely random
        from conftest import mixed_likelihood

        inst = TinyInstance(
            likelihoods=(mixed_likelihood(0), mixed_likelihood(1)),
            costs=CostParams(12.0, 12.0), grid=BeliefGrid(11))
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        small = simulate_policy(policy, inst.likelihoods, 0.5, inst.costs, 50000, seed=11)
        big = simulate_policy(policy, inst.likelihoods, 0.5, inst.costs, 100000, seed=11)
        ratio = big.std_error / small.std_error
        assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.2)


class TestStepTrace:
    def test_immediate_label_ignores_script(self):
        inst = two_part_instance()
        policy = constant_policy(2, LABEL_NEG, d=inst.grid.d, costs=inst.costs)
        trace = step_trace(policy, inst.likelihoods, [])
        assert trace == [(LABEL_NEG, 0.5)]

    def test_uninformative_likelihoods_keep_belief_flat(self):
        liks = (uninformative_likelihood(0, n_bins=4), uninformative_likelihood(1, n_bins=4))
        inst_grid = BeliefGrid(11)
        # force two evaluations then a terminal label
        actions = np.full((4, 11), LABEL_NEG, dtype=np.uint8)
        actions[0b00, :] = 2 + 0
        actions[0b01, :] = 2 + 1
        policy = Policy(n_parts=2, grid=inst_grid, costs=CostParams(4.0, 4.0),
                        actions=actions, values=np.zeros((4, 11)))
        trace = step_trace(policy, liks, [0.3, 0.9])
        assert len(trace) == 3
        for _, belief in trace:
            assert belief == pytest.approx(0.5, abs=1e-12)

    def test_script_exhaustion(self):
        inst = two_part_instance(costs=CostParams(100.0, 100.0))
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        with pytest.raises(InsufficientScriptError):
            step_trace(policy, inst.likelihoods, [])

    @pytest.mark.filterwarnings("error")  # infinite responses must not trip numpy casts
    def test_matches_inference_engine_trace(self):
        for case in ("two-part", "scan", "scan-deep", "tiny-0", "tiny-1", "tiny-2",
                     "tiny-3", "tiny-4", "tiny-5"):
            model, policy, scores = engine_trace_case(case)
            provider = MatrixResponseProvider(scores)
            results, _ = run_grid(model, policy, provider)
            for r in results[:20]:
                assert run_location(model, policy, provider, r.location_id) == r, case
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


def with_extremes(scores):
    """Every 5th row gets one infinite or far out-of-support response."""
    scores = scores.copy()
    extremes = (np.inf, -np.inf, 1e6, -1e6)
    for j, row in enumerate(range(0, scores.shape[0], 5)):
        scores[row, j % scores.shape[1]] = extremes[j % len(extremes)]
    return scores


def engine_trace_case(case):
    """(model, policy, response rows) for the engine-vs-step_trace comparison."""
    if case == "two-part":
        inst = two_part_instance(costs=CostParams(60.0, 60.0))
        # high-bin scores, as a positive location would produce, then mixed rows
        scores = np.array([[0.93, 0.88], [0.88, 0.93], [0.05, 0.97], [0.5, 0.02], [1.7, -0.4]])
        model = DetectorModel(bias=0.0, likelihoods=inst.likelihoods, costs=inst.costs)
        return model, train_policy(inst.likelihoods, inst.costs, inst.grid), scores
    if case.startswith("tiny-"):
        seed = int(case.split("-")[1])
        inst = random_tiny_instance(seed)
        # the support is [0, 1]: a third of the draws fall outside it
        scores = np.random.default_rng(seed).uniform(-0.5, 1.5, size=(400, inst.n_parts))
        model = DetectorModel(bias=0.0, likelihoods=inst.likelihoods, costs=inst.costs)
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        return model, policy, with_extremes(scores)
    # the two scan regimes at n=9, d=101: headline point and deep chains
    separation, prior, costs = {"scan": (4.0, 0.01, CostParams(20.0, 5.0)),
                                "scan-deep": (1.0, 0.3, CostParams(200.0, 200.0))}[case]
    spec = SyntheticSpec(n_parts=9, separation=separation, prior_positive=prior,
                         n_locations=2000, seed=31)
    model, provider, _ = make_synthetic(spec, costs)
    policy = train_policy(model.likelihoods, costs, BeliefGrid(101))
    return model, policy, with_extremes(provider.scores)


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
