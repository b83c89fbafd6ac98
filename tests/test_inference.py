import dataclasses
import functools
import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from partsched import (
    BeliefGrid,
    ConfigurationError,
    CostParams,
    DetectionResult,
    DetectionResults,
    DetectorModel,
    FormatError,
    InferenceStats,
    InvalidParameterError,
    MatrixResponseProvider,
    Policy,
    ProviderError,
    ResponseProvider,
    SyntheticSpec,
    full_score,
    load_responses_bin,
    load_responses_csv,
    load_results_csv,
    make_synthetic,
    run_grid,
    save_responses_bin,
    save_responses_csv,
    save_results_csv,
    train_policy,
)
from partsched import inference
from partsched.inference import NEG_LABEL, POS_LABEL
from partsched.oracle import _chain_tables, step_trace
from partsched.policy import LABEL_NEG, LABEL_POS, _score_bin_transitions, part_action

from conftest import (ENGINE_TRACE_CASES, SCAN_REGIMES, UNTRAINED_SHA256,
                      assert_labelled_alone_alike, constant_policy, engine_trace_case,
                      scan_synthetic, separable_likelihood)

# sha256 of results.csv, recorded before the writer streamed its rows: the two
# n=9 scan regimes (scan-deep completes ~38% of its locations), a 12-part
# detector whose orders name parts 10 and 11, and the FIXED_RESULTS
RECORDED_RESULTS_CSV_SHA256 = {
    "scan": "9e03f17850f478b9ccdc2f6c0a5576b90aa1db8fbb318620efe58cac7bf111ba",
    "scan-deep": "5e48e9479e900d44836f89e80906934350d4fd0b1961b6df83aa185ef5f04de0",
    "n12": "01215641f3ac1b60974d947202f7d1afb7c9fafb4eedcee82255755fc420bd90",
    "empty": "9421de871a9abc7c6f3f2655155f93c1621be1d5438823ba448f86529cbee679",
    "edge": "4bc5566baab5724adee6dfe4de72c31f30b37d30d764451a1c5d2b0651c5bf75",
}
FIXED_RESULTS = {
    "empty": DetectionResults([], [], [], [], [], np.empty((0, 9)), [], []),
    "edge": DetectionResults(
        location_id=[9, 10, 999, 1000, 0], positive=[False, True, True, True, True],
        score=[-math.inf, math.inf, math.nan, -0.0, 5e-324], tau=[0, 1, 2, 3, 0],
        n_evaluated=[0, 3, 3, 3, 1],
        order=[[0, 0, 0], [2, 0, 1], [255, 10, 0], [2, 0, 1], [7, 0, 0]],
        final_belief=[math.nan] * 5, partial_score=[math.nan] * 5),
}
# sha256 over run_grid's provider calls on regime_inputs(case), each call as its
# part id, its id-byte count and the id bytes, recorded before the round loop
# indexed its frontier by round: one call per requested part per round, parts
# ascending and ids ascending, then one completion call per part
RECORDED_PROVIDER_CALLS_SHA256 = {
    "scan": "65305faac9250f725609c285e094ed32baa1288b21c54d592a88e21225ccb3b5",
    "scan-deep": "635bfccffe1c3a04378f822db483ea68ab6bd7c3d324ce100b473eedc345d095",
    "n12": "adf79dd6019fed2b874d539122d66418308e721a4e7617bdc8c93f6e271b7d38",
}
REGIMES = {**SCAN_REGIMES, "n12": (2.0, 0.3, CostParams(20.0, 5.0))}


@functools.lru_cache(maxsize=None)
def regime_inputs(case, n_locations=10_000):
    """(model, policy, provider) of one synthetic image of REGIMES[case].

    The detector has 12 parts for "n12", else 9."""
    separation, prior, costs = REGIMES[case]
    spec = SyntheticSpec(n_parts=12 if case == "n12" else 9, separation=separation,
                         prior_positive=prior, n_locations=n_locations, seed=1404)
    model, provider, _ = make_synthetic(spec, costs)
    return model, train_policy(model.likelihoods, costs, BeliefGrid(101)), provider


@functools.lru_cache(maxsize=None)
def regime_results(case, n_locations=10_000):
    """run_grid's results on regime_inputs(case, n_locations)."""
    return run_grid(*regime_inputs(case, n_locations))[0]


def per_row_results_csv(results) -> str:
    """results.csv text formatted one f-string per row, as the writer first did."""
    lines = ["location_id,label,score,tau,parts_order\n"]
    for r in results:
        lines.append(f"{r.location_id},{r.label},{r.score!r},{r.tau},"
                     f"{';'.join(map(str, r.parts_evaluated))}\n")
    return "".join(lines)


class RecordingProvider(MatrixResponseProvider):
    """Gathering provider that records each batch call as (part_id, location id bytes)."""

    def __init__(self, scores):
        super().__init__(scores)
        self.calls: list[tuple[int, bytes]] = []

    def get_responses(self, location_ids, part_id):
        self.calls.append((int(part_id), np.asarray(location_ids).tobytes()))
        return super().get_responses(location_ids, part_id)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part_id, ids in self.calls:
            h.update(struct.pack("<qq", part_id, len(ids)))
            h.update(ids)
        return h.hexdigest()


class CountingProvider(MatrixResponseProvider):
    """Provider that keeps its own per-(location, part) request ledger."""

    def __init__(self, scores):
        super().__init__(scores)
        self.requests: dict[tuple[int, int], int] = {}

    def get_response(self, location_id, part_id):
        key = (location_id, part_id)
        self.requests[key] = self.requests.get(key, 0) + 1
        return super().get_response(location_id, part_id)


class BatchOnlyProvider(ResponseProvider):
    """Matrix-backed provider that implements `get_responses` and not `get_response`."""

    def __init__(self, scores):
        self.scores = scores
        self.n_locations, self.n_parts = scores.shape

    def get_responses(self, location_ids, part_id):
        return self.scores[location_ids, part_id]


def toy_model(n_parts, bias=0.0):
    liks = tuple(separable_likelihood(k) for k in range(n_parts))
    return DetectorModel(bias=bias, likelihoods=liks, costs=CostParams(4.0, 4.0))


def label_alone(model, policy, scores):
    """The one DetectionResult of a pass over a one-location provider."""
    results, _ = run_grid(model, policy, MatrixResponseProvider(scores))
    assert len(results) == 1
    return results[0]


class TestRunLocation:
    """One location labelled alone, by a pass over a one-location provider."""

    def test_immediate_negative(self, rng):
        model = toy_model(3)
        policy = constant_policy(3, LABEL_NEG)
        scores = rng.standard_normal((2, 3))
        result = label_alone(model, policy, scores[1:2])
        assert result.label == NEG_LABEL
        assert result.tau == 0
        assert result.parts_evaluated == ()
        assert result.score == -math.inf
        assert result.partial_score == 0.0
        assert result.final_belief == 0.5
        # an even grid has no center at 0.5: the start is the lower nearest one
        even = constant_policy(3, LABEL_NEG, d=10)
        assert label_alone(model, even, scores[1:2]).final_belief == even.grid.centers[4]

    def test_immediate_positive_evaluates_everything(self, rng):
        model = toy_model(3, bias=-0.75)
        policy = constant_policy(3, LABEL_POS)
        scores = rng.standard_normal((1, 3))
        result = label_alone(model, policy, scores)
        assert result.label == POS_LABEL
        assert result.tau == 0
        assert result.parts_evaluated == (0, 1, 2)
        assert result.score == scores[0].sum() + -0.75

    def test_positive_score_equals_full_score(self):
        model = toy_model(2, bias=0.3)
        policy = train_policy(model.likelihoods, CostParams(50.0, 50.0), BeliefGrid(21))
        # responses drawn from the positive side: top-bin values
        provider = MatrixResponseProvider([[0.95, 0.95]])
        result = label_alone(model, policy, provider.scores)
        assert result.label == POS_LABEL
        assert result.score == pytest.approx(full_score(model, provider, 0), abs=1e-12)
        assert sorted(result.parts_evaluated) == [0, 1]

    # a profile whose policy reorders the parts: its positives' scores are sums in another
    # order than full_score's, so they may differ from it in the last bits
    @pytest.mark.parametrize("bias", [0.0, -0.7])
    def test_positive_score_is_the_sum_in_evaluation_order(self, bias):
        spec = SyntheticSpec(n_parts=6, separation=2.0, prior_positive=0.3, n_locations=10 ** 4,
                             seed=13, informativeness_profile=(0.3, 0.5, 1.0, 0.4, 0.9, 0.7))
        model, provider, _ = make_synthetic(spec)
        model = dataclasses.replace(model, bias=bias)
        policy = train_policy(model.likelihoods, CostParams(8.0, 8.0), BeliefGrid(101))
        results, _ = run_grid(model, policy, provider)
        pos = np.flatnonzero(results.positive)
        assert (results.n_evaluated[pos] == spec.n_parts).all()
        order = results.order[pos].astype(np.int64)
        assert (np.diff(order, axis=1) < 0).any()  # some positive's order is not ascending
        total = np.zeros(pos.size)
        for j in range(spec.n_parts):  # left to right, as one float sum per location
            total += provider.scores[pos, order[:, j]]
        np.testing.assert_array_equal(results.score[pos], total + bias)
        exhaustive = [full_score(model, provider, i) for i in pos.tolist()]
        np.testing.assert_allclose(results.score[pos], exhaustive, rtol=0, atol=1e-12)

    def test_arity_mismatch(self, rng):
        model = toy_model(3)
        policy = constant_policy(2, LABEL_NEG)
        with pytest.raises(ConfigurationError, match="policy has 2 parts, model has 3"):
            label_alone(model, policy, rng.standard_normal((1, 3)))

    def test_provider_failure_is_contextualized(self):
        class Broken(MatrixResponseProvider):
            def get_response(self, location_id, part_id):
                raise OSError("disk gone")

        model = toy_model(1)
        policy = constant_policy(1, LABEL_POS)
        with pytest.raises(ProviderError, match="location 0, part 0"):
            run_grid(model, policy, Broken(np.zeros((1, 1))))


class TestRunGrid:
    @pytest.mark.parametrize("case", ["scan", "scan-deep"])
    def test_batch_only_provider_matches_matrix_provider(self, case):
        model, policy, provider = regime_inputs(case, 2000)
        batch = BatchOnlyProvider(provider.scores)
        assert run_grid(model, policy, batch) == run_grid(model, policy, provider)
        assert ([full_score(model, batch, loc) for loc in range(2000)]
                == [full_score(model, provider, loc) for loc in range(2000)])

    def test_provider_with_neither_method_is_a_provider_error(self):
        class Neither(ResponseProvider):
            n_parts, n_locations = 2, 3

        model = toy_model(2)
        with pytest.raises(ProviderError, match="location 0, part 0") as run_error:
            run_grid(model, constant_policy(2, LABEL_POS), Neither())
        with pytest.raises(ProviderError, match="location 1, part 0") as score_error:
            full_score(model, Neither(), 1)
        for error in (run_error, score_error):
            assert isinstance(error.value.__cause__, NotImplementedError)

    def test_empty_grid(self):
        model = toy_model(2)
        policy = constant_policy(2, LABEL_NEG)
        results, stats = run_grid(model, policy, MatrixResponseProvider(np.empty((0, 2))))
        assert len(results) == 0
        assert stats.n_locations == 0
        assert stats.non_root_evals == 0
        assert stats.n_positive == 0
        assert stats.mean_tau == 0.0

    def test_provider_arity_mismatch(self, rng):
        model = toy_model(3)
        policy = constant_policy(3, LABEL_NEG)
        with pytest.raises(ConfigurationError, match="4 parts, policy has 3"):
            run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((2, 4))))
        # a provider without locations asks for no part, whatever its width
        assert len(run_grid(model, policy, MatrixResponseProvider(np.empty((0, 4))))[0]) == 0

    def test_caller_array_altered_after_construction_changes_nothing(self, rng):
        # a Policy checks its own copy of the action codes, not the caller's array
        actions = np.full((8, 11), LABEL_NEG, dtype=np.uint8)
        actions[0], actions[1] = part_action(0), part_action(1)
        policy = Policy(n_parts=3, grid=BeliefGrid(11), costs=CostParams(1.0, 1.0),
                        actions=actions, values=np.zeros(11),
                        likelihoods_sha256=UNTRAINED_SHA256)
        checked = actions.copy()
        provider = MatrixResponseProvider(rng.standard_normal((3, 3)))
        before, before_stats = run_grid(toy_model(3), policy, provider)
        actions[:] = part_action(0)  # every state asks for part 0, used or not
        np.testing.assert_array_equal(policy.actions, checked)
        after, after_stats = run_grid(toy_model(3), policy, provider)
        assert after == before and after_stats == before_stats
        assert (before.tau == 2).all()  # parts 0 then 1, then background

    def test_overflowing_sum_is_infinite_without_a_warning(self):
        # pyproject turns a numpy RuntimeWarning into a test failure
        model = toy_model(3, bias=-1.0)
        scores = [[1e308, 1e308, 0.0], [-1e308, -1e308, 0.0], [math.inf, -math.inf, 0.0]]
        results, _ = run_grid(model, constant_policy(3, LABEL_POS), MatrixResponseProvider(scores))
        np.testing.assert_array_equal(results.score, [math.inf, -math.inf, math.nan])

    def test_forced_positive_count(self, rng):
        # 9 parts, always-positive policy: 8 non-root evaluations per location
        model = toy_model(9)
        policy = constant_policy(9, LABEL_POS)
        provider = MatrixResponseProvider(rng.standard_normal((100, 9)))
        _, stats = run_grid(model, policy, provider)
        assert stats.non_root_evals == 800
        assert stats.n_positive == 100
        assert stats.mean_tau == 0.0

    def test_double_entry_counting(self, rng):
        model = toy_model(4)
        policy = train_policy(model.likelihoods, CostParams(6.0, 6.0), BeliefGrid(21))
        provider = CountingProvider(rng.standard_normal((50, 4)))
        results, stats = run_grid(model, policy, provider)
        assert all(count == 1 for count in provider.requests.values())
        non_root_requests = sum(1 for (_, part) in provider.requests if part > 0)
        assert stats.non_root_evals == non_root_requests
        for r in results:
            assert len(set(r.parts_evaluated)) == len(r.parts_evaluated)
            assert r.tau <= model.n_parts

    @pytest.mark.parametrize("case", list(RECORDED_PROVIDER_CALLS_SHA256))
    def test_provider_call_sequence_matches_recorded_digest(self, case):
        model, policy, provider = regime_inputs(case)
        recording = RecordingProvider(provider.scores)
        results, _ = run_grid(model, policy, recording)
        assert results == regime_results(case)
        assert recording.digest() == RECORDED_PROVIDER_CALLS_SHA256[case]

    @pytest.mark.parametrize("case", ["scan", "scan-deep"])
    def test_provider_reads_read_only_ids(self, case):
        # the ids are frontier rows or the results' own location_id column
        writeable = []

        class FlagRecording(RecordingProvider):
            def get_responses(self, location_ids, part_id):
                writeable.append(location_ids.flags.writeable)
                return super().get_responses(location_ids, part_id)

        model, policy, provider = regime_inputs(case)
        recording = FlagRecording(provider.scores)
        results, _ = run_grid(model, policy, recording)
        assert writeable and not any(writeable)
        assert results == regime_results(case)
        assert recording.digest() == RECORDED_PROVIDER_CALLS_SHA256[case]

    def test_provider_writing_into_ids_is_a_provider_fault(self, rng):
        class Rewriting(MatrixResponseProvider):
            def get_responses(self, location_ids, part_id):
                out = self.scores[location_ids, part_id]
                location_ids[:] = 0
                return out

        model = toy_model(2)
        trained = train_policy(model.likelihoods, CostParams(6.0, 6.0), BeliefGrid(21))
        assert trained.actions[0, trained.grid.nearest_index(0.5)] == part_action(0)
        # a round-0 fetch and a completion fetch
        for policy in (trained, constant_policy(2, LABEL_POS)):
            with pytest.raises(ProviderError, match="failed at part 0 for 5 locations"):
                run_grid(model, policy, Rewriting(rng.standard_normal((5, 2))))

    def test_label_start_action_fetches_only_completions(self, rng):
        # every location starts in one state: a label there stops all of them at tau 0
        model = toy_model(3, bias=0.25)
        scores = rng.standard_normal((5, 3))
        neg = RecordingProvider(scores)
        results, _ = run_grid(model, constant_policy(3, LABEL_NEG), neg)
        assert neg.calls == []
        np.testing.assert_array_equal(results.tau, 0)
        pos = RecordingProvider(scores)
        results, _ = run_grid(model, constant_policy(3, LABEL_POS), pos)
        assert pos.calls == [(k, np.arange(5).tobytes()) for k in range(3)]
        np.testing.assert_array_equal(results.tau, 0)
        np.testing.assert_array_equal(results.order, [[0, 1, 2]] * 5)

    def test_non_root_start_part_is_fetched_first_over_every_location(self, rng):
        model = toy_model(4)
        trained = train_policy(model.likelihoods, CostParams(6.0, 6.0), BeliefGrid(21))
        actions = trained.actions.copy()
        actions[0] = part_action(2)  # the start state, at every belief, asks for part 2
        policy = dataclasses.replace(trained, actions=actions)
        scores = rng.standard_normal((60, 4))
        recording = RecordingProvider(scores)
        results, _ = run_grid(model, policy, recording)
        assert recording.calls[0] == (2, np.arange(60).tobytes())
        assert (results.order[:, 0] == 2).all() and (results.tau > 1).any()
        for r, row in zip(results, scores):
            used = r.parts_evaluated[:r.tau]
            trace = step_trace(policy, model.likelihoods, [row[k] for k in used])
            label = LABEL_POS if r.label == POS_LABEL else LABEL_NEG
            assert [a for a, _ in trace] == [part_action(k) for k in used] + [label], r
            assert r.final_belief == trace[-1][1], r

    @pytest.mark.parametrize("second", [LABEL_NEG, LABEL_POS, part_action(0)])
    def test_first_decision_row_labelling_or_continuing_at_every_bin(self, rng, second):
        # the start asks for part 2; the mask-{2} row takes one action at every bin
        actions = np.full((8, 11), LABEL_NEG, dtype=np.uint8)
        actions[0], actions[4] = part_action(2), second
        policy = Policy(n_parts=3, grid=BeliefGrid(11), costs=CostParams(1.0, 1.0),
                        actions=actions, values=np.zeros(11),
                        likelihoods_sha256=UNTRAINED_SHA256)
        ids = np.arange(20).tobytes()
        recording = RecordingProvider(rng.standard_normal((20, 3)))
        results, stats = run_grid(toy_model(3), policy, recording)
        if second == LABEL_NEG:
            assert recording.calls == [(2, ids)]
            np.testing.assert_array_equal(results.order, [[2, 0, 0]] * 20)
        elif second == LABEL_POS:  # the completions follow, in part order
            assert recording.calls == [(2, ids), (0, ids), (1, ids)]
            np.testing.assert_array_equal(results.order, [[2, 0, 1]] * 20)
        else:  # every location is sent on to part 0, then stops at the mask-{0, 2} label
            assert recording.calls == [(2, ids), (0, ids)]
            np.testing.assert_array_equal(results.order, [[2, 0, 0]] * 20)
        np.testing.assert_array_equal(results.positive, second == LABEL_POS)
        np.testing.assert_array_equal(results.tau, 2 if second == part_action(0) else 1)
        assert stats.mean_tau == results.tau.mean()

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("case", ["scan", "scan-deep"])
    def test_one_and_two_location_passes_under_a_part_start(self, case, size):
        # a pass over a window of one or two rows reproduces those rows of the full pass
        model, policy, provider = regime_inputs(case)
        assert policy.actions[0, policy.start] >= part_action(0)
        full = regime_results(case)
        # scan's rows mostly stop at the first decision, scan-deep's go on and complete
        assert (full.tau[:60] == 1).any() if case == "scan" else full.positive[:60].any()
        for i in range(0, 60, size):
            window, _ = run_grid(model, policy, MatrixResponseProvider(provider.scores[i:i + size]))
            np.testing.assert_array_equal(window.location_id, np.arange(size))
            for name in ("positive", "score", "tau", "n_evaluated", "order", "final_belief",
                         "partial_score"):
                np.testing.assert_array_equal(getattr(window, name),
                                              getattr(full, name)[i:i + size],
                                              err_msg=f"location {i}, {name}")

    @pytest.mark.parametrize("case", [*REGIMES, "part-2-start", "label-start", "empty"])
    def test_stats_equal_the_values_recomputed_from_the_columns(self, case):
        model, policy, provider = regime_inputs(case if case in REGIMES else "scan-deep")
        if case == "part-2-start":  # part 0 is then evaluated in the rounds and completions
            actions = policy.actions.copy()
            actions[0] = part_action(2)
            policy = dataclasses.replace(policy, actions=actions)
        if case == "label-start":
            policy = constant_policy(9, LABEL_POS, d=101)
        if case == "empty":
            provider = MatrixResponseProvider(np.empty((0, 9)))
        results, stats = run_grid(model, policy, provider)
        evaluated = np.arange(results.order.shape[1]) < results.n_evaluated[:, None]
        uses_root = ((results.order == 0) & evaluated).any(axis=1)
        assert stats == InferenceStats(
            n_locations=len(results),
            non_root_evals=int(results.n_evaluated.sum() - uses_root.sum()),
            n_positive=int(results.positive.sum()),
            mean_tau=float(results.tau.mean()) if len(results) else 0.0)

    def test_empty_pass_under_a_part_start_action_makes_no_call(self):
        actions = np.full((4, 11), LABEL_NEG, dtype=np.uint8)
        actions[0] = part_action(1)
        policy = Policy(n_parts=2, grid=BeliefGrid(11), costs=CostParams(1.0, 1.0),
                        actions=actions, values=np.zeros(11),
                        likelihoods_sha256=UNTRAINED_SHA256)
        recording = RecordingProvider(np.empty((0, 2)))
        results, stats = run_grid(toy_model(2), policy, recording)
        assert recording.calls == []
        assert len(results) == 0 and stats.n_locations == 0

    @pytest.mark.parametrize("provider_type", [MatrixResponseProvider, CountingProvider])
    def test_nan_response_is_a_provider_error(self, rng, provider_type):
        # the gather fast path and the per-id override path both refuse NaN
        model = toy_model(3)
        policy = constant_policy(3, LABEL_POS)
        scores = rng.standard_normal((5, 3))
        scores[3, 1] = np.nan
        with pytest.raises(ProviderError, match="location 3, part 1"):
            run_grid(model, policy, provider_type(scores))

    def test_deterministic(self, rng):
        model = toy_model(3)
        policy = train_policy(model.likelihoods, CostParams(7.0, 3.0), BeliefGrid(31))
        scores = rng.standard_normal((40, 3))
        a, stats_a = run_grid(model, policy, MatrixResponseProvider(scores))
        b, stats_b = run_grid(model, policy, MatrixResponseProvider(scores))
        assert a == b
        assert stats_a == stats_b


@pytest.mark.parametrize("case", ENGINE_TRACE_CASES)
def test_engine_walks_the_training_chain(case):
    # walk training's successor table from bin(0.5) along each location's parts
    model, policy, scores = engine_trace_case(case)
    results, _ = run_grid(model, policy, MatrixResponseProvider(scores))
    grid = policy.grid
    successors = [_score_bin_transitions(lik, grid)[1] for lik in model.likelihoods]
    for r, row in zip(results, scores):
        i = grid.nearest_index(0.5)
        for k in r.parts_evaluated[:r.tau]:
            i = successors[k][i, model.likelihoods[k].pos.bin_index(row[k])]
        assert r.final_belief == grid.centers[i], (case, r.location_id)


@pytest.mark.parametrize("case", ["scan", "scan-deep"])
def test_infinite_responses_walk_like_responses_past_the_support(case):
    # ±inf responses are kept: they take the edge score bins, as finite responses past hi/lo do
    model, policy, _ = engine_trace_case(case)
    _, provider = scan_synthetic(case)
    scores = provider.scores[:600]
    side = np.random.default_rng(7).integers(-1, 2, size=scores.shape)  # -1 low, +1 high, 0 kept
    side[:100], side[100:200] = 1, -1  # whole rows past one edge
    lo = np.array([lik.pos.lo for lik in model.likelihoods])
    hi = np.array([lik.pos.hi for lik in model.likelihoods])
    infinite = np.where(side == 1, math.inf, np.where(side == -1, -math.inf, scores))
    finite = np.where(side == 1, hi + 1.0, np.where(side == -1, lo - 1.0, scores))
    a, _ = run_grid(model, policy, MatrixResponseProvider(infinite))
    b, _ = run_grid(model, policy, MatrixResponseProvider(finite))
    for name in ("positive", "tau", "n_evaluated", "order", "final_belief"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    # the chains did read infinite responses before they stopped
    read = np.arange(a.order.shape[1]) < a.tau[:, None]
    assert (side[np.arange(len(a))[:, None], a.order] != 0)[read].sum() > 100


class TestSuccessorTables:
    @staticmethod
    def fresh_model(case="scan-deep"):
        model, _ = scan_synthetic(case)
        return DetectorModel(bias=model.bias, likelihoods=model.likelihoods, costs=model.costs)

    @pytest.mark.parametrize("d", [11, 101, 201])
    def test_tables_are_training_and_oracle_successors(self, d):
        model, grid = self.fresh_model(), BeliefGrid(d)
        table = model._successors(grid)
        assert table.shape == (9, d, model.likelihoods[0].pos.n_bins)
        assert table.dtype == np.uint8
        for k, lik in enumerate(model.likelihoods):
            np.testing.assert_array_equal(table[k], _score_bin_transitions(lik, grid)[1])
        np.testing.assert_array_equal(table, _chain_tables(model.likelihoods, grid)[1])

    @pytest.mark.parametrize("d", [11, 101, 201])
    def test_tables_are_read_only(self, d):
        table = self.fresh_model()._successors(BeliefGrid(d))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0

    @pytest.mark.parametrize("d", [11, 101, 201])
    def test_built_once_per_model_and_grid_size(self, d, monkeypatch):
        built = []

        def counting(lik, grid):
            built.append(grid.d)
            return _score_bin_transitions(lik, grid)

        monkeypatch.setattr(inference, "_score_bin_transitions", counting)
        model = self.fresh_model()
        table = model._successors(BeliefGrid(d))
        assert built == [d] * 9
        assert model._successors(BeliefGrid(d)) is table
        assert built == [d] * 9
        assert self.fresh_model()._successors(BeliefGrid(d)) is not table

    @pytest.mark.parametrize("d, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_smallest_unsigned_dtype_holding_the_last_bin(self, d, dtype):
        assert toy_model(2)._successors(BeliefGrid(d)).dtype == dtype

    def test_one_model_under_two_grids_matches_fresh_models(self):
        model, provider = scan_synthetic("scan-deep")
        policies = [train_policy(model.likelihoods, model.costs, BeliefGrid(d)) for d in (31, 101)]
        shared = self.fresh_model()
        for policy in policies + policies[::-1]:
            assert run_grid(shared, policy, provider) == run_grid(self.fresh_model(), policy,
                                                                  provider)
        assert sorted(shared._successor_tables) == [31, 101]


@pytest.mark.parametrize("build", [
    lambda liks: DetectorModel(bias=0.0, likelihoods=liks, costs=CostParams(4.0, 4.0)),
    lambda liks: train_policy(liks, CostParams(4.0, 4.0), BeliefGrid(5)),
], ids=["model", "train_policy"])
@pytest.mark.parametrize("liks", [
    (),
    (separable_likelihood(1),),
    (separable_likelihood(1), separable_likelihood(0)),
    (separable_likelihood(0, n_bins=4), separable_likelihood(1, n_bins=8)),
], ids=["no-parts", "ids-1", "ids-1-0", "bins-4-8"])
def test_malformed_part_set_rejected(build, liks):
    with pytest.raises(ConfigurationError, match="part"):
        build(liks)


class TestDetectionResults:
    @pytest.mark.parametrize("case", ["scan", "scan-deep"])
    def test_arrays_match_iteration_and_run_location(self, case):
        """Every column equals the iterated rows, and each row equals a
        pass over that location alone (what ``run_location`` returned
        before it was deleted; the test keeps its original id)."""
        model, policy, scores = engine_trace_case(case)
        results, _ = run_grid(model, policy, MatrixResponseProvider(scores))
        assert isinstance(results, DetectionResults)
        assert len(results) == scores.shape[0]
        for i, r in enumerate(results):
            assert_labelled_alone_alike(model, policy, scores, results, i, case)
            assert results[i] == r, (case, i)
            assert results.location_id[i] == r.location_id == i
            assert results.positive[i] == (r.label == POS_LABEL)
            assert results.score[i] == r.score
            assert results.tau[i] == r.tau
            assert results.n_evaluated[i] == len(r.parts_evaluated)
            assert tuple(results.order[i, :results.n_evaluated[i]]) == r.parts_evaluated
            assert not results.order[i, results.n_evaluated[i]:].any()
            assert results.final_belief[i] == r.final_belief
            assert results.partial_score[i] == r.partial_score

    def test_indexing_builds_one_row(self, rng):
        model = toy_model(3)
        policy = train_policy(model.likelihoods, CostParams(7.0, 3.0), BeliefGrid(31))
        results, _ = run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((12, 3))))
        as_list = list(results)
        for i in (0, 5, 11, -1, -12, np.int64(3), np.int64(-2), np.uint8(7)):
            row = results[i]
            assert row == as_list[i]
            assert [type(v) for v in (row.location_id, row.score, row.tau, row.final_belief)] \
                == [int, float, int, float]
        for i in (12, -13, np.int64(12)):
            with pytest.raises(IndexError):
                results[i]
        # a slice is not a row index; neither is a float or an array
        for index in (slice(2, 5), slice(None), 1.0, np.array([1, 2])):
            with pytest.raises(TypeError):
                results[index]

    def test_indexing_validates_no_one_row_results(self, rng, monkeypatch):
        model = toy_model(3)
        policy = train_policy(model.likelihoods, CostParams(7.0, 3.0), BeliefGrid(31))
        results, _ = run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((12, 3))))
        monkeypatch.setattr(DetectionResults, "__post_init__", lambda self: pytest.fail("built"))
        assert results[4] == list(results)[4]

    def test_arrays_are_read_only(self, rng):
        model = toy_model(3)
        policy = constant_policy(3, LABEL_POS)
        results, _ = run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((4, 3))))
        for name in ("location_id", "positive", "score", "tau", "n_evaluated", "order",
                     "final_belief", "partial_score"):
            arr = getattr(results, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_run_grid_builds_no_per_location_objects(self, rng, monkeypatch):
        built = []

        def counting_result(*args, **kwargs):
            built.append(args)
            return DetectionResult(*args, **kwargs)

        monkeypatch.setattr(inference, "DetectionResult", counting_result)
        model = toy_model(4)
        policy = train_policy(model.likelihoods, CostParams(6.0, 6.0), BeliefGrid(21))
        results, _ = run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((50, 4))))
        assert len(built) == 0
        assert len(list(results)) == len(built) == len(results)


class TestFullScore:
    def test_zero_responses_leave_bias(self):
        model = toy_model(3, bias=-1.0)
        assert full_score(model, MatrixResponseProvider(np.zeros((1, 3))), 0) == -1.0

    def test_plain_arithmetic(self):
        model = toy_model(3, bias=0.25)
        provider = MatrixResponseProvider([[2.0, -1.0, 0.5]])
        assert full_score(model, provider, 0) == full_score(model, provider, np.int64(0)) == 1.75

    @pytest.mark.parametrize("location_id", [-1, 2, 10])
    def test_id_outside_the_provider_is_rejected(self, location_id):
        provider = MatrixResponseProvider([[2.0, -1.0, 0.5], [0.0, 0.0, 0.0]])
        with pytest.raises(InvalidParameterError, match=f"location {location_id} outside 0..1"):
            full_score(toy_model(3), provider, location_id)

    @pytest.mark.parametrize("location_id", [0.5, True, "0", None])
    def test_id_that_is_not_an_integer_is_rejected(self, location_id):
        # the caller's id is at fault, not the provider
        provider = MatrixResponseProvider([[2.0, -1.0, 0.5], [0.0, 0.0, 0.0]])
        with pytest.raises(InvalidParameterError,
                           match=f"location id must be an integer, got {location_id!r}"):
            full_score(toy_model(3), provider, location_id)

    def test_nan_response_is_a_provider_fault(self):
        provider = MatrixResponseProvider([[2.0, -1.0, 0.5], [1.0, math.nan, 0.0]])
        with pytest.raises(ProviderError, match="NaN at location 1, part 1"):
            full_score(toy_model(3), provider, 1)
        assert full_score(toy_model(3), provider, 0) == 1.5


class TestResponseFiles:
    def test_csv_round_trip(self, tmp_path, rng):
        scores = rng.standard_normal((6, 3))
        path = tmp_path / "responses.csv"
        save_responses_csv(scores, path)
        provider = load_responses_csv(path)
        np.testing.assert_array_equal(provider.scores, scores)
        again = tmp_path / "again.csv"
        save_responses_csv(provider.scores, again)
        assert again.read_bytes() == path.read_bytes()

    def test_csv_requires_dense(self, tmp_path):
        path = tmp_path / "responses.csv"
        path.write_text("location_id,part_id,score\n0,0,1.0\n1,1,2.0\n")
        with pytest.raises(FormatError):
            load_responses_csv(path)

    def test_csv_load_memory_stays_near_file_size(self, tmp_path, rng):
        path = tmp_path / "responses.csv"
        save_responses_csv(rng.standard_normal((4000, 12)), path)
        assert path.stat().st_size >= 2 ** 20
        load_responses_csv(path)  # a first call may import numpy submodules
        tracemalloc.start()
        try:
            load_responses_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size  # text plus parsed copies: 10x before

    def test_csv_write_memory_stays_below_file_size(self, tmp_path, rng):
        path = tmp_path / "responses.csv"
        scores = rng.standard_normal((12000, 12))
        save_responses_csv(scores, path)  # a first call may import what it needs
        tracemalloc.start()
        try:
            save_responses_csv(scores, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size >= 3 * 2 ** 20
        assert peak < path.stat().st_size / 2  # one block of rows at a time: 5x before
        rows = [f"{loc},{k},{v!r}\n" for loc, row in enumerate(scores.tolist())
                for k, v in enumerate(row)]
        assert path.read_text() == "location_id,part_id,score\n" + "".join(rows)

    def test_bin_round_trip(self, tmp_path, rng):
        scores = rng.standard_normal((5, 4))
        path = tmp_path / "responses.bin"
        save_responses_bin(scores, path)
        provider = load_responses_bin(path)
        np.testing.assert_array_equal(provider.scores, scores)
        again = tmp_path / "again.bin"
        save_responses_bin(provider.scores, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("save, load, name", [
        (save_responses_csv, load_responses_csv, "responses.csv"),
        (save_responses_bin, load_responses_bin, "responses.bin"),
    ])
    def test_nan_response_rejected_at_load(self, tmp_path, rng, save, load, name):
        scores = rng.standard_normal((4, 3))
        scores[2, 1] = np.nan
        scores[3, 0] = np.nan
        scores[0, 2] = np.inf  # infinite responses are accepted
        save(scores, tmp_path / name)
        with pytest.raises(FormatError, match="location 2, part 1"):
            load(tmp_path / name)

    def test_bin_save_writes_scores_from_their_buffer(self, tmp_path, rng):
        scores = rng.standard_normal((10 ** 5, 9))
        path = tmp_path / "responses.bin"
        tracemalloc.start()
        try:
            save_responses_bin(scores, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the scores take 7.2 MB; header plus one blob of them, 14.4 MB
        assert path.read_bytes() == b"100000,9\n" + scores.astype("<f8").tobytes()

    def test_bin_size_mismatch(self, tmp_path):
        path = tmp_path / "responses.bin"
        path.write_bytes(b"2,2\n" + b"\x00" * 17)
        with pytest.raises(FormatError):
            load_responses_bin(path)


class TestResultsFiles:
    def test_round_trip_bytes(self, tmp_path, rng):
        model = toy_model(3)
        policy = train_policy(model.likelihoods, CostParams(8.0, 2.0), BeliefGrid(21))
        provider = MatrixResponseProvider(rng.standard_normal((25, 3)))
        results, _ = run_grid(model, policy, provider)
        first = tmp_path / "r1.csv"
        second = tmp_path / "r2.csv"
        save_results_csv(results, first)
        save_results_csv(load_results_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_negative_scores_serialize_as_inf_literal(self, tmp_path):
        model = toy_model(2)
        policy = constant_policy(2, LABEL_NEG)
        results, _ = run_grid(model, policy, MatrixResponseProvider(np.zeros((1, 2))))
        path = tmp_path / "r.csv"
        save_results_csv(results, path)
        assert path.read_text().splitlines()[1] == "0,neg,-inf,0,"
        loaded = load_results_csv(path)
        assert loaded[0].score == -math.inf
        assert loaded[0].parts_evaluated == ()

    def test_load_returns_detection_results(self, tmp_path, rng):
        model = toy_model(3, bias=0.5)
        policy = train_policy(model.likelihoods, CostParams(8.0, 2.0), BeliefGrid(21))
        results, _ = run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((25, 3))))
        path = tmp_path / "r.csv"
        save_results_csv(results, path)
        loaded = load_results_csv(path)
        assert isinstance(loaded, DetectionResults)
        for name in ("location_id", "positive", "score", "tau", "n_evaluated"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(results, name))
        assert [r.parts_evaluated for r in loaded] == [r.parts_evaluated for r in results]
        assert np.isnan(loaded.final_belief).all() and np.isnan(loaded.partial_score).all()
        assert loaded == load_results_csv(path)

    @pytest.mark.parametrize("case", list(RECORDED_RESULTS_CSV_SHA256))
    def test_bytes_match_recorded_digests(self, tmp_path, case):
        results = FIXED_RESULTS[case] if case in FIXED_RESULTS else regime_results(case)
        path = tmp_path / "r.csv"
        save_results_csv(results, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDED_RESULTS_CSV_SHA256[case]
        if case not in FIXED_RESULTS:  # theirs are NaN already: the reader returns NaN diagnostics
            absent = np.full(len(results), math.nan)
            results = dataclasses.replace(results, final_belief=absent, partial_score=absent)
        assert load_results_csv(path) == results  # engine files keep the reader's row rules

    def test_valid_file_decodes_each_order_once(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        save_results_csv(regime_results("scan-deep"), path)
        decode, calls = inference._order_bytes, []
        monkeypatch.setattr(inference, "_order_bytes",
                            lambda records: calls.append(records.size) or decode(records))
        load_results_csv(path)
        assert calls == [10_000]

    def test_writer_memory_stays_near_its_columns(self, tmp_path):
        # the five tolist() columns take about 2 MB; holding every row's text at once, 6.7 MB
        results = regime_results("scan-deep", 20_000)
        tracemalloc.start()
        try:
            save_results_csv(results, tmp_path / "r.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_writer_blocks_match_per_row_reference(self, tmp_path, offset):
        n = inference._BLOCK_ROWS + offset
        results = regime_results("scan-deep", n)
        # backgrounds no engine writes format their scores, and a positive may score anything
        neg, pos = np.flatnonzero(~results.positive), np.flatnonzero(results.positive)
        score = results.score.copy()
        score[[neg[0], neg[-1], pos[0], pos[-1]]] = [1.5, math.nan, -0.0, math.inf]
        results = dataclasses.replace(results, score=score)
        path = tmp_path / "r.csv"
        save_results_csv(results, path)
        assert path.read_text() == per_row_results_csv(results)

    @pytest.mark.parametrize("row, defect", [
        ("-5,neg,-inf,0,", "negative location_id"),
        ("0,neg,-inf,-3,", "negative tau"),
        ("0,pos,1.5,0,0;0;1", "part repeated in parts_order '0;0;1'"),
        ("0,neg,-inf,2,0", "fewer parts than tau 2"),
        ("0,pos,1.5,3,0;1", "fewer parts than tau 3"),
        ("0,neg,-inf,-3,\n-5,pos,1.5,0,0;0;1", "negative tau"),  # the first bad line is named
        # a field over the csv module's size limit
        ("0,pos,1.5,0," + "1;" * 70_000, "part repeated in parts_order '1;1;1;"),
        ("0,neg,-inf,9,1" + " " * 140_000, "fewer parts than tau 9"),
        ("0,neg,1.5,0,", "background score '1.5' is not -inf"),
        ("0,neg,nan,0,", "background score 'nan' is not -inf"),
        ("1,neg,-inf,0,", "repeated location_id"),
    ], ids=["negative-id", "negative-tau", "repeated-part", "short-neg", "short-pos", "two-bad",
            "huge-repeated", "huge-short", "finite-neg-score", "nan-neg-score", "repeated-id"])
    def test_row_no_engine_writes_is_a_format_error_naming_its_line(self, tmp_path, row, defect):
        path = tmp_path / "r.csv"
        path.write_text(f"location_id,label,score,tau,parts_order\n1,pos,2.5,1,2;0;1\n{row}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: {defect}")):
            load_results_csv(path)

    @pytest.mark.parametrize("row", ["0,maybe,-inf,0,", "0,pos,1.5,1,0;256",
                                     "0,pos,1.5,1,0;-1", "99999999999999999999,neg,-inf,0,"])
    def test_bad_row_is_a_format_error_naming_its_line(self, tmp_path, row):
        path = tmp_path / "r.csv"
        path.write_text(f"location_id,label,score,tau,parts_order\n1,neg,-inf,0,\n{row}\n")
        with pytest.raises(FormatError, match=":3: bad row"):
            load_results_csv(path)
