import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from partsched import (
    ArityMismatchError,
    BeliefGrid,
    ConfigurationError,
    CostParams,
    DetectionResult,
    DetectionResults,
    DetectorModel,
    FormatError,
    InvalidActionError,
    MatrixResponseProvider,
    Policy,
    ProviderError,
    SyntheticSpec,
    full_score,
    load_responses_bin,
    load_responses_csv,
    load_results_csv,
    make_synthetic,
    run_grid,
    run_location,
    save_responses_bin,
    save_responses_csv,
    save_results_csv,
    train_policy,
)
from partsched import inference
from partsched.inference import NEG_LABEL, POS_LABEL
from partsched.policy import LABEL_NEG, LABEL_POS, _score_bin_transitions, part_action

from conftest import (ENGINE_TRACE_CASES, SCAN_REGIMES, constant_policy, engine_trace_case,
                      separable_likelihood)

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
REGIMES = {**SCAN_REGIMES, "n12": (2.0, 0.3, CostParams(20.0, 5.0))}


@functools.lru_cache(maxsize=None)
def regime_results(case, n_locations=10_000):
    """run_grid's results on one synthetic image of REGIMES[case]: 12 parts for "n12", else 9."""
    separation, prior, costs = REGIMES[case]
    spec = SyntheticSpec(n_parts=12 if case == "n12" else 9, separation=separation,
                         prior_positive=prior, n_locations=n_locations, seed=1404)
    model, provider, _ = make_synthetic(spec, costs)
    policy = train_policy(model.likelihoods, costs, BeliefGrid(101))
    return run_grid(model, policy, provider)[0]


class CountingProvider(MatrixResponseProvider):
    """Provider that keeps its own per-(location, part) request ledger."""

    def __init__(self, scores):
        super().__init__(scores)
        self.requests: dict[tuple[int, int], int] = {}

    def get_response(self, location_id, part_id):
        key = (location_id, part_id)
        self.requests[key] = self.requests.get(key, 0) + 1
        return super().get_response(location_id, part_id)


def toy_model(n_parts, bias=0.0):
    liks = tuple(separable_likelihood(k) for k in range(n_parts))
    return DetectorModel(bias=bias, likelihoods=liks, costs=CostParams(4.0, 4.0))


class TestRunLocation:
    def test_immediate_negative(self, rng):
        model = toy_model(3)
        policy = constant_policy(3, LABEL_NEG)
        provider = MatrixResponseProvider(rng.standard_normal((2, 3)))
        result = run_location(model, policy, provider, 1)
        assert result.label == NEG_LABEL
        assert result.tau == 0
        assert result.parts_evaluated == ()
        assert result.score == -math.inf
        assert result.partial_score == 0.0
        assert result.final_belief == 0.5
        # an even grid has no center at 0.5: the start is the lower nearest one
        even = constant_policy(3, LABEL_NEG, d=10)
        assert run_location(model, even, provider, 1).final_belief == even.grid.centers[4]

    def test_immediate_positive_evaluates_everything(self, rng):
        model = toy_model(3, bias=-0.75)
        policy = constant_policy(3, LABEL_POS)
        scores = rng.standard_normal((1, 3))
        provider = MatrixResponseProvider(scores)
        result = run_location(model, policy, provider, 0)
        assert result.label == POS_LABEL
        assert result.tau == 0
        assert result.parts_evaluated == (0, 1, 2)
        assert result.score == scores[0].sum() + -0.75

    def test_positive_score_equals_full_score(self):
        model = toy_model(2, bias=0.3)
        policy = train_policy(model.likelihoods, CostParams(50.0, 50.0), BeliefGrid(21))
        # responses drawn from the positive side: top-bin values
        provider = MatrixResponseProvider([[0.95, 0.95]])
        result = run_location(model, policy, provider, 0)
        assert result.label == POS_LABEL
        assert result.score == pytest.approx(full_score(model, provider, 0), abs=1e-12)
        assert sorted(result.parts_evaluated) == [0, 1]

    def test_arity_mismatch(self, rng):
        model = toy_model(3)
        policy = constant_policy(2, LABEL_NEG)
        provider = MatrixResponseProvider(rng.standard_normal((1, 3)))
        with pytest.raises(ArityMismatchError):
            run_location(model, policy, provider, 0)

    def test_provider_failure_is_contextualized(self):
        class Broken(MatrixResponseProvider):
            def get_response(self, location_id, part_id):
                raise OSError("disk gone")

        model = toy_model(1)
        policy = constant_policy(1, LABEL_POS)
        with pytest.raises(ProviderError, match="location 0, part 0"):
            run_location(model, policy, Broken(np.zeros((1, 1))), 0)


class TestRunGrid:
    def test_empty_grid(self):
        model = toy_model(2)
        policy = constant_policy(2, LABEL_NEG)
        results, stats = run_grid(model, policy, MatrixResponseProvider(np.empty((0, 2))))
        assert results == []
        assert stats.n_locations == 0
        assert stats.non_root_evals == 0
        assert stats.n_positive == 0
        assert stats.mean_tau == 0.0

    def test_provider_arity_mismatch(self, rng):
        model = toy_model(3)
        policy = constant_policy(3, LABEL_NEG)
        with pytest.raises(ArityMismatchError, match="4 parts, policy has 3"):
            run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((2, 4))))
        # a provider without locations asks for no part, whatever its width
        assert run_grid(model, policy, MatrixResponseProvider(np.empty((0, 4))))[0] == []

    def test_table_altered_after_construction_stops(self, rng):
        # a Policy checks its tables once and keeps views of the caller's arrays
        actions = np.full((4, 11), LABEL_NEG, dtype=np.uint8)
        policy = Policy(n_parts=2, grid=BeliefGrid(11), costs=CostParams(1.0, 1.0),
                        actions=actions, values=np.zeros((4, 11)))
        actions[:] = part_action(0)  # every state asks for part 0, used or not
        with pytest.raises(InvalidActionError, match="already-used part 0"):
            run_grid(toy_model(2), policy, MatrixResponseProvider(rng.standard_normal((3, 2))))

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
        model, policy, scores = engine_trace_case(case)
        provider = MatrixResponseProvider(scores)
        results, _ = run_grid(model, policy, provider)
        assert isinstance(results, DetectionResults)
        assert len(results) == scores.shape[0]
        for i, r in enumerate(results):
            single = run_location(model, policy, provider, i)
            for each in (r, single):
                assert each == r, (case, i)
                assert results.location_id[i] == each.location_id == i
                assert results.positive[i] == (each.label == POS_LABEL)
                assert results.score[i] == each.score
                assert results.tau[i] == each.tau
                assert results.n_evaluated[i] == len(each.parts_evaluated)
                assert tuple(results.order[i, :results.n_evaluated[i]]) == each.parts_evaluated
                assert not results.order[i, results.n_evaluated[i]:].any()
                assert results.final_belief[i] == each.final_belief
                assert results.partial_score[i] == each.partial_score

    def test_indexing_and_slicing_behave_as_a_list(self, rng):
        model = toy_model(3)
        policy = train_policy(model.likelihoods, CostParams(7.0, 3.0), BeliefGrid(31))
        results, _ = run_grid(model, policy, MatrixResponseProvider(rng.standard_normal((12, 3))))
        as_list = list(results)
        assert results == as_list and as_list == results
        for i in (0, 5, 11, -1, -12, np.int64(3)):
            assert results[i] == as_list[i]
        for rows in (slice(2, 5), slice(None, None, -3), slice(-4, None), slice(9, 2), slice(None)):
            part = results[rows]
            assert type(part) is list
            assert part == as_list[rows]
        for i in (12, -13):
            with pytest.raises(IndexError):
                results[i]
            with pytest.raises(IndexError):
                as_list[i]

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
        assert full_score(model, provider, 0) == 1.75


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
        if case in FIXED_RESULTS:  # their diagnostics are NaN, as the reader returns them
            assert load_results_csv(path) == results

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

    @pytest.mark.parametrize("row", ["0,maybe,-inf,0,", "0,pos,1.5,1,0;256",
                                     "0,pos,1.5,1,0;-1", "99999999999999999999,neg,-inf,0,"])
    def test_bad_row_is_a_format_error_naming_its_line(self, tmp_path, row):
        path = tmp_path / "r.csv"
        path.write_text(f"location_id,label,score,tau,parts_order\n1,neg,-inf,0,\n{row}\n")
        with pytest.raises(FormatError, match=":3: bad row"):
            load_results_csv(path)
