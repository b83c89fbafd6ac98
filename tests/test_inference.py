import math

import numpy as np
import pytest

from partsched import (
    ArityMismatchError,
    BeliefGrid,
    CostParams,
    DetectorModel,
    FormatError,
    MatrixResponseProvider,
    ProviderError,
    full_score,
    load_responses_bin,
    load_responses_csv,
    load_results_csv,
    run_grid,
    run_location,
    save_responses_bin,
    save_responses_csv,
    save_results_csv,
    train_policy,
)
from partsched.inference import NEG_LABEL, POS_LABEL
from partsched.policy import LABEL_NEG, LABEL_POS

from conftest import constant_policy, separable_likelihood


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
