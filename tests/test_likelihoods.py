import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsched import (
    DiscretePdf,
    InsufficientDataError,
    InvalidRangeError,
    ScoreSampleSet,
    discretize,
    fit_kde,
    fit_part_likelihood,
    load_likelihoods,
    read_sample_sets,
    save_likelihoods,
)
from partsched import likelihoods
from partsched.likelihoods import PDF_FLOOR, silverman_bandwidth

GAUSS_PEAK = 1.0 / math.sqrt(2.0 * math.pi)


def gauss_bin_mass(lo, hi):
    """Exact unit-Gaussian mass on [lo, hi] via the error function."""
    def phi(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return phi(hi) - phi(lo)


class TestFitKde:
    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_kde([0.0])
        with pytest.raises(InsufficientDataError):
            fit_kde([0.0], bandwidth=0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_kde([0.0, math.nan])
        with pytest.raises(ValueError):
            fit_kde([0.0, math.inf])

    def test_zero_spread_needs_explicit_bandwidth(self):
        with pytest.raises(InsufficientDataError):
            fit_kde([1.0, 1.0])
        assert fit_kde([1.0, 1.0], bandwidth=0.3)(1.0) > 0.0

    def test_symmetric_samples_give_symmetric_density(self):
        density = fit_kde([-1.0, 1.0], bandwidth=0.5)
        for x in np.linspace(0.0, 3.0, 13):
            assert density(-x) == pytest.approx(density(x), abs=1e-12)

    def test_default_bandwidth_is_rule_of_thumb(self):
        samples = np.array([0.0, 1.0, 2.0, 5.0])
        assert fit_kde(samples).bandwidth == silverman_bandwidth(samples)

    def test_standard_normal_draw_matches_peak(self, rng):
        samples = rng.standard_normal(1000)
        assert fit_kde(samples)(0.0) == pytest.approx(GAUSS_PEAK, abs=0.05)

    def test_equals_the_expression_it_evaluates_in_place(self, rng):
        density = fit_kde(rng.standard_normal(300) * 3.0)
        for x in (0.25, rng.uniform(-20.0, 20.0, 201), rng.uniform(-1e3, 1e3, (3, 7))):
            assert np.array_equal(density(x), kde_expression(density, x))

    def test_integrates_to_one(self, rng):
        density = fit_kde(rng.standard_normal(50))
        xs = np.linspace(-8, 8, 4001)
        assert np.trapezoid(density(xs), xs) == pytest.approx(1.0, abs=1e-6)


def kde_expression(density, x):
    """The KDE as one whole-matrix expression: the reference for its blocked evaluation."""
    z = (np.asarray(x, dtype=float)[..., None] - density.samples) / density.bandwidth
    norm = density.samples.size * density.bandwidth * math.sqrt(2.0 * math.pi)
    return np.exp(-0.5 * z * z).sum(axis=-1) / norm


class TestKdeBlocks:
    """GaussianKde walks its points in blocks; every output bit matches kde_expression."""

    def test_ragged_last_block(self, rng):
        density = fit_kde(rng.standard_normal(300))  # 109 points per block
        rows = likelihoods._BLOCK_ELEMENTS // 300
        x = rng.uniform(-5.0, 5.0, 2 * rows + 32)
        assert np.array_equal(density(x), kde_expression(density, x))

    def test_more_samples_than_one_block(self, rng):
        density = fit_kde(rng.standard_normal(likelihoods._BLOCK_ELEMENTS + 777))  # one point per block
        x = rng.uniform(-5.0, 5.0, 5)
        assert np.array_equal(density(x), kde_expression(density, x))

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (1, 1), (7, 41)])
    def test_shapes(self, rng, shape):
        density = fit_kde(rng.standard_normal(500))
        x = rng.uniform(-5.0, 5.0, shape)
        got = density(x)
        if shape == ():
            assert type(got) is float
        else:
            assert got.shape == shape
        assert np.array_equal(got, kde_expression(density, x))

    @pytest.mark.parametrize("block", [1, 2000, 2 ** 15, 2 ** 22])
    def test_block_size_changes_no_bit(self, rng, monkeypatch, block):
        density = fit_kde(rng.standard_normal(2000) * 2.0 + 0.5)
        x = np.linspace(-12.0, 12.0, 201)
        expected = kde_expression(density, x)
        monkeypatch.setattr(likelihoods, "_BLOCK_ELEMENTS", block)
        assert np.array_equal(density(x), expected)

    def test_memory_bounded_by_block(self, rng):
        density = fit_kde(rng.standard_normal(2000))
        x = rng.uniform(-5.0, 5.0, 10_000)
        tracemalloc.start()
        try:
            density(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20  # the whole matrix would take 2 x 160 MB


class TestDiscretize:
    def test_uniform_density_gives_unit_bins(self):
        pdf = discretize(lambda x: np.ones_like(x), 0.0, 1.0)
        assert pdf.n_bins == 201
        np.testing.assert_allclose(pdf.bins, 1.0, atol=1e-6)

    def test_degenerate_range_rejected(self):
        with pytest.raises(InvalidRangeError):
            discretize(lambda x: np.ones_like(x), 0.0, 0.0)
        with pytest.raises(InvalidRangeError):
            discretize(lambda x: np.ones_like(x), 1.0, 0.0)

    def test_gaussian_central_bin_mass(self):
        density = lambda x: GAUSS_PEAK * np.exp(-0.5 * np.asarray(x) ** 2)
        pdf = discretize(density, -5.0, 5.0)
        center = pdf.n_bins // 2
        expected = gauss_bin_mass(-pdf.bin_width / 2, pdf.bin_width / 2)
        assert pdf.bins[center] * pdf.bin_width == pytest.approx(expected, rel=0.01)

    def test_floor_applies_to_zero_density_regions(self):
        density = lambda x: np.where(np.asarray(x) < 0.5, 2.0, 0.0)
        pdf = discretize(density, 0.0, 1.0)
        assert pdf.bins.min() >= PDF_FLOOR
        assert pdf.bins.sum() * pdf.bin_width == pytest.approx(1.0, abs=1e-9)


class TestEvalPdf:
    def test_uniform_midpoint(self):
        pdf = discretize(lambda x: np.ones_like(x), 0.0, 1.0)
        assert pdf.evaluate(0.5) == pytest.approx(1.0, abs=1e-6)

    def test_out_of_support_clamps_to_edges(self):
        pdf = DiscretePdf.from_weights(0.0, 1.0, np.arange(1, 6, dtype=float))
        assert pdf.evaluate(pdf.hi + 100.0) == pdf.bins[-1]
        assert pdf.evaluate(pdf.lo - 100.0) == pdf.bins[0]
        assert pdf.evaluate(math.inf) == pdf.bins[-1]
        assert pdf.evaluate(-math.inf) == pdf.bins[0]

    def test_gaussian_peak_lookup(self):
        density = lambda x: GAUSS_PEAK * np.exp(-0.5 * np.asarray(x) ** 2)
        pdf = discretize(density, -5.0, 5.0)
        assert pdf.evaluate(0.0) == pytest.approx(GAUSS_PEAK, rel=0.02)


class TestBinIndex:
    pdf = DiscretePdf.from_weights(0.0, 2.0, np.ones(4))  # bins of width 0.5 on [0, 2]

    def test_scalar_gives_an_int_and_an_array_an_intp_array(self):
        for m in (1.1, np.float64(1.1), np.array(1.1)):
            assert type(self.pdf.bin_index(m)) is int and self.pdf.bin_index(m) == 2
        idx = self.pdf.bin_index([0.1, 0.6, 1.1, 1.6])
        assert idx.dtype == np.intp
        np.testing.assert_array_equal(idx, [0, 1, 2, 3])
        np.testing.assert_array_equal(self.pdf.bin_index([[1.1], [1.6]]), [[2], [3]])

    def test_infinities_clamp_to_the_edges_and_negative_zero_is_bin_0(self):
        scores = np.array([math.inf, -math.inf, -0.0, 0.0, 99.0, -99.0])
        np.testing.assert_array_equal(self.pdf.bin_index(scores), [3, 0, 0, 0, 3, 0])
        assert [self.pdf.bin_index(m) for m in scores.tolist()] == [3, 0, 0, 0, 3, 0]
        # the clamp works in place on its own copy, never on the caller's array
        np.testing.assert_array_equal(scores, [math.inf, -math.inf, -0.0, 0.0, 99.0, -99.0])

    def test_nan_raises_and_an_empty_array_has_no_bins(self):
        for m in (math.nan, [1.1, math.nan], np.array([[math.nan]])):
            with pytest.raises(ValueError, match="NaN score has no bin"):
                self.pdf.bin_index(m)
        for shape in ((0,), (0, 3)):
            empty = self.pdf.bin_index(np.empty(shape))
            assert empty.shape == shape and empty.dtype == np.intp


class TestFitPartLikelihood:
    def test_identical_classes_give_identical_pdfs(self, rng):
        samples = rng.standard_normal(40)
        lik = fit_part_likelihood(ScoreSampleSet(0, samples, samples.copy()))
        np.testing.assert_array_equal(lik.pos.bins, lik.neg.bins)

    def test_separated_gaussians_recover_means(self, rng):
        lik = fit_part_likelihood(ScoreSampleSet(
            0, rng.standard_normal(1000) + 2.0, rng.standard_normal(1000) - 2.0))
        pos_mean = float((lik.pos.centers * lik.pos.bins * lik.pos.bin_width).sum())
        neg_mean = float((lik.neg.centers * lik.neg.bins * lik.neg.bin_width).sum())
        assert pos_mean == pytest.approx(2.0, abs=0.2)
        assert neg_mean == pytest.approx(-2.0, abs=0.2)

    def test_empty_class_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_part_likelihood(ScoreSampleSet(0, [], [0.0, 1.0]))

    def test_too_few_samples_names_part_and_class(self):
        with pytest.raises(InsufficientDataError, match="part 4 'neg' samples: .*got 1"):
            fit_part_likelihood(ScoreSampleSet(4, [0.0, 1.0], [2.0]))

    def test_shared_support(self, rng):
        lik = fit_part_likelihood(ScoreSampleSet(
            3, rng.standard_normal(50) + 5.0, rng.standard_normal(50)))
        assert (lik.pos.lo, lik.pos.hi) == (lik.neg.lo, lik.neg.hi)
        assert lik.part_id == 3

    def test_mirrored_samples_reverse_bins(self, rng):
        pos = rng.standard_normal(60) + 1.0
        neg = rng.standard_normal(60) - 0.5
        lik = fit_part_likelihood(ScoreSampleSet(0, pos, neg))
        mirrored = fit_part_likelihood(ScoreSampleSet(0, -pos, -neg))
        assert mirrored.pos.lo == -lik.pos.hi
        assert mirrored.pos.hi == -lik.pos.lo
        np.testing.assert_allclose(mirrored.pos.bins, lik.pos.bins[::-1], atol=1e-9)
        np.testing.assert_allclose(mirrored.neg.bins, lik.neg.bins[::-1], atol=1e-9)

    def test_deterministic(self, rng):
        pos = rng.standard_normal(30)
        neg = rng.standard_normal(30) + 1.0
        a = fit_part_likelihood(ScoreSampleSet(0, pos, neg))
        b = fit_part_likelihood(ScoreSampleSet(0, pos, neg))
        np.testing.assert_array_equal(a.pos.bins, b.pos.bins)
        np.testing.assert_array_equal(a.neg.bins, b.neg.bins)


@settings(deadline=None, max_examples=40)
@given(
    samples=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=80),
    bandwidth=st.floats(0.05, 4.0),
    pad=st.floats(0.1, 5.0),
)
def test_discretized_kde_invariants(samples, bandwidth, pad):
    density = fit_kde(samples, bandwidth)
    pdf = discretize(density, min(samples) - pad, max(samples) + pad)
    assert abs(pdf.bins.sum() * pdf.bin_width - 1.0) <= 1e-9
    assert pdf.bins.min() >= PDF_FLOOR


@settings(deadline=None, max_examples=40)
@given(masses=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=32))
@example(masses=[0.0, 2.2250738585e-313])  # subnormal total: 1 / total overflows
def test_from_weights_invariants(masses):
    pdf = DiscretePdf.from_weights(-1.0, 3.0, masses)
    assert abs(pdf.bins.sum() * pdf.bin_width - 1.0) <= 1e-9
    assert pdf.bins.min() >= PDF_FLOOR


class TestPersistence:
    def test_csv_round_trip(self, tmp_path, rng):
        path = tmp_path / "samples.csv"
        path.write_text(
            "part_id,label,score\n"
            "0,pos,1.5\n0,pos,2.5\n0,neg,-1.0\n0,neg,-2.0\n"
            "1,neg,0.25\n1,pos,0.75\n1,pos,1.25\n1,neg,-0.5\n"
        )
        sets = read_sample_sets(path)
        assert [s.part_id for s in sets] == [0, 1]
        np.testing.assert_array_equal(sets[0].positives, [1.5, 2.5])
        np.testing.assert_array_equal(sets[1].negatives, [0.25, -0.5])

    def test_csv_bad_label(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("part_id,label,score\n0,maybe,1.0\n")
        from partsched import FormatError
        with pytest.raises(FormatError):
            read_sample_sets(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("id,cls,value\n0,pos,1.0\n")
        from partsched import FormatError
        with pytest.raises(FormatError):
            read_sample_sets(path)

    def test_json_round_trip_bytes(self, tmp_path, rng):
        liks = [
            fit_part_likelihood(ScoreSampleSet(
                k, rng.standard_normal(25) + k, rng.standard_normal(25) - k - 0.5))
            for k in range(3)
        ]
        first = tmp_path / "liks1.json"
        second = tmp_path / "liks2.json"
        save_likelihoods(liks, first)
        loaded = load_likelihoods(first)
        save_likelihoods(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        for orig, back in zip(liks, loaded):
            np.testing.assert_array_equal(orig.pos.bins, back.pos.bins)
            np.testing.assert_array_equal(orig.neg.bins, back.neg.bins)
            assert orig.pos.lo == back.pos.lo and orig.pos.hi == back.pos.hi

    def test_json_schema_fields(self, tmp_path, rng):
        lik = fit_part_likelihood(ScoreSampleSet(
            7, rng.standard_normal(20), rng.standard_normal(20) + 1.0))
        path = tmp_path / "lik.json"
        save_likelihoods([lik], path)
        payload = json.loads(path.read_text())
        assert set(payload[0]) == {"part_id", "lo", "hi", "pos", "neg"}
        assert payload[0]["part_id"] == 7
        assert len(payload[0]["pos"]) == 201

    def test_load_rejects_garbage(self, tmp_path):
        from partsched import FormatError
        path = tmp_path / "bad.json"
        path.write_text("{\"not\": \"a list\"}")
        with pytest.raises(FormatError):
            load_likelihoods(path)
        path.write_text("[{\"part_id\": 0}]")
        with pytest.raises(FormatError):
            load_likelihoods(path)
