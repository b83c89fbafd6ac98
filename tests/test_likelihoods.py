import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsched import (
    InvalidRangeError,
    ScoreLikelihood,
    ScoreSampleSet,
    fit_part_likelihood,
    load_likelihoods,
    read_sample_sets,
    save_likelihoods,
)
from partsched import likelihoods
from partsched.likelihoods import PDF_FLOOR, _kde

GAUSS_PEAK = 1.0 / math.sqrt(2.0 * math.pi)

# `_likelihoods_sha256` of `explicit_fits()`, recorded when the KDE was a density object
# that a separate `discretize` sampled at the bin centers: the exact sum's bins.  The
# lattice evaluator, which takes some of these fits by default, moves their bins by
# about 1e-13 and gives the second digest.
RECORDED_EXPLICIT_FITS_SHA256 = "60b5c01c0ec546edac43248f9096f943423b66eed72e749786bb6646dc132127"
RECORDED_LATTICE_EXPLICIT_FITS_SHA256 = (
    "e9e32f838e9ad8930f6931445a48d03a2aaece0367d9f0c16de5e0a4566b1f7f")


def explicit_fits():
    """Fits of a seeded sample set with explicit bandwidths at 2, 7 and 1001 bins; part 2's
    positives outnumber one KDE block, so each of its bin centers is a block of its own."""
    rng = np.random.default_rng(2030)
    sets = [ScoreSampleSet(0, rng.standard_normal(3) + 1.0, rng.standard_normal(2) - 1.0),
            ScoreSampleSet(1, rng.standard_normal(300) * 2.0, rng.standard_normal(250) + 0.5),
            ScoreSampleSet(2, rng.standard_normal(2 ** 15 + 5) - 2.0,
                           rng.standard_normal(40) + 3.0)]
    return [fit_part_likelihood(s, bandwidth=h, n_bins=n)
            for s in sets for h in (0.05, 0.7, 3.0) for n in (2, 7, 1001)]


def gauss_bin_mass(lo, hi):
    """Exact unit-Gaussian mass on [lo, hi] via the error function."""
    def phi(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return phi(hi) - phi(lo)


def rule_of_thumb(samples):
    """Silverman's rule, 1.06 * sigma * N^(-1/5), in the fit's order of operations."""
    return 1.06 * float(np.std(samples, ddof=1)) * samples.size ** (-0.2)


def densities_at(lik, m):
    """(h+, h-) at score m: both classes' bins at `lik.bin_index(m)`."""
    j = lik.bin_index(m)
    return lik.pos[j], lik.neg[j]


def centers(lik):
    return lik.lo + (np.arange(lik.n_bins) + 0.5) * lik.bin_width


def unit_gaussian_fit():
    """A likelihood whose positive density is the unit Gaussian: one kernel of bandwidth 1
    at 0, twice, on the symmetric support [-3.45, 3.45] with a bin centered at 0."""
    return fit_part_likelihood(ScoreSampleSet(0, [0.0, 0.0], [-1.0, 1.0]), bandwidth=1.0)


class TestFitKde:
    """The KDE fit: fit_part_likelihood's checks and bandwidth, and its evaluator `_kde`."""

    def test_single_sample_rejected(self):
        for bandwidth in (None, 0.5):
            with pytest.raises(InvalidRangeError, match="part 0 'pos' samples: .*got 1"):
                fit_part_likelihood(ScoreSampleSet(0, [0.0], [0.0, 1.0]), bandwidth)

    def test_non_finite_rejected(self):
        # a sample set checks its scores once; the fit does not check them again
        for score in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite scores"):
                ScoreSampleSet(0, [0.0, score], [0.0, 1.0])

    def test_zero_spread_needs_explicit_bandwidth(self):
        samples = ScoreSampleSet(0, [1.0, 1.0], [0.0, 2.0])
        with pytest.raises(InvalidRangeError, match="part 0 'pos' samples: samples have "
                                                    "zero spread; supply an explicit"):
            fit_part_likelihood(samples)
        lik = fit_part_likelihood(samples, bandwidth=0.3)
        assert densities_at(lik, 1.0)[0] == lik.pos.max() > PDF_FLOOR

    def test_symmetric_samples_give_symmetric_density(self):
        x = np.linspace(0.0, 3.0, 13)
        samples = np.array([-1.0, 1.0])
        np.testing.assert_allclose(_kde(-x, samples, 0.5), _kde(x, samples, 0.5), atol=1e-12)

    def test_default_bandwidth_is_rule_of_thumb(self):
        # each class gets the rule on its own samples
        pos, neg = np.array([0.0, 1.0, 2.0, 5.0]), np.array([-3.0, -1.0, 0.0, 4.0, 7.0])
        samples = ScoreSampleSet(0, pos, neg)
        lik = fit_part_likelihood(samples)
        assert np.array_equal(lik.pos, fit_part_likelihood(samples, rule_of_thumb(pos)).pos)
        assert np.array_equal(lik.neg, fit_part_likelihood(samples, rule_of_thumb(neg)).neg)

    def test_standard_normal_draw_matches_peak(self, rng):
        samples = rng.standard_normal(1000)
        lik = fit_part_likelihood(ScoreSampleSet(0, samples, samples))
        assert densities_at(lik, 0.0)[0] == pytest.approx(GAUSS_PEAK, abs=0.05)

    def test_equals_the_expression_it_evaluates_in_place(self, rng):
        samples = rng.standard_normal(300) * 3.0
        for x in (np.array([0.25]), rng.uniform(-20.0, 20.0, 201), rng.uniform(-1e3, 1e3, 287)):
            assert np.array_equal(_kde(x, samples, 0.9), kde_expression(x, samples, 0.9))

    def test_integrates_to_one(self, rng):
        samples = rng.standard_normal(50)
        xs = np.linspace(-8, 8, 4001)
        assert np.trapezoid(_kde(xs, samples, rule_of_thumb(samples)), xs) == pytest.approx(
            1.0, abs=1e-6)


def kde_expression(x, samples, bandwidth):
    """The KDE as one whole-matrix expression: the reference for its blocked evaluation."""
    z = (x[:, None] - samples) / bandwidth
    norm = samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    return np.exp(-0.5 * z * z).sum(axis=-1) / norm


class TestKdeBlocks:
    """`_kde` walks its points in blocks; every output bit matches kde_expression."""

    def test_ragged_last_block(self, rng):
        samples = rng.standard_normal(300)  # 109 points per block
        rows = likelihoods._BLOCK_ELEMENTS // 300
        x = rng.uniform(-5.0, 5.0, 2 * rows + 32)
        assert np.array_equal(_kde(x, samples, 0.4), kde_expression(x, samples, 0.4))

    def test_more_samples_than_one_block(self, rng):
        samples = rng.standard_normal(likelihoods._BLOCK_ELEMENTS + 777)  # one point per block
        x = rng.uniform(-5.0, 5.0, 5)
        assert np.array_equal(_kde(x, samples, 0.4), kde_expression(x, samples, 0.4))

    # 1-D point counts around the 65-point blocks of 500 samples: none, one, one block
    # exactly, one point past it, and the 201 bin centers of a default fit
    @pytest.mark.parametrize("shape", [(0,), (1,), (65,), (66,), (201,)])
    def test_shapes(self, rng, shape):
        samples = rng.standard_normal(500)
        x = rng.uniform(-5.0, 5.0, shape)
        got = _kde(x, samples, 0.4)
        assert got.shape == shape
        assert np.array_equal(got, kde_expression(x, samples, 0.4))

    @pytest.mark.parametrize("block", [1, 2000, 2 ** 15, 2 ** 22])
    def test_block_size_changes_no_bit(self, rng, monkeypatch, block):
        monkeypatch.setattr(likelihoods, "_LATTICE_POINTS", 0)  # the fits run `_kde`
        samples = ScoreSampleSet(0, rng.standard_normal(2000) * 2.0 + 0.5,
                                 rng.standard_normal(2000) - 1.0)
        x = np.linspace(-12.0, 12.0, 201)
        expected = kde_expression(x, samples.positives, 0.3)
        fitted = fit_part_likelihood(samples, bandwidth=0.3)
        monkeypatch.setattr(likelihoods, "_BLOCK_ELEMENTS", block)
        assert np.array_equal(_kde(x, samples.positives, 0.3), expected)
        refit = fit_part_likelihood(samples, bandwidth=0.3)
        assert np.array_equal(refit.pos, fitted.pos)
        assert np.array_equal(refit.neg, fitted.neg)

    def test_memory_bounded_by_block(self, rng):
        samples = rng.standard_normal(2000)
        x = rng.uniform(-5.0, 5.0, 10_000)
        tracemalloc.start()
        try:
            _kde(x, samples, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20  # the whole matrix would take 2 x 160 MB


def lattice_case(rng, r, n_bins, n_samples, scale):
    """Samples, bandwidth, lo and width for a lattice of r points per bin (width / (h/2) is
    r - 1/4) on n_bins bins of width `scale` about 0.  Each sample sits on a lattice point,
    half a step off one (the largest |e|), or h/4 off one, on points up to 3 bins past the
    outer centers."""
    width, bandwidth = scale, 2.0 * scale / (r - 0.25)
    lo, step = -0.5 * n_bins * width, width / r
    points = lo + 0.5 * width + rng.integers(-3 * r, (n_bins + 3) * r, n_samples) * step
    offsets = np.array([0.0, 0.5 * step, -0.5 * step, 0.25 * bandwidth, -0.25 * bandwidth])
    return points + rng.choice(offsets, n_samples), bandwidth, lo, width


def bin_centers(lo, width, n_bins):
    return lo + (np.arange(n_bins) + 0.5) * width


def expression_at_bins(samples, bandwidth, lo, width, n_bins):
    """kde_expression at the bin centers, 16 centers at a time."""
    x = bin_centers(lo, width, n_bins)
    return np.concatenate([kde_expression(x[a:a + 16], samples, bandwidth)
                           for a in range(0, n_bins, 16)])


class TestLatticeKde:
    """`_lattice_kde` against the exact sum, and the rule that picks it in `_bin_kde`."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_bins, n_samples, scale", [
        (2, 2, 1e-4), (7, 50, 1.0), (201, 2000, 1e4), (1001, 300, 3.0), (201, 40_000, 1e-2)])
    def test_matches_the_exact_sum(self, rng, r, n_bins, n_samples, scale):
        samples, bandwidth, lo, width = lattice_case(rng, r, n_bins, n_samples, scale)
        assert likelihoods._lattice(samples, bandwidth, lo, width, n_bins)[0] == r
        got = likelihoods._lattice_kde(samples, bandwidth, lo, width, n_bins)
        expected = expression_at_bins(samples, bandwidth, lo, width, n_bins)
        assert np.abs(got - expected).max() <= 1e-12 * expected.max()

    def test_the_lattice_runs_where_the_kernel_spans_half_a_bin(self, rng):
        samples, lo, width, n_bins = rng.standard_normal(2000) * 3.0, -12.5, 0.125, 200
        x = bin_centers(lo, width, n_bins)
        bandwidth = 0.5 * width  # width = 2h: four points per bin
        got = likelihoods._bin_kde(samples, bandwidth, lo, width, n_bins)
        assert np.array_equal(got, likelihoods._lattice_kde(samples, bandwidth, lo, width,
                                                            n_bins))
        assert not np.array_equal(got, _kde(x, samples, bandwidth))
        expected = expression_at_bins(samples, bandwidth, lo, width, n_bins)
        assert np.abs(got - expected).max() <= 1e-12 * expected.max()
        narrow = np.nextafter(bandwidth, 0.0)  # width > 2h
        assert np.array_equal(likelihoods._bin_kde(samples, narrow, lo, width, n_bins),
                              _kde(x, samples, narrow))

    @pytest.mark.parametrize("n_bins, n_samples", [
        (1100, 2000),  # 4 points per bin: 4,397 points, over the cap
        (201, 2),  # 17 moments per point outnumber the 402 kernel terms
    ])
    def test_large_lattices_run_the_exact_sum(self, rng, n_bins, n_samples):
        samples, lo = rng.uniform(-1.0, 1.0, n_samples), -1.0
        width = 2.0 / n_bins
        bandwidth = 0.5 * width
        assert np.array_equal(likelihoods._bin_kde(samples, bandwidth, lo, width, n_bins),
                              _kde(bin_centers(lo, width, n_bins), samples, bandwidth))

    def test_narrow_kernels_fit_by_the_exact_sum(self, rng, monkeypatch):
        # a 0.01 bandwidth on bins about 0.06 wide
        samples = ScoreSampleSet(0, rng.standard_normal(500), rng.standard_normal(500) + 1.0)
        fitted = fit_part_likelihood(samples, bandwidth=0.01)
        monkeypatch.setattr(likelihoods, "_LATTICE_POINTS", 0)
        exact = fit_part_likelihood(samples, bandwidth=0.01)
        assert np.array_equal(fitted.pos, exact.pos) and np.array_equal(fitted.neg, exact.neg)

    def test_a_kernel_wider_than_float_range_of_steps_fits_flat(self, rng, monkeypatch):
        # 40 bandwidths are more lattice steps than a float holds: the kernel reaches every
        # point; the 1000 * 1e307 normalization overflows, as it does in `_kde`
        samples = ScoreSampleSet(0, rng.standard_normal(1000) * 1e-3,
                                 rng.standard_normal(1000) * 1e-3)
        fitted = fit_part_likelihood(samples, bandwidth=1e307)
        monkeypatch.setattr(likelihoods, "_LATTICE_POINTS", 0)
        exact = fit_part_likelihood(samples, bandwidth=1e307)
        np.testing.assert_allclose(fitted.pos, exact.pos, rtol=1e-12)
        np.testing.assert_allclose(fitted.neg, exact.neg, rtol=1e-12)

    def test_fitted_bins_match_the_exact_path(self, rng, monkeypatch):
        sets = [ScoreSampleSet(0, rng.standard_normal(n) * 2.0 + 1.0, rng.standard_normal(n))
                for n in (50, 2000, 40_000)]
        fits = explicit_fits() + [fit_part_likelihood(s) for s in sets]
        monkeypatch.setattr(likelihoods, "_LATTICE_POINTS", 0)
        exact = explicit_fits() + [fit_part_likelihood(s) for s in sets]
        moved = 0
        for lattice_fit, exact_fit in zip(fits, exact):
            for got, expected in ((lattice_fit.pos, exact_fit.pos),
                                  (lattice_fit.neg, exact_fit.neg)):
                assert np.abs(got - expected).max() <= 1e-11 * expected.max()
                moved += not np.array_equal(got, expected)
        assert moved  # some fits took the lattice

    def test_memory(self, rng, monkeypatch):
        samples = rng.standard_normal(40_000)
        lo, hi = samples.min() - 3.0, samples.max() + 3.0
        monkeypatch.setattr(likelihoods, "_kde", None)  # the lattice path or a TypeError
        tracemalloc.start()
        try:
            likelihoods._bin_kde(samples, rule_of_thumb(samples), lo, (hi - lo) / 201, 201)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20  # the samples' float arrays take 320 KB each


class TestDiscretize:
    """fit_part_likelihood's discretization: each class's KDE at its bin centers, floored at
    PDF_FLOOR and renormalized to unit mass on the support."""

    def test_uniform_density_gives_unit_bins(self):
        # a bandwidth that dwarfs the support leaves the density flat across it
        lik = fit_part_likelihood(ScoreSampleSet(0, [0.0, 1.0], [0.0, 1.0]), bandwidth=1e9)
        assert lik.n_bins == 201
        np.testing.assert_allclose(lik.pos * (lik.hi - lik.lo), 1.0, atol=1e-6)

    def test_degenerate_range_rejected(self):
        # from_weights checks the range before it divides by the bin width
        for lo, hi in ((0.0, 0.0), (1.0, 0.0), (0.0, math.inf)):
            with pytest.raises(InvalidRangeError, match="need finite hi > lo"):
                ScoreLikelihood(0, lo, hi, [1.0, 1.0], [1.0, 1.0])
            with pytest.raises(InvalidRangeError, match="need finite hi > lo"):
                ScoreLikelihood.from_weights(0, lo, hi, [1.0, 1.0], [1.0, 1.0])

    def test_gaussian_central_bin_mass(self):
        lik = unit_gaussian_fit()
        center = lik.n_bins // 2
        assert centers(lik)[center] == pytest.approx(0.0, abs=1e-12)
        expected = gauss_bin_mass(-lik.bin_width / 2, lik.bin_width / 2)
        assert lik.pos[center] * lik.bin_width == pytest.approx(expected, rel=0.01)

    def test_floor_applies_to_zero_density_regions(self):
        # kernels of width 0.05 at 0 vanish across most of the support [-138, 138]
        lik = fit_part_likelihood(ScoreSampleSet(0, [0.0, 0.0], [-40.0, 40.0]), bandwidth=0.05)
        for bins in (lik.pos, lik.neg):
            assert bins.min() == PDF_FLOOR
            assert bins.sum() * lik.bin_width == pytest.approx(1.0, abs=1e-9)


class TestEvalPdf:
    def test_uniform_midpoint(self):
        lik = ScoreLikelihood.from_weights(0, 0.0, 1.0, np.ones(201), np.ones(201))
        assert densities_at(lik, 0.5) == pytest.approx((1.0, 1.0), abs=1e-6)

    def test_out_of_support_clamps_to_edges(self):
        weights = np.arange(1, 6, dtype=float)
        lik = ScoreLikelihood.from_weights(0, 0.0, 1.0, weights, weights[::-1])
        edges = (lik.pos[-1], lik.neg[-1]), (lik.pos[0], lik.neg[0])
        assert densities_at(lik, lik.hi + 100.0) == densities_at(lik, math.inf) == edges[0]
        assert densities_at(lik, lik.lo - 100.0) == densities_at(lik, -math.inf) == edges[1]

    def test_gaussian_peak_lookup(self):
        assert densities_at(unit_gaussian_fit(), 0.0)[0] == pytest.approx(GAUSS_PEAK, rel=0.02)


class TestScoreLikelihood:
    def test_bins_are_read_only_float64_copies(self):
        pos, neg = np.array([1.0, 1.0]), [0.5, 1.5]
        lik = ScoreLikelihood(0, 0.0, 1.0, pos, neg)
        for bins in (lik.pos, lik.neg):
            assert bins.dtype == np.float64 and not bins.flags.writeable
        assert not np.shares_memory(lik.pos, pos)
        assert (lik.n_bins, lik.bin_width) == (2, 0.5)


class TestBinIndex:
    lik = ScoreLikelihood.from_weights(0, 0.0, 2.0, np.ones(4), np.ones(4))  # bins of 0.5 on [0, 2]

    def test_scalar_gives_an_int_and_an_array_an_intp_array(self):
        for m in (1.1, np.float64(1.1), np.array(1.1)):
            assert type(self.lik.bin_index(m)) is int and self.lik.bin_index(m) == 2
        idx = self.lik.bin_index([0.1, 0.6, 1.1, 1.6])
        assert idx.dtype == np.intp
        np.testing.assert_array_equal(idx, [0, 1, 2, 3])
        np.testing.assert_array_equal(self.lik.bin_index([[1.1], [1.6]]), [[2], [3]])

    def test_infinities_clamp_to_the_edges_and_negative_zero_is_bin_0(self):
        scores = np.array([math.inf, -math.inf, -0.0, 0.0, 99.0, -99.0])
        np.testing.assert_array_equal(self.lik.bin_index(scores), [3, 0, 0, 0, 3, 0])
        assert [self.lik.bin_index(m) for m in scores.tolist()] == [3, 0, 0, 0, 3, 0]
        # the clamp works in place on its own copy, never on the caller's array
        np.testing.assert_array_equal(scores, [math.inf, -math.inf, -0.0, 0.0, 99.0, -99.0])

    def test_nan_raises_and_an_empty_array_has_no_bins(self):
        for m in (math.nan, [1.1, math.nan], np.array([[math.nan]])):
            with pytest.raises(ValueError, match="NaN score has no bin"):
                self.lik.bin_index(m)
        for shape in ((0,), (0, 3)):
            empty = self.lik.bin_index(np.empty(shape))
            assert empty.shape == shape and empty.dtype == np.intp


class TestFitPartLikelihood:
    def test_identical_classes_give_identical_pdfs(self, rng):
        samples = rng.standard_normal(40)
        lik = fit_part_likelihood(ScoreSampleSet(0, samples, samples.copy()))
        np.testing.assert_array_equal(lik.pos, lik.neg)

    def test_separated_gaussians_recover_means(self, rng):
        lik = fit_part_likelihood(ScoreSampleSet(
            0, rng.standard_normal(1000) + 2.0, rng.standard_normal(1000) - 2.0))
        pos_mean = float((centers(lik) * lik.pos * lik.bin_width).sum())
        neg_mean = float((centers(lik) * lik.neg * lik.bin_width).sum())
        assert pos_mean == pytest.approx(2.0, abs=0.2)
        assert neg_mean == pytest.approx(-2.0, abs=0.2)

    def test_empty_class_rejected(self):
        with pytest.raises(InvalidRangeError, match="part 0 'pos' samples: .*got 0"):
            fit_part_likelihood(ScoreSampleSet(0, [], [0.0, 1.0]))

    def test_too_few_samples_names_part_and_class(self):
        with pytest.raises(InvalidRangeError, match="part 4 'neg' samples: .*got 1"):
            fit_part_likelihood(ScoreSampleSet(4, [0.0, 1.0], [2.0]))

    def test_shared_support(self, rng):
        # one support, padded by 3 pooled standard deviations around both classes
        pos, neg = rng.standard_normal(50) + 5.0, rng.standard_normal(50)
        lik = fit_part_likelihood(ScoreSampleSet(3, pos, neg))
        pooled = np.concatenate([pos, neg])
        assert lik.lo == pooled.min() - 3.0 * np.std(pooled, ddof=1)
        assert lik.hi == pooled.max() + 3.0 * np.std(pooled, ddof=1)
        assert lik.pos.size == lik.neg.size == lik.n_bins
        assert lik.part_id == 3

    def test_mirrored_samples_reverse_bins(self, rng):
        pos = rng.standard_normal(60) + 1.0
        neg = rng.standard_normal(60) - 0.5
        lik = fit_part_likelihood(ScoreSampleSet(0, pos, neg))
        mirrored = fit_part_likelihood(ScoreSampleSet(0, -pos, -neg))
        assert mirrored.lo == -lik.hi
        assert mirrored.hi == -lik.lo
        np.testing.assert_allclose(mirrored.pos, lik.pos[::-1], atol=1e-9)
        np.testing.assert_allclose(mirrored.neg, lik.neg[::-1], atol=1e-9)

    def test_pooled_spread_overflow_is_a_range_error(self):
        # an explicit bandwidth computes no class spread; the pooled one overflows, and the
        # fit says so before numpy warns, which the suite's filter turns into an error
        samples = ScoreSampleSet(5, [1e200, 1e200], [-1e200, -1e200])
        with pytest.raises(InvalidRangeError,
                           match="part 5: pooled sample spread overflows float range"):
            fit_part_likelihood(samples, bandwidth=1.0)

    def test_explicit_bandwidth_fits_match_the_recorded_digest(self, monkeypatch):
        monkeypatch.setattr(likelihoods, "_LATTICE_POINTS", 0)  # the exact sum for every fit
        assert likelihoods._likelihoods_sha256(explicit_fits()) == RECORDED_EXPLICIT_FITS_SHA256

    def test_lattice_fits_match_the_recorded_digest(self):
        digest = likelihoods._likelihoods_sha256(explicit_fits())
        assert digest == RECORDED_LATTICE_EXPLICIT_FITS_SHA256

    def test_deterministic(self, rng):
        pos = rng.standard_normal(30)
        neg = rng.standard_normal(30) + 1.0
        a = fit_part_likelihood(ScoreSampleSet(0, pos, neg))
        b = fit_part_likelihood(ScoreSampleSet(0, pos, neg))
        np.testing.assert_array_equal(a.pos, b.pos)
        np.testing.assert_array_equal(a.neg, b.neg)


@settings(deadline=None, max_examples=40)
@given(
    samples=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=80),
    bandwidth=st.floats(0.05, 4.0),
    pad=st.floats(0.1, 5.0),
)
def test_discretized_kde_invariants(samples, bandwidth, pad):
    # the negatives are the positives shifted by `pad`, so the pooled spread is never zero
    lik = fit_part_likelihood(ScoreSampleSet(0, samples, [x + pad for x in samples]), bandwidth)
    for bins in (lik.pos, lik.neg):
        assert abs(bins.sum() * lik.bin_width - 1.0) <= 1e-9
        assert bins.min() >= PDF_FLOOR


@settings(deadline=None, max_examples=40)
@given(masses=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=32))
@example(masses=[0.0, 2.2250738585e-313])  # subnormal total: 1 / total overflows
def test_from_weights_invariants(masses):
    lik = ScoreLikelihood.from_weights(0, -1.0, 3.0, masses, masses[::-1])
    for bins in (lik.pos, lik.neg):
        assert abs(bins.sum() * lik.bin_width - 1.0) <= 1e-9
        assert bins.min() >= PDF_FLOOR


def floor_normalize_80_steps(raw, width):
    """_floor_normalize with its bisection always run for all 80 steps."""
    raw = np.maximum(np.asarray(raw, dtype=float), 0.0)
    total = float(raw.sum()) * width
    if total <= 0.0:
        return np.full(raw.size, 1.0 / (width * raw.size))
    if math.isinf(1.0 / total):
        raw = raw / raw.max()
        total = float(raw.sum()) * width
    bins = raw / total
    if bins.min() >= PDF_FLOOR:
        return bins
    c_lo, c_hi = 0.0, 1.0 / total
    for _ in range(80):
        c = 0.5 * (c_lo + c_hi)
        if float(np.maximum(c * raw, PDF_FLOOR).sum()) * width > 1.0:
            c_hi = c
        else:
            c_lo = c
    bins = np.maximum(c_lo * raw, PDF_FLOOR)
    bins = bins / (float(bins.sum()) * width)
    return np.maximum(bins, PDF_FLOOR)


class TestFloorNormalize:
    """The bisection stops at its fixed point, bit-identical to running all 80 steps."""

    def test_matches_80_steps_on_random_inputs(self):
        rng = np.random.default_rng(80)
        for _ in range(500):
            n = int(rng.integers(2, 300))
            raw = rng.exponential(1.0, n) * (rng.random(n) < rng.random())
            raw *= 10.0 ** rng.uniform(-12.0, 12.0)
            width = 10.0 ** rng.uniform(-4.0, math.log10(0.999 / (PDF_FLOOR * n)))
            assert np.array_equal(likelihoods._floor_normalize(raw, width),
                                  floor_normalize_80_steps(raw, width))

    @pytest.mark.parametrize("raw, width", [
        # a subnormal total: the bisection runs on raw / raw.max()
        (np.array([1e-310, 0.0, 3e-311]), 1.0),
        (np.array([0.0, 2.2250738585e-313, 0.0, 0.0]), 0.5),
        # the floor alone rounds past unit mass at any scale, so no step is a fixed point
        # and all 80 run
        (np.eye(1, 1000)[0], 999.9999999999999),
    ], ids=["subnormal-total", "subnormal-single", "all-80-steps"])
    def test_matches_80_steps_at_the_edges(self, raw, width):
        assert np.array_equal(likelihoods._floor_normalize(raw, width),
                              floor_normalize_80_steps(raw, width))


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

    def test_csv_read_memory_stays_near_file_size(self, tmp_path, rng):
        path = tmp_path / "samples.csv"
        likelihoods.save_sample_sets([ScoreSampleSet(k, rng.standard_normal(2000) + 1.0,
                                                      rng.standard_normal(2000) - 1.0)
                                      for k in range(12)], path)
        assert path.stat().st_size >= 2 ** 20
        read_sample_sets(path)  # a first call may import numpy submodules
        tracemalloc.start()
        try:
            read_sample_sets(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size  # text plus parsed copies: 10x before

    def test_csv_write_memory_stays_below_file_size(self, tmp_path, rng):
        path = tmp_path / "samples.csv"
        sets = [ScoreSampleSet(k, rng.standard_normal(2000) + 1.0, rng.standard_normal(2000) - 1.0)
                for k in range(12)]
        likelihoods.save_sample_sets(sets, path)  # a first call may import what it needs
        tracemalloc.start()
        try:
            likelihoods.save_sample_sets(sets, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size >= 2 ** 20
        assert peak < path.stat().st_size / 2  # one part and label at a time: 5x before
        rows = [f"{s.part_id},{label},{v!r}\n" for s in sets
                for label, values in (("pos", s.positives), ("neg", s.negatives))
                for v in values.tolist()]
        assert path.read_text() == "part_id,label,score\n" + "".join(rows)

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
            np.testing.assert_array_equal(orig.pos, back.pos)
            np.testing.assert_array_equal(orig.neg, back.neg)
            assert orig.lo == back.lo and orig.hi == back.hi

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
