"""Per-part score likelihoods: Gaussian KDE fits discretized into fixed-bin histograms.

A part's response behaves differently depending on whether the object is
actually present, so each part carries two densities: one fitted to scores
recorded at positive placements and one at background placements.  A
`ScoreLikelihood` holds the part's one support [lo, hi] and the two bin
arrays on it, so belief updates and policy training evaluate both densities
with a single bin lookup.  `fit_part_likelihood`, the one fit entry point,
evaluates both KDEs at the bin centers of that support.

Where a class's kernel spans at least half a bin, a lattice evaluator sums the
KDE: Taylor moments of the samples about the points of a lattice a few times
finer than the bins, convolved with Hermite-function kernels by one FFT.  Its
values lie within about 1e-13 of the largest value of the exact sum (tested to
1e-12).  Narrower kernels, and lattices too large to pay, run the exact sum of
every kernel term instead.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (CapacityError, ConfigurationError, FormatError, InvalidParameterError,
                     InvalidRangeError)

DEFAULT_BINS = 201
PDF_FLOOR = 1e-6
SUPPORT_PADDING_SIGMAS = 3.0
_BLOCK_ELEMENTS = 2 ** 15  # kernel terms per KDE block: 256 KB of float64
# The lattice evaluator: Taylor moments up to this order, kernels cut at this many
# bandwidths, and at most this many lattice points
_LATTICE_ORDER = 16
_LATTICE_REACH = 40.0
_LATTICE_POINTS = 4096


def _is_number(v) -> bool:
    """Whether v is a Python or numpy int or float, ±inf and NaN included; not a bool or str."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _is_real(v, limit: float = sys.float_info.max) -> bool:
    """Whether v is a number (`_is_number`) in [-limit, limit]; not a NaN."""
    return _is_number(v) and -limit <= v <= limit


def _is_integer(v) -> bool:
    """Whether v is a Python or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _bandwidth(samples: np.ndarray, bandwidth: float | None, name: str) -> float:
    """`bandwidth`, checked a positive and finite number, or by default Silverman's rule of
    thumb 1.06 * sigma * N^(-1/5), which needs a nonzero spread; `name` words the samples."""
    if samples.size < 2:
        raise InvalidRangeError(f"{name}: need at least 2 samples to fit, got {samples.size}")
    if bandwidth is not None:
        if not (_is_real(bandwidth) and bandwidth > 0.0):
            raise InvalidParameterError(f"bandwidth must be positive and finite, got {bandwidth!r}")
        return float(bandwidth)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        bandwidth = 1.06 * float(np.std(samples, ddof=1)) * samples.size ** (-0.2)
    if bandwidth == 0.0:
        raise InvalidRangeError(f"{name}: samples have zero spread; supply an explicit bandwidth")
    if not math.isfinite(bandwidth):
        raise InvalidRangeError("sample spread overflows float range; no finite bandwidth")
    return bandwidth


def _kde(x: np.ndarray, samples: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian KDE of `samples` at the 1-D points `x`: the mean of unit-mass kernels,
    summed exactly, and the reference for `_lattice_kde`.

    The points are evaluated in blocks of _BLOCK_ELEMENTS // samples.size (at least one)
    into two reused buffers, 256 KB each up to 2**15 samples, whatever the number of
    points.  Each point's kernel terms form one contiguous row summed as a whole, so the
    result is bit-identical for every block size."""
    rows = max(1, _BLOCK_ELEMENTS // samples.size)
    z = np.empty((min(rows, x.size), samples.size))
    t = np.empty_like(z)
    sums = np.empty(x.size)
    for a in range(0, x.size, rows):
        b = min(a + rows, x.size)
        zz, tt = z[:b - a], t[:b - a]  # in place: exp(-0.5 * z * z), z = (x - s) / h
        np.subtract(x[a:b, None], samples, out=zz)
        zz /= bandwidth
        np.multiply(zz, -0.5, out=tt)
        tt *= zz
        np.exp(tt, out=tt)
        tt.sum(axis=-1, out=sums[a:b])
    return sums / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))


def _lattice(samples: np.ndarray, bandwidth: float, lo: float, width: float, n_bins: int):
    """The lattice of `_lattice_kde`: (r, first, step, k_lo, size).

    Point k lies at first + k * step, where first = lo + width/2 is the first bin center
    and step = width / r with r = ceil(width / (h/2)) points per bin, so every r-th point
    is a bin center and every sample lies within h/4 of its nearest point.  The points
    k_lo <= 0 to k_lo + size - 1 span every bin center and every sample's nearest point;
    rounding is monotone, so the extreme samples give the ends."""
    r = max(1, math.ceil(width / (0.5 * bandwidth)))
    first, step = lo + 0.5 * width, width / r
    k_min, k_max = np.rint((np.array([samples.min(), samples.max()]) - first) / step).tolist()
    k_lo = min(0.0, k_min)
    return r, first, step, k_lo, max(float((n_bins - 1) * r), k_max) - k_lo + 1.0


def _lattice_kde(samples: np.ndarray, bandwidth: float, lo: float, width: float,
                 n_bins: int) -> np.ndarray:
    """`_kde` at the bin centers lo + (j + 1/2) * width, from Taylor moments on a lattice.

    About a sample's nearest lattice point t, its kernel expands in Hermite functions
    (the fast Gauss transform): exp(-(u - e)^2 / 2) = sum_p e^p / p! * He_p(u) * exp(-u^2/2),
    with e = (s - t) / h, |e| <= 1/4, and u the offset from t in bandwidths.  The moments
    sum e^p / p! per point, p = 0.._LATTICE_ORDER, convolved with the kernels
    He_p(u) * exp(-u^2/2), cut at _LATTICE_REACH bandwidths, by one FFT give the sums in
    O(N·P + M log M) for N samples and M points.  The dropped terms are below 1e-17 of a
    kernel's peak, and the FFT's error is absolute, a small multiple of 1e-16 of the
    largest sum.  So the values lie within about 1e-13 of the largest one where that is
    near a kernel's peak or above: where the kernel spans at least half a bin
    (width <= 2h) and a sample lies among the bins, within a bandwidth of a center."""
    r, first, step, k_lo, size = _lattice(samples, bandwidth, lo, width, n_bins)
    size = int(size)
    k = samples - first  # in place: each sample's nearest point, and e = (s - t) / h
    k /= step
    np.rint(k, out=k)
    e = k * step
    e += first
    np.subtract(samples, e, out=e)
    e /= bandwidth
    k -= k_lo
    point = k.astype(np.intp)
    del k
    # kernel offsets up to `reach` points each way; the circular convolution of n points
    # wraps none of them onto an output that is read
    reach = int(min(size - 1, _LATTICE_REACH * bandwidth / step))  # the product may be inf
    n = 1 << (size + reach - 1).bit_length()
    u = np.arange(n, dtype=float)
    u[n - reach:] -= n
    u *= step / bandwidth
    kernels = np.zeros((_LATTICE_ORDER + 1, n))  # row p: He_p(u) exp(-u^2/2)
    kernels[0, :reach + 1] = np.exp(-0.5 * u[:reach + 1] ** 2)
    kernels[0, n - reach:] = np.exp(-0.5 * u[n - reach:] ** 2)
    moments = np.empty((_LATTICE_ORDER + 1, size))  # row p: sum of e^p / p! per point
    moment = np.ones(samples.size)
    for p in range(_LATTICE_ORDER + 1):
        if p:
            moment *= e
            moment /= p
            # He_p(u) = u He_{p-1}(u) - (p - 1) He_{p-2}(u)
            kernels[p] = u * kernels[p - 1] - (p - 1) * kernels[p - 2]
        moments[p] = np.bincount(point, moment, minlength=size)
    spectrum = (np.fft.rfft(moments, n) * np.fft.rfft(kernels)).sum(axis=0)
    sums = np.fft.irfft(spectrum, n)[-int(k_lo)::r][:n_bins]
    return sums / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))


def _bin_kde(samples: np.ndarray, bandwidth: float, lo: float, width: float,
             n_bins: int) -> np.ndarray:
    """The KDE at the bin centers lo + (j + 1/2) * width: `_lattice_kde` where the kernel
    spans at least half a bin (width <= 2h), the lattice has at most _LATTICE_POINTS
    points and its moments are fewer than the n_bins * N kernel terms of the direct sum;
    `_kde` otherwise.  With narrower kernels every center can lie far out in the tails,
    where the FFT's absolute error swamps the true values."""
    if width <= 2.0 * bandwidth:
        size = _lattice(samples, bandwidth, lo, width, n_bins)[-1]
        if size <= _LATTICE_POINTS and (_LATTICE_ORDER + 1) * size < n_bins * samples.size:
            return _lattice_kde(samples, bandwidth, lo, width, n_bins)
    return _kde(lo + (np.arange(n_bins) + 0.5) * width, samples, bandwidth)


def _floor_normalize(raw: np.ndarray, width: float) -> np.ndarray:
    """Floor bin densities at PDF_FLOOR and renormalize to unit mass.

    Solves for the scale c such that max(c * raw, PDF_FLOOR) integrates to 1
    under the bin widths, so the result satisfies both the normalization
    and the minimum-density guarantee simultaneously.
    """
    raw = np.maximum(np.asarray(raw, dtype=float), 0.0)
    if PDF_FLOOR * width * raw.size >= 1.0:
        raise InvalidRangeError(f"support too wide: it spans {width * raw.size:.6g}, and the "
                                f"density floor needs a span below 1/PDF_FLOOR = {1 / PDF_FLOOR:.0e}")
    total = float(raw.sum()) * width
    if total <= 0.0:
        return np.full(raw.size, 1.0 / (width * raw.size))
    if math.isinf(1.0 / total):
        # a subnormal total would make the bisection's upper scale infinite
        raw = raw / raw.max()
        total = float(raw.sum()) * width
    bins = raw / total
    if bins.min() >= PDF_FLOOR:
        return bins
    # bisect on the scale: mass(c) is nondecreasing, mass(0) < 1 <= mass(1/total); a step
    # that leaves both ends as they were has reached a fixed point, so the rest are skipped
    c_lo, c_hi = 0.0, 1.0 / total
    for _ in range(80):
        ends = c_lo, c_hi
        c = 0.5 * (c_lo + c_hi)
        if float(np.maximum(c * raw, PDF_FLOOR).sum()) * width > 1.0:
            c_hi = c
        else:
            c_lo = c
        if (c_lo, c_hi) == ends:
            break
    bins = np.maximum(c_lo * raw, PDF_FLOOR)
    bins = bins / (float(bins.sum()) * width)
    return np.maximum(bins, PDF_FLOOR)


def _clamped_index(x, last: int, nan_message: str):
    """Integer parts of x clamped to 0..last, an int for 0-d x; InvalidParameterError for a NaN.

    x is a fresh float array, clamped in place."""
    # min propagates NaN, so the common case needs no full-size mask
    if x.size and np.isnan(x.min()):
        raise InvalidParameterError(nan_message)
    # clamp before the integer cast, so infinities never reach it
    if not x.ndim:  # a 0-d input gives a numpy scalar, which has no buffer to clamp in place
        return int(min(max(x, 0.0), last))
    np.maximum(x, 0, out=x)
    np.minimum(x, last, out=x)
    return x.astype(np.intp)


@dataclass(frozen=True)
class ScoreSampleSet:
    """Labeled score samples for one part."""

    part_id: int
    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        for name in ("positives", "negatives"):
            arr = _numbers(getattr(self, name), name, self.part_id)
            if arr.ndim != 1:
                raise InvalidParameterError(f"{name} must be 1-D")
            if arr.size and not np.all(np.isfinite(arr)):
                raise InvalidParameterError(f"{name} contain non-finite scores "
                                            f"(part {self.part_id})")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _numbers(values, name: str, part_id) -> np.ndarray:
    """values as a float array of their own; InvalidParameterError unless they are numbers."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":  # bools, strings and objects are not numbers
        raise InvalidParameterError(f"{name} must be numbers (part {part_id})")
    return arr.astype(float)


def _check_support(lo, hi) -> None:
    if not (_is_number(lo) and _is_number(hi)):
        raise InvalidParameterError(f"lo and hi must be numbers, got {lo!r} and {hi!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise InvalidRangeError(f"need finite hi > lo, got [{lo}, {hi}]")


def _check_bins_shape(bins) -> None:
    if bins.ndim != 1 or bins.size < 2:
        raise InvalidParameterError(f"bins must be 1-D with >= 2 entries, got shape {bins.shape}")


def _check_bin_counts(part_id, pos, neg) -> None:
    if pos.size != neg.size:
        raise InvalidParameterError(f"pos/neg must share one bin count, got {pos.size} and "
                                    f"{neg.size} (part {part_id})")


@dataclass(frozen=True)
class ScoreLikelihood:
    """Positive and negative score densities of one part: piecewise-constant pdfs with equal-
    width bins on one support [lo, hi].

    Guarantees: `pos` and `neg` are read-only float64 arrays of one length, at least 2, whose
    bins are strictly positive with sum(bins) * bin_width == 1 within 1e-9, so likelihood
    ratios never collapse a posterior to exactly 0 or 1.
    """

    part_id: int
    lo: float
    hi: float
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        _check_support(self.lo, self.hi)
        for name in ("pos", "neg"):
            bins = _numbers(getattr(self, name), name, self.part_id)
            _check_bins_shape(bins)
            if not np.all(np.isfinite(bins)) or bins.min() <= 0.0:
                raise InvalidParameterError("bins must be finite and strictly positive")
            if abs(float(bins.sum()) * (self.hi - self.lo) / bins.size - 1.0) > 1e-9:
                raise InvalidParameterError("bins do not integrate to 1 over [lo, hi]")
            bins.flags.writeable = False
            object.__setattr__(self, name, bins)
        _check_bin_counts(self.part_id, self.pos, self.neg)

    @classmethod
    def from_weights(cls, part_id, lo, hi, pos_weights, neg_weights) -> "ScoreLikelihood":
        """Likelihood whose bin masses are proportional to the weights, floored and normalized."""
        _check_support(lo, hi)
        lo, hi = float(lo), float(hi)
        pos_weights, neg_weights = (_numbers(w, "weights", part_id)
                                    for w in (pos_weights, neg_weights))
        _check_bin_counts(part_id, pos_weights, neg_weights)
        _check_bins_shape(pos_weights)  # before the width divides by its size
        if not all(np.isfinite(w).all() and w.min() >= 0.0 for w in (pos_weights, neg_weights)):
            raise InvalidParameterError(f"weights must be finite and non-negative (part {part_id})")
        width = (hi - lo) / pos_weights.size
        try:
            with np.errstate(over="raise"):
                densities = [w / width for w in (pos_weights, neg_weights)]
        except FloatingPointError:
            raise InvalidParameterError("weights overflow when divided by the bin width "
                                        f"{width:.6g} (part {part_id})") from None
        return cls(part_id, lo, hi, *(_floor_normalize(d, width) for d in densities))

    @property
    def n_bins(self) -> int:
        return len(self.pos)

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.n_bins

    def bin_index(self, m):
        """Bin containing score m, elementwise over arrays.

        Out-of-support scores, ±inf included, clamp to the edge bins.  A NaN
        score has no bin and raises InvalidParameterError.
        """
        return _clamped_index((np.asarray(m, dtype=float) - self.lo) / self.bin_width,
                              self.n_bins - 1, "a NaN score has no bin")


def _check_part_set(likelihoods) -> None:
    """ConfigurationError unless `likelihoods` are parts 0..n-1 in order, n >= 1, with one bin
    count: part k is bit k of a policy's masks, action 2+k and column k of the responses."""
    ids = [lik.part_id for lik in likelihoods]
    if not ids or ids != list(range(len(ids))):
        raise ConfigurationError(f"part ids must be 0..n-1 in order with n >= 1, got {ids}")
    bin_counts = sorted({lik.n_bins for lik in likelihoods})
    if len(bin_counts) > 1:
        raise ConfigurationError(f"parts must share one bin count, got {bin_counts}")


def _likelihoods_sha256(likelihoods) -> str:
    """sha256 over each part's lo, hi, pos and neg bins, in order, as little-endian float64.

    A likelihood file and the policy trained on it share this digest; a JSON
    round trip keeps every float, so it survives `save_likelihoods`."""
    digest = hashlib.sha256()
    for lik in likelihoods:
        for values in ([lik.lo, lik.hi], lik.pos, lik.neg):
            digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


def fit_part_likelihood(sample_set: ScoreSampleSet, bandwidth: float | None = None,
                        n_bins: int = DEFAULT_BINS) -> ScoreLikelihood:
    """Fit positive/negative Gaussian KDEs and discretize them onto a shared support.

    Each class's bandwidth is `bandwidth`, or Silverman's rule on its own samples.  The
    support is the pooled sample range padded by 3 pooled standard deviations on each
    side, so both densities stay evaluable at any score seen in training and at moderate
    extrapolations.  A class's bins are its KDE at the bin centers, floored at PDF_FLOOR
    and renormalized to unit mass.

    The KDE comes from the lattice evaluator, within about 1e-13 of its largest value
    (tested to 1e-12, and the fitted bins to 1e-11 of the largest bin), where the bin
    width is at most twice the bandwidth, the lattice has at most 4,096 points and its
    17 moments per point are fewer than the bins × samples kernel terms.  Otherwise it is
    the exact sum of every kernel term, in blocks of about 2^15 terms.
    """
    part, classes = sample_set.part_id, (sample_set.positives, sample_set.negatives)
    bandwidths = [_bandwidth(samples, bandwidth, f"part {part} '{name}' samples")
                  for name, samples in zip(("pos", "neg"), classes)]
    pooled = np.concatenate(classes)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        sigma = float(np.std(pooled, ddof=1))
    if sigma == 0.0:
        raise InvalidRangeError(f"pooled samples have zero spread (part {part})")
    if not math.isfinite(sigma):
        raise InvalidRangeError(f"part {part}: pooled sample spread overflows float range; "
                                "no finite support")
    lo = float(pooled.min()) - SUPPORT_PADDING_SIGMAS * sigma
    hi = float(pooled.max()) + SUPPORT_PADDING_SIGMAS * sigma
    if not (_is_integer(n_bins) and n_bins >= 2):
        raise InvalidParameterError(f"need at least 2 bins, got {n_bins!r}")
    n_bins = int(n_bins)  # a numpy integer's arithmetic wraps or warns where an int's does not
    if n_bins * 8 > np.iinfo(np.intp).max:  # numpy's own limit: "array is too big"
        raise CapacityError(f"{n_bins} bins need {n_bins * 8} bytes per array, "
                            f"more than numpy can allocate")
    width = (hi - lo) / n_bins
    try:
        return ScoreLikelihood(part, lo, hi, *(_floor_normalize(_bin_kde(s, h, lo, width, n_bins),
                                                                width)
                                               for s, h in zip(classes, bandwidths)))
    except InvalidRangeError as exc:
        raise InvalidRangeError(f"part {part}: {exc}") from exc


# ---------------------------------------------------------------------------
# Persistence: samples CSV (part_id,label,score) and likelihoods JSON.

def _json_int(value) -> int:
    """A JSON number with an integral value as an int; TypeError for booleans,
    strings and fractions, so that a persisted count or id is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _json_real(value) -> float:
    """A JSON number as a float; TypeError for booleans and strings, which
    float() would read as 0.0 / 1.0 and as the number they spell."""
    if type(value) not in (int, float):  # exact types: bool subclasses int
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _read_json(path, kind: str):
    """The JSON value in `path`; FormatError "not a valid `kind` file" if unreadable or not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise FormatError(f"{path}: not a valid {kind} file: {exc}") from exc


def _read_csv(path, columns: dict, check) -> np.ndarray:
    """Records of the named `columns` (name: dtype) of a headed CSV, parsed from the file.

    The text is read once, for the header's length and a NUL check, and let go
    before np.loadtxt parses the body from the open file in one pass, so a
    valid file's text and records are never held together.  `check(records)`
    raises ValueError for a bad row, or returns a function that words the
    first bad record's defect from its {column: text} row.  Its first call
    sees every record, and on a valid file it is the only one.  A failure is a
    FormatError "path:LINE:", found by bisecting on line prefixes: only then
    is the text read again and split into lines.
    """
    with open(path) as body:
        try:
            text = body.read()
            body.seek(0)
            header = next(reader := csv.reader(body), [])
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: unreadable header: {exc}") from exc
        index = {name: i for i, name in enumerate(header)}  # a repeated name: the last one
        if not set(columns) <= set(index):
            raise FormatError(f"{path}: expected header {','.join(columns)}")
        dtype = np.dtype(list(columns.items()))
        start = 0  # the body's offset in the text
        for _ in range(reader.line_num):
            start = text.find("\n", start) + 1 or len(text)

        def scan(end: int) -> tuple[bool, bool]:
            """Whether the body's text up to offset `end` holds a NUL, and whether it is blank."""
            return text.find("\0", start, end) >= 0, text.count("\n", start, end) == end - start

        def parse(lines, nul: bool, blank: bool):
            """The records of `lines`, or how the last of them fails; `scan` gives the flags."""
            try:
                if nul:  # fixed-width numpy strings drop a trailing NUL
                    raise ValueError("NUL character")
                records = (np.empty(0, dtype) if blank  # no "no data" warning
                           else np.loadtxt(lines, dtype, delimiter=",", comments=None,
                                           quotechar='"', usecols=[index[c] for c in columns],
                                           ndmin=1))
                defect = check(records)
            except ValueError:
                return lambda row: f"bad row {row!r}"
            return defect if callable(defect) else records

        flags = scan(len(text))
        del text  # not held while the body is parsed
        if not callable(records := parse(body, *flags)):
            return records
    text = Path(path).read_text()  # a bad row: read again for `scan` and split into lines
    lines = io.StringIO(text[start:]).readlines()
    ends = list(itertools.accumulate(map(len, lines), initial=start))
    bad = bisect.bisect_left(range(len(lines) + 1), True,
                             key=lambda n: callable(parse(lines[:n], *scan(ends[n]))))
    try:
        row = next(csv.DictReader(lines[bad - 1:bad], fieldnames=header))
    except csv.Error:  # a field over the csv module's size limit
        row = dict(zip(header, lines[bad - 1].rstrip("\n").split(",")))
    raise FormatError(f"{path}:{reader.line_num + bad}: "
                      f"{parse(lines[:bad], *scan(ends[bad]))(row)}")


def _sample_defect(records):
    if not np.isin(records["label"], ("pos", "neg")).all():
        return lambda row: f"label must be pos or neg, got {row['label']!r}"
    if not np.isfinite(records["score"]).all():
        return lambda row: f"score must be finite, got {row['score']!r}"


def read_sample_sets(path) -> list[ScoreSampleSet]:
    """Read labeled samples from a CSV with header part_id,label,score."""
    records = _read_csv(path, {"part_id": np.int64, "label": "U4", "score": float},
                        _sample_defect)  # U4: a label longer than "pos" stays a bad one
    part, score, neg = records["part_id"], records["score"], records["label"] == "neg"
    if (parts := np.unique(part).tolist()) != list(range(len(parts))):
        raise FormatError(f"{path}: part ids must be 0..{len(parts) - 1}, got {parts}")
    return [ScoreSampleSet(k, score[(part == k) & ~neg], score[(part == k) & neg]) for k in parts]


def save_sample_sets(sets, path) -> None:
    """CSV with header part_id,label,score, streamed one part and label per write."""
    with open(path, "w") as out:
        out.write("part_id,label,score\n")
        for s in sets:
            for label, values in (("pos", s.positives), ("neg", s.negatives)):
                out.write("".join(f"{s.part_id},{label},{v!r}\n" for v in values.tolist()))


def save_likelihoods(likelihoods, path) -> None:
    """Write likelihoods as a JSON array of per-part objects."""
    payload = [
        {"part_id": lik.part_id, "lo": lik.lo, "hi": lik.hi,
         **{name: getattr(lik, name).tolist() for name in ("pos", "neg")}}
        for lik in sorted(likelihoods, key=lambda l: l.part_id)
    ]
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_likelihoods(path) -> list[ScoreLikelihood]:
    payload = _read_json(path, "likelihood")
    if not isinstance(payload, list):
        raise FormatError(f"{path}: expected a JSON array of parts")
    out = []
    for entry in payload:
        try:
            out.append(ScoreLikelihood(
                _json_int(entry["part_id"]), _json_real(entry["lo"]), _json_real(entry["hi"]),
                *(list(map(_json_real, entry[name])) for name in ("pos", "neg"))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise FormatError(f"{path}: malformed part entry: {exc}") from exc
    out.sort(key=lambda l: l.part_id)
    try:
        _check_part_set(out)
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return out
