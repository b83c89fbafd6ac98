"""Per-part score likelihoods: Gaussian KDE fits discretized into fixed-bin histograms.

A part's response behaves differently depending on whether the object is
actually present, so each part carries two densities: one fitted to scores
recorded at positive placements and one at background placements.  Both are
discretized onto a shared support so that belief updates and policy training
can evaluate them with a single bin lookup.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (CapacityError, ConfigurationError, FormatError, InsufficientDataError,
                     InvalidRangeError)

DEFAULT_BINS = 201
PDF_FLOOR = 1e-6
SUPPORT_PADDING_SIGMAS = 3.0
_BLOCK_ELEMENTS = 2 ** 15  # kernel terms per GaussianKde block: 256 KB of float64


@dataclass(frozen=True)
class GaussianKde:
    """Gaussian-kernel mixture density over a fixed sample set.

    Evaluates to the average of unit-mass Gaussian kernels centered at the
    samples, so the density integrates to 1 over the reals.  The points are
    evaluated in blocks of _BLOCK_ELEMENTS // n_samples (at least one) into
    two reused buffers, 256 KB each up to 2**15 samples, whatever the number
    of points.  Each point's kernel terms form one contiguous row summed as a
    whole, so the result is bit-identical for every block size.
    """

    samples: np.ndarray
    bandwidth: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        rows = max(1, _BLOCK_ELEMENTS // self.samples.size)
        z = np.empty((min(rows, flat.size), self.samples.size))
        t = np.empty_like(z)
        sums = np.empty(flat.size)
        for a in range(0, flat.size, rows):
            b = min(a + rows, flat.size)
            zz, tt = z[:b - a], t[:b - a]  # in place: exp(-0.5 * z * z), z = (x - s) / h
            np.subtract(flat[a:b, None], self.samples, out=zz)
            zz /= self.bandwidth
            np.multiply(zz, -0.5, out=tt)
            tt *= zz
            np.exp(tt, out=tt)
            tt.sum(axis=-1, out=sums[a:b])
        norm = self.samples.size * self.bandwidth * math.sqrt(2.0 * math.pi)
        out = sums.reshape(x.shape) / norm
        return float(out) if out.ndim == 0 else out


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sigma * N^(-1/5)."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by fit_kde
        sigma = float(np.std(samples, ddof=1))
    return 1.06 * sigma * samples.size ** (-0.2)


def fit_kde(samples, bandwidth: float | None = None) -> GaussianKde:
    """Fit a Gaussian-kernel density to 1-D samples.

    If no bandwidth is given, Silverman's rule of thumb is used; that rule
    needs a nonzero sample spread.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("samples must all be finite")
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 samples to fit, got {arr.size}")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(arr)
        if bandwidth == 0.0:
            raise InsufficientDataError(
                "samples have zero spread; supply an explicit bandwidth"
            )
        if not math.isfinite(bandwidth):
            raise InvalidRangeError("sample spread overflows float range; "
                                    "no finite bandwidth")
    bandwidth = float(bandwidth)
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    arr = arr.copy()
    arr.flags.writeable = False
    return GaussianKde(samples=arr, bandwidth=bandwidth)


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
    """Integer parts of x clamped to 0..last, an int for 0-d x; a NaN raises ValueError.

    x is a fresh float array, clamped in place."""
    # min propagates NaN, so the common case needs no full-size mask
    if x.size and np.isnan(x.min()):
        raise ValueError(nan_message)
    # clamp before the integer cast, so infinities never reach it
    if not x.ndim:  # a 0-d input gives a numpy scalar, which has no buffer to clamp in place
        return int(min(max(x, 0.0), last))
    np.maximum(x, 0, out=x)
    np.minimum(x, last, out=x)
    return x.astype(np.intp)


@dataclass(frozen=True)
class DiscretePdf:
    """Piecewise-constant pdf on [lo, hi] with equal-width bins.

    Guarantees: bins are strictly positive and sum(bins) * bin_width == 1
    within 1e-9, so likelihood ratios never collapse a posterior to exactly
    0 or 1.
    """

    lo: float
    hi: float
    bins: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise InvalidRangeError(f"need finite hi > lo, got [{self.lo}, {self.hi}]")
        bins = np.asarray(self.bins, dtype=float)
        if bins.ndim != 1 or bins.size < 2:
            raise ValueError(f"bins must be 1-D with >= 2 entries, got shape {bins.shape}")
        if not np.all(np.isfinite(bins)) or bins.min() <= 0.0:
            raise ValueError("bins must be finite and strictly positive")
        if abs(float(bins.sum()) * (self.hi - self.lo) / bins.size - 1.0) > 1e-9:
            raise ValueError("bins do not integrate to 1 over [lo, hi]")
        bins = bins.copy()
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)

    @classmethod
    def from_weights(cls, lo, hi, weights) -> "DiscretePdf":
        """Build a pdf whose bin masses are proportional to `weights`."""
        weights = np.asarray(weights, dtype=float)
        width = (hi - lo) / weights.size
        return cls(lo=float(lo), hi=float(hi), bins=_floor_normalize(weights / width, width))

    @property
    def n_bins(self) -> int:
        return int(self.bins.size)

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins.size

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.bins.size) + 0.5) * self.bin_width

    def bin_index(self, m):
        """Bin containing score m, elementwise over arrays.

        Out-of-support scores, ±inf included, clamp to the edge bins.  A NaN
        score has no bin and raises ValueError.
        """
        return _clamped_index((np.asarray(m, dtype=float) - self.lo) / self.bin_width,
                              self.bins.size - 1, "a NaN score has no bin")

    def evaluate(self, m: float) -> float:
        return float(self.bins[self.bin_index(m)])


def discretize(density, lo: float, hi: float, n_bins: int = DEFAULT_BINS) -> DiscretePdf:
    """Sample a continuous density at bin centers and normalize into a DiscretePdf."""
    if not (hi > lo):
        raise InvalidRangeError(f"need hi > lo, got [{lo}, {hi}]")
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    if n_bins * 8 > np.iinfo(np.intp).max:  # numpy's own limit: "array is too big"
        raise CapacityError(f"{n_bins} bins need {n_bins * 8} bytes per array, "
                            f"more than numpy can allocate")
    width = (hi - lo) / n_bins
    centers = lo + (np.arange(n_bins) + 0.5) * width
    raw = np.asarray(density(centers), dtype=float)
    if raw.shape != centers.shape:
        raise ValueError("density evaluator must return one value per bin center")
    if not np.all(np.isfinite(raw)):
        raise ValueError("density evaluated to non-finite values")
    return DiscretePdf(lo=float(lo), hi=float(hi),
                       bins=_floor_normalize(raw, width))


@dataclass(frozen=True)
class ScoreSampleSet:
    """Labeled score samples for one part."""

    part_id: int
    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        for name in ("positives", "negatives"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contain non-finite scores (part {self.part_id})")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ScoreLikelihood:
    """Positive and negative score densities for one part, on a shared support."""

    part_id: int
    pos: DiscretePdf
    neg: DiscretePdf

    def __post_init__(self):
        if (self.pos.lo, self.pos.hi, self.pos.n_bins) != (self.neg.lo, self.neg.hi, self.neg.n_bins):
            raise ValueError(f"pos/neg pdfs must share support and bin count (part {self.part_id})")


def _check_part_set(likelihoods) -> None:
    """ConfigurationError unless `likelihoods` are parts 0..n-1 in order, n >= 1, with one bin
    count: part k is bit k of a policy's masks, action 2+k and column k of the responses."""
    ids = [lik.part_id for lik in likelihoods]
    if not ids or ids != list(range(len(ids))):
        raise ConfigurationError(f"part ids must be 0..n-1 in order with n >= 1, got {ids}")
    bin_counts = sorted({lik.pos.n_bins for lik in likelihoods})
    if len(bin_counts) > 1:
        raise ConfigurationError(f"parts must share one bin count, got {bin_counts}")


def _likelihoods_sha256(likelihoods) -> str:
    """sha256 over each part's lo, hi, pos and neg bins, in order, as little-endian float64.

    A likelihood file and the policy trained on it share this digest; a JSON
    round trip keeps every float, so it survives `save_likelihoods`."""
    digest = hashlib.sha256()
    for lik in likelihoods:
        for values in ([lik.pos.lo, lik.pos.hi], lik.pos.bins, lik.neg.bins):
            digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


def fit_part_likelihood(sample_set: ScoreSampleSet, bandwidth: float | None = None,
                        n_bins: int = DEFAULT_BINS) -> ScoreLikelihood:
    """Fit positive/negative KDEs and discretize them onto a shared support.

    The support is the pooled sample range padded by 3 pooled standard
    deviations on each side, so both densities stay evaluable at any score
    seen in training and at moderate extrapolations.
    """
    kdes = []
    for name, samples in (("pos", sample_set.positives), ("neg", sample_set.negatives)):
        try:
            kdes.append(fit_kde(samples, bandwidth))
        except InsufficientDataError as exc:
            raise InsufficientDataError(f"part {sample_set.part_id} '{name}' samples: {exc}") from exc
    pooled = np.concatenate([sample_set.positives, sample_set.negatives])
    sigma = float(np.std(pooled, ddof=1))
    if sigma == 0.0:
        raise InsufficientDataError(f"pooled samples have zero spread (part {sample_set.part_id})")
    lo = float(pooled.min()) - SUPPORT_PADDING_SIGMAS * sigma
    hi = float(pooled.max()) + SUPPORT_PADDING_SIGMAS * sigma
    try:
        pos, neg = (discretize(kde, lo, hi, n_bins) for kde in kdes)
    except InvalidRangeError as exc:
        raise InvalidRangeError(f"part {sample_set.part_id}: {exc}") from exc
    return ScoreLikelihood(part_id=sample_set.part_id, pos=pos, neg=neg)


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
        {
            "part_id": lik.part_id,
            "lo": lik.pos.lo,
            "hi": lik.pos.hi,
            "pos": lik.pos.bins.tolist(),
            "neg": lik.neg.bins.tolist(),
        }
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
            lo, hi = _json_real(entry["lo"]), _json_real(entry["hi"])
            out.append(ScoreLikelihood(
                part_id=_json_int(entry["part_id"]),
                pos=DiscretePdf(lo=lo, hi=hi, bins=list(map(_json_real, entry["pos"]))),
                neg=DiscretePdf(lo=lo, hi=hi, bins=list(map(_json_real, entry["neg"]))),
            ))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise FormatError(f"{path}: malformed part entry: {exc}") from exc
    out.sort(key=lambda l: l.part_id)
    try:
        _check_part_set(out)
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return out
