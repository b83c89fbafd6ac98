"""Per-part score likelihoods: Gaussian KDE fits discretized into fixed-bin histograms.

A part's response behaves differently depending on whether the object is
actually present, so each part carries two densities: one fitted to scores
recorded at positive placements and one at background placements.  Both are
discretized onto a shared support so that belief updates and policy training
can evaluate them with a single bin lookup.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InsufficientDataError, InvalidRangeError

DEFAULT_BINS = 201
PDF_FLOOR = 1e-6
SUPPORT_PADDING_SIGMAS = 3.0


@dataclass(frozen=True)
class GaussianKde:
    """Gaussian-kernel mixture density over a fixed sample set.

    Evaluates to the average of unit-mass Gaussian kernels centered at the
    samples, so the density integrates to 1 over the reals.
    """

    samples: np.ndarray
    bandwidth: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.samples) / self.bandwidth
        norm = self.samples.size * self.bandwidth * math.sqrt(2.0 * math.pi)
        out = np.exp(-0.5 * z * z).sum(axis=-1) / norm
        return float(out) if out.ndim == 0 else out


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sigma * N^(-1/5)."""
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
    bandwidth = float(bandwidth)
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    arr = arr.copy()
    arr.flags.writeable = False
    return GaussianKde(samples=arr, bandwidth=bandwidth)


def _floor_normalize(raw: np.ndarray, width: float, floor: float) -> np.ndarray:
    """Floor bin densities at `floor` and renormalize to unit mass.

    Solves for the scale c such that max(c * raw, floor) integrates to 1
    under the bin widths, so the result satisfies both the normalization
    and the minimum-density guarantee simultaneously.
    """
    raw = np.maximum(np.asarray(raw, dtype=float), 0.0)
    if not (floor > 0.0):
        raise ValueError("floor must be positive")
    if floor * width * raw.size >= 1.0:
        raise InvalidRangeError("support too wide: floor mass alone exceeds unit mass")
    total = float(raw.sum()) * width
    if total <= 0.0:
        return np.full(raw.size, 1.0 / (width * raw.size))
    bins = raw / total
    if bins.min() >= floor:
        return bins
    # bisect on the scale: mass(c) is nondecreasing, mass(0) < 1 <= mass(1/total)
    c_lo, c_hi = 0.0, 1.0 / total
    for _ in range(80):
        c = 0.5 * (c_lo + c_hi)
        if float(np.maximum(c * raw, floor).sum()) * width > 1.0:
            c_hi = c
        else:
            c_lo = c
    bins = np.maximum(c_lo * raw, floor)
    bins = bins / (float(bins.sum()) * width)
    return np.maximum(bins, floor)


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
    def from_weights(cls, lo, hi, weights, pdf_floor: float = PDF_FLOOR) -> "DiscretePdf":
        """Build a pdf whose bin masses are proportional to `weights`."""
        weights = np.asarray(weights, dtype=float)
        width = (hi - lo) / weights.size
        return cls(lo=float(lo), hi=float(hi), bins=_floor_normalize(weights / width, width, pdf_floor))

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
        x = (np.asarray(m, dtype=float) - self.lo) / self.bin_width
        if np.isnan(x).any():
            raise ValueError("a NaN score has no bin")
        # clamp before the integer cast, so infinities never reach it
        idx = np.clip(x, 0, self.bins.size - 1).astype(np.intp)
        return idx if idx.ndim else int(idx)

    def evaluate(self, m: float) -> float:
        return float(self.bins[self.bin_index(m)])


def discretize(density, lo: float, hi: float, n_bins: int = DEFAULT_BINS,
               pdf_floor: float = PDF_FLOOR) -> DiscretePdf:
    """Sample a continuous density at bin centers and normalize into a DiscretePdf."""
    if not (hi > lo):
        raise InvalidRangeError(f"need hi > lo, got [{lo}, {hi}]")
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    width = (hi - lo) / n_bins
    centers = lo + (np.arange(n_bins) + 0.5) * width
    raw = np.asarray(density(centers), dtype=float)
    if raw.shape != centers.shape:
        raise ValueError("density evaluator must return one value per bin center")
    if not np.all(np.isfinite(raw)):
        raise ValueError("density evaluated to non-finite values")
    return DiscretePdf(lo=float(lo), hi=float(hi),
                       bins=_floor_normalize(raw, width, pdf_floor))


def eval_pdf(pdf: DiscretePdf, m: float) -> float:
    """Density of `pdf` at score m (total: clamps out-of-support scores)."""
    return pdf.evaluate(m)


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


def fit_part_likelihood(sample_set: ScoreSampleSet, bandwidth: float | None = None,
                        n_bins: int = DEFAULT_BINS,
                        pdf_floor: float = PDF_FLOOR) -> ScoreLikelihood:
    """Fit positive/negative KDEs and discretize them onto a shared support.

    The support is the pooled sample range padded by 3 pooled standard
    deviations on each side, so both densities stay evaluable at any score
    seen in training and at moderate extrapolations.
    """
    kde_pos = fit_kde(sample_set.positives, bandwidth)
    kde_neg = fit_kde(sample_set.negatives, bandwidth)
    pooled = np.concatenate([sample_set.positives, sample_set.negatives])
    sigma = float(np.std(pooled, ddof=1))
    if sigma == 0.0:
        raise InsufficientDataError(f"pooled samples have zero spread (part {sample_set.part_id})")
    lo = float(pooled.min()) - SUPPORT_PADDING_SIGMAS * sigma
    hi = float(pooled.max()) + SUPPORT_PADDING_SIGMAS * sigma
    return ScoreLikelihood(
        part_id=sample_set.part_id,
        pos=discretize(kde_pos, lo, hi, n_bins, pdf_floor),
        neg=discretize(kde_neg, lo, hi, n_bins, pdf_floor),
    )


# ---------------------------------------------------------------------------
# Persistence: samples CSV (part_id,label,score) and likelihoods JSON.

def read_sample_sets(path) -> list[ScoreSampleSet]:
    """Read labeled samples from a CSV with header part_id,label,score."""
    pos: dict[int, list[float]] = {}
    neg: dict[int, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"part_id", "label", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise FormatError(f"{path}: expected header part_id,label,score")
        for lineno, row in enumerate(reader, start=2):
            try:
                part = int(row["part_id"])
                score = float(row["score"])
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: bad row {row!r}") from exc
            label = row["label"]
            if label == "pos":
                pos.setdefault(part, []).append(score)
                neg.setdefault(part, [])
            elif label == "neg":
                neg.setdefault(part, []).append(score)
                pos.setdefault(part, [])
            else:
                raise FormatError(f"{path}:{lineno}: label must be pos or neg, got {label!r}")
    return [ScoreSampleSet(part_id=k, positives=pos[k], negatives=neg[k]) for k in sorted(pos)]


def save_sample_sets(sets, path) -> None:
    lines = ["part_id,label,score"]
    for s in sets:
        lines.extend(f"{s.part_id},pos,{float(v)!r}" for v in s.positives)
        lines.extend(f"{s.part_id},neg,{float(v)!r}" for v in s.negatives)
    Path(path).write_text("\n".join(lines) + "\n")


def save_likelihoods(likelihoods, path) -> None:
    """Write likelihoods as a JSON array of per-part objects."""
    payload = [
        {
            "part_id": lik.part_id,
            "lo": lik.pos.lo,
            "hi": lik.pos.hi,
            "pos": [float(v) for v in lik.pos.bins],
            "neg": [float(v) for v in lik.neg.bins],
        }
        for lik in sorted(likelihoods, key=lambda l: l.part_id)
    ]
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_likelihoods(path) -> list[ScoreLikelihood]:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not a valid likelihood file: {exc}") from exc
    if not isinstance(payload, list) or not payload:
        raise FormatError(f"{path}: expected a non-empty JSON array of parts")
    out = []
    for entry in payload:
        try:
            out.append(ScoreLikelihood(
                part_id=int(entry["part_id"]),
                pos=DiscretePdf(lo=float(entry["lo"]), hi=float(entry["hi"]),
                                bins=np.asarray(entry["pos"], dtype=float)),
                neg=DiscretePdf(lo=float(entry["lo"]), hi=float(entry["hi"]),
                                bins=np.asarray(entry["neg"], dtype=float)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed part entry: {exc}") from exc
    return sorted(out, key=lambda l: l.part_id)
