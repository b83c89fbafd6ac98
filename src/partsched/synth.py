"""Synthetic detectors with known ground truth, and the evaluation quantities.

Per part, positive and negative responses are unit-variance Gaussians whose
means are separated by `separation` scaled by a per-part informativeness
multiplier.  The stored likelihoods are fitted from a held-out sample draw
rather than the analytic truth, so policies face the same estimation error a
deployed detector would.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, InvalidRangeError
from .inference import (
    DetectionResults,
    DetectorModel,
    InferenceStats,
    MatrixResponseProvider,
    POS_LABEL,
    _fetch,
    run_grid,
)
from .likelihoods import ScoreSampleSet, fit_part_likelihood
from .policy import BeliefGrid, CostParams, train_policy

DEFAULT_PROFILE_RATIO = 0.8


def _is_finite(v) -> bool:
    """Whether v is a number, not a bool, within the float range (an int may lie beyond it)."""
    return (isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class SyntheticSpec:
    """Configuration of one synthetic detector + location grid."""

    n_parts: int
    separation: float
    prior_positive: float
    n_locations: int
    seed: int
    informativeness_profile: tuple[float, ...] | None = None
    train_samples: int = 2000

    def __post_init__(self):
        for name, least in (("n_parts", 1), ("n_locations", 1), ("seed", 0), ("train_samples", 2)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
                raise InvalidParameterError(f"{name} must be an integer >= {least}, got {v!r}")
        if not (_is_finite(self.separation) and self.separation >= 0.0):
            raise InvalidParameterError(f"separation must be finite and >= 0, got {self.separation!r}")
        if not (_is_finite(self.prior_positive) and 0.0 <= self.prior_positive <= 1.0):
            raise InvalidParameterError(f"prior_positive must be in [0, 1], got {self.prior_positive!r}")
        if self.informativeness_profile is not None:
            profile = self.informativeness_profile
            if not (isinstance(profile, (list, tuple, np.ndarray))
                    and all(_is_finite(v) and v >= 0.0 for v in profile)):
                raise InvalidParameterError("informativeness_profile must be a list of finite "
                                            f"multipliers >= 0, got {profile!r}")
            if len(profile) != self.n_parts:
                raise InvalidParameterError("informativeness_profile must have one multiplier per part")
            object.__setattr__(self, "informativeness_profile", tuple(float(v) for v in profile))

    @property
    def multipliers(self) -> np.ndarray:
        """Per-part separation multipliers; defaults to a descending geometric sequence."""
        if self.informativeness_profile is not None:
            return np.asarray(self.informativeness_profile)
        return DEFAULT_PROFILE_RATIO ** np.arange(self.n_parts)


def make_synthetic(spec: SyntheticSpec,
                   costs: CostParams | None = None
                   ) -> tuple[DetectorModel, MatrixResponseProvider, np.ndarray]:
    """Build (model, response provider, truth labels) from a spec, deterministically.

    Truth labels are Bernoulli(prior); responses come from the labeled class's
    Gaussian.  Likelihoods are fitted from an independent training draw.
    """
    rng = np.random.default_rng(spec.seed)
    means = 0.5 * spec.separation * spec.multipliers
    truth = rng.random(spec.n_locations) < spec.prior_positive
    noise = rng.standard_normal((spec.n_locations, spec.n_parts))
    scores = noise + np.where(truth[:, None], means[None, :], -means[None, :])
    likelihoods = []
    for k in range(spec.n_parts):
        pos = rng.standard_normal(spec.train_samples) + means[k]
        neg = rng.standard_normal(spec.train_samples) - means[k]
        try:
            likelihoods.append(fit_part_likelihood(ScoreSampleSet(k, pos, neg)))
        except InvalidRangeError as exc:  # the spec's scale, not a file, is at fault
            raise InvalidParameterError(f"separation {spec.separation!r} too wide: {exc}") from exc
    model = DetectorModel(bias=0.0, likelihoods=tuple(likelihoods),
                          costs=costs or CostParams(20.0, 5.0))
    return model, MatrixResponseProvider(scores), truth


def compute_rnpe(stats: InferenceStats, n_parts: int, n_locations: int) -> float:
    """Ratio of exhaustive non-root evaluations to the engine's.

    The exhaustive baseline evaluates every non-root part everywhere, i.e.
    (n_parts - 1) * n_locations times.  An engine that never evaluated a
    non-root part gets the infinity flag rather than an error.
    """
    if stats.non_root_evals == 0:
        return math.inf
    return (n_parts - 1) * n_locations / stats.non_root_evals


@dataclass(frozen=True)
class ClassificationCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def fp_rate(self) -> float:
        return self.fp / (self.fp + self.tn) if (self.fp + self.tn) else 0.0

    @property
    def fn_rate(self) -> float:
        return self.fn / (self.fn + self.tp) if (self.fn + self.tp) else 0.0

    @property
    def error_rate(self) -> float:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.fp + self.fn) / total if total else 0.0


def _columns(results) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(location_id, positive, score) of results: a DetectionResults's own
    columns, or read object by object from any other iterable of results."""
    if isinstance(results, DetectionResults):
        return results.location_id, results.positive, results.score
    results = list(results)
    return (np.array([r.location_id for r in results], dtype=np.intp),
            np.array([r.label == POS_LABEL for r in results], dtype=bool),
            np.array([r.score for r in results]))


def classification_counts(results, truth) -> ClassificationCounts:
    location_id, predicted, _ = _columns(results)
    actual = np.asarray(truth, dtype=bool)[location_id]
    tn, fn, fp, tp = np.bincount(2 * predicted + actual, minlength=4).tolist()
    return ClassificationCounts(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass(frozen=True)
class PrCurve:
    precision: np.ndarray
    recall: np.ndarray
    thresholds: np.ndarray
    average_precision: float


def precision_recall(results, truth) -> PrCurve:
    """Location-level precision/recall sweep over score thresholds.

    Background-labeled locations carry -inf scores and therefore rank below
    every foreground-labeled one; equal scores move across a threshold as one
    group.  Average precision integrates the interpolated (monotone envelope)
    precision over recall.  Truth without a positive location is an
    InvalidParameterError.
    """
    truth = np.asarray(truth, dtype=bool)
    location_id, _, scores = _columns(results)
    return _curve(scores, truth[location_id], int(truth.sum()))


def _curve(scores, labels, n_positive) -> PrCurve:
    if n_positive == 0:
        raise InvalidParameterError("precision/recall needs at least one positive location")
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    labels = labels[order]
    # one threshold per distinct score value, at its last index; equality (not
    # diff) so tied -inf groups stay single thresholds
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], scores.size > 0))
    tp_cum = np.cumsum(labels)[ends]
    n_cum = ends + 1
    precision = tp_cum / n_cum
    recall = tp_cum / n_positive
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    ap = float(((recall - recall_prev) * envelope).sum())
    return PrCurve(precision=precision, recall=recall,
                   thresholds=scores[ends], average_precision=ap)


@dataclass(frozen=True)
class SweepRow:
    """One cost point.  ap_full is the AP of `full_score` everywhere; delta_ap = ap_full - ap."""

    lambda_fp: float
    lambda_fn: float
    ap: float
    rnpe: float
    mean_tau: float
    fp_rate: float
    fn_rate: float
    ap_full: float
    delta_ap: float


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    def diagonal_diagnostics(self) -> dict:
        """Trend checks along the equal-cost diagonal: error down, savings ratio down."""
        diag = sorted((r for r in self.rows if r.lambda_fp == r.lambda_fn),
                      key=lambda r: r.lambda_fp)
        errors = [r.fp_rate + r.fn_rate for r in diag]
        rnpes = [r.rnpe for r in diag]
        return {
            "lambdas": [r.lambda_fp for r in diag],
            "total_error": errors,
            "rnpe": rnpes,
            "error_nonincreasing": all(b <= a for a, b in zip(errors, errors[1:])),
            "rnpe_nonincreasing": all(b <= a for a, b in zip(rnpes, rnpes[1:])),
        }


def _full_scores(model: DetectorModel, provider) -> np.ndarray:
    """`full_score` at every location, bit for bit, from one provider call per part.

    The columns are summed left to right in part-index order from 0.0, then
    the bias is added, as `full_score` adds them one location at a time.  A NaN
    response is a ProviderError; +inf and -inf at one location sum to NaN."""
    ids = np.arange(provider.n_locations)
    total = np.zeros(provider.n_locations)
    with np.errstate(invalid="ignore"):
        for k in range(model.n_parts):
            total += _fetch(provider, ids, k)
        return total + model.bias


def lambda_sweep(spec: SyntheticSpec, lambda_grid, grid: BeliefGrid | None = None) -> SweepResult:
    """Train and evaluate one policy per (lambda_fp, lambda_fn) grid point.

    All points share the same synthetic likelihoods, response grid and
    ap_full, the AP of `full_score` at every location.  Every point's
    CostParams is built first, so an empty grid, a cost that is not finite and
    positive, or a repeated point raises InvalidParameterError before any work,
    as a spec with no positive location does before any training.
    """
    try:
        costs = [CostParams(float(fp), float(fn)) for fp, fn in lambda_grid]
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"lambda grid values must be finite and positive: {exc}") from exc
    if not costs:
        raise InvalidParameterError("lambda grid must be non-empty")
    if len(set(costs)) != len(costs):
        raise InvalidParameterError("lambda grid points must be unique")
    model, provider, truth = make_synthetic(spec)
    ap_full = _curve(_full_scores(model, provider), truth, int(truth.sum())).average_precision
    out = SweepResult()
    for c in costs:
        results, stats = run_grid(model, train_policy(model.likelihoods, c, grid), provider)
        counts = classification_counts(results, truth)
        ap = precision_recall(results, truth).average_precision
        out.rows.append(SweepRow(c.lambda_fp, c.lambda_fn, ap,
                                 compute_rnpe(stats, model.n_parts, provider.n_locations),
                                 stats.mean_tau, counts.fp_rate, counts.fn_rate, ap_full, ap_full - ap))
    return out


def save_sweep_csv(result: SweepResult, path) -> None:
    """One row per point, with SweepRow's fields as the columns, in their order."""
    names = [f.name for f in fields(SweepRow)]
    lines = [",".join(names)]
    lines.extend(",".join(repr(float(getattr(r, n))) for n in names) for r in result.rows)
    Path(path).write_text("\n".join(lines) + "\n")
