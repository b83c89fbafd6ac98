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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, InvalidRangeError
from .inference import (
    DetectionResults,
    DetectorModel,
    InferenceStats,
    MatrixResponseProvider,
    POS_LABEL,
    run_grid,
)
from .likelihoods import ScoreSampleSet, _likelihoods_sha256, fit_part_likelihood
from .policy import LABEL_POS, BeliefGrid, CostParams, Policy, _check_training_bytes, train_policy

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
    InvalidParameterError.  `lambda_sweep` takes both a point's AP and
    ap_full, the always-foreground pass's, from here.
    """
    truth = np.asarray(truth, dtype=bool)
    location_id, _, scores = _columns(results)
    n_positive = int(truth.sum())
    if n_positive == 0:
        raise InvalidParameterError("precision/recall needs at least one positive location")
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    labels = truth[location_id][order]
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


def lambda_sweep(spec: SyntheticSpec, lambda_grid, grid: BeliefGrid | None = None) -> list[SweepRow]:
    """Train and evaluate one policy per (lambda_fp, lambda_fn) grid point; one row each.

    Every point's CostParams is built first, so an empty grid, a cost that is
    not finite and positive, or a repeated point raises InvalidParameterError
    before any work.  All points share the synthetic likelihoods, responses
    and ap_full: the AP of one `run_grid` pass of the always-foreground policy,
    whose scores are `full_score`'s bit for bit.  That pass comes before any
    training, so a spec with no positive location raises InvalidParameterError
    there, and it builds the successor table every point reuses.
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
    grid = grid or BeliefGrid()
    n = model.n_parts
    _check_training_bytes(n, grid.d)  # the full detector's table is as large as a trained one's
    full = Policy(n_parts=n, grid=grid, costs=costs[0],
                  actions=np.full((1 << n, grid.d), LABEL_POS, dtype=np.uint8),
                  values=costs[0].lambda_fp * (1.0 - grid.centers),
                  likelihoods_sha256=_likelihoods_sha256(model.likelihoods))
    ap_full = precision_recall(run_grid(model, full, provider)[0], truth).average_precision
    rows = []
    for c in costs:
        results, stats = run_grid(model, train_policy(model.likelihoods, c, grid), provider)
        counts = classification_counts(results, truth)
        ap = precision_recall(results, truth).average_precision
        rows.append(SweepRow(c.lambda_fp, c.lambda_fn, ap,
                             compute_rnpe(stats, n, provider.n_locations),
                             stats.mean_tau, counts.fp_rate, counts.fn_rate, ap_full, ap_full - ap))
    return rows


def save_sweep_csv(rows: list[SweepRow], path) -> None:
    """One line per row of `lambda_sweep`, with SweepRow's fields as the columns, in their order."""
    names = [f.name for f in fields(SweepRow)]
    lines = [",".join(names)]
    lines.extend(",".join(repr(float(getattr(r, n))) for n in names) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n")
