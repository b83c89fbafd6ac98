"""Synthetic detectors with known ground truth, and the evaluation quantities.

Per part, positive and negative responses are unit-variance Gaussians whose
means are separated by `separation` scaled by a per-part informativeness
multiplier.  The stored likelihoods are fitted from a held-out sample draw
rather than the analytic truth, so policies face the same estimation error a
deployed detector would.
"""

from __future__ import annotations

import math
from collections.abc import Sized
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
from .likelihoods import (ScoreSampleSet, _is_integer, _is_number, _is_real,
                          _likelihoods_sha256, fit_part_likelihood)
from .policy import LABEL_POS, BeliefGrid, CostParams, Policy, _check_training_bytes, train_policy

DEFAULT_PROFILE_RATIO = 0.8


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
            if not (_is_integer(v) and v >= least):
                raise InvalidParameterError(f"{name} must be an integer >= {least}, got {v!r}")
        if not (_is_real(self.separation) and self.separation >= 0.0):
            raise InvalidParameterError(f"separation must be finite and >= 0, got {self.separation!r}")
        if not (_is_real(self.prior_positive) and 0.0 <= self.prior_positive <= 1.0):
            raise InvalidParameterError(f"prior_positive must be in [0, 1], got {self.prior_positive!r}")
        if self.informativeness_profile is not None:
            profile = self.informativeness_profile
            if not (isinstance(profile, (list, tuple, np.ndarray))
                    and all(_is_real(v) and v >= 0.0 for v in profile)):
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
    Gaussian.  Likelihoods are fitted from an independent training draw.  The
    class means are added to the noise matrix in place (x - m is x + (-m) bit
    for bit), so beside the provider's score matrix synthesis holds only the
    truth labels and the fits' fixed-size temporaries: tests bound its peak
    at 1.25x the matrix.
    """
    rng = np.random.default_rng(spec.seed)
    means = 0.5 * spec.separation * spec.multipliers
    truth = rng.random(spec.n_locations) < spec.prior_positive
    scores = rng.standard_normal((spec.n_locations, spec.n_parts))
    np.add(scores, means, out=scores, where=truth[:, None])
    np.subtract(scores, means, out=scores, where=~truth[:, None])
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


def _readable(results):
    """results itself if it can be read more than once (a DetectionResults or any sized
    iterable of results), else a list of the one-shot iterable's results."""
    return results if isinstance(results, Sized) else list(results)


def _column(results, name: str) -> np.ndarray:
    """Column `name` (location_id, positive or score) of `_readable` results: a
    DetectionResults's own array, or read object by object into one array and nothing else.
    InvalidParameterError for a row that is not a result, a non-integer id or a non-number score."""
    if isinstance(results, DetectionResults):
        return getattr(results, name)

    def checked(is_valid, what):
        for r in results:
            v = getattr(r, name)
            if not is_valid(v):
                raise InvalidParameterError(f"result {name} must be {what}, got {v!r}")
            yield v

    try:
        if name == "positive":
            return np.fromiter((r.label == POS_LABEL for r in results), bool, len(results))
        if name == "location_id":
            return np.fromiter(checked(_is_integer, "an integer"), np.intp, len(results))
        return np.fromiter(checked(_is_number, "a number"), float, len(results))
    except (AttributeError, OverflowError) as exc:  # not a result, or an id no array can hold
        raise InvalidParameterError(f"malformed results: {exc}") from exc


def _truth_at(truth, location_id: np.ndarray) -> np.ndarray:
    """The truth labels at `location_id`; InvalidParameterError for an id below 0 or past the
    truth's end."""
    truth = np.asarray(truth, dtype=bool)
    if location_id.size:
        lo, hi = location_id.min(), location_id.max()
        if lo < 0 or hi >= truth.size:
            raise InvalidParameterError(f"no truth label for location {lo if lo < 0 else hi}")
    return truth[location_id]


def classification_counts(results, truth) -> ClassificationCounts:
    """tp/fp/tn/fn of the results' labels against the truth at their locations.  It reads only
    the location ids and labels, and holds about 9 bytes per result (tests bound it at 16)."""
    results = _readable(results)
    actual = _truth_at(truth, _column(results, "location_id"))
    predicted = _column(results, "positive")
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    return ClassificationCounts(tp=tp, fp=fp, tn=actual.size - tp - fp - fn, fn=fn)


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

    Beside the curve it holds the labels, the scores and their sort order, dropping the
    location ids once it has the labels and the order once it has applied it.  On a list of
    2e5 results, 2% of them foreground, tests bound its peak at 30 bytes per result; the
    curve's own arrays add about 50 bytes per distinct score.
    """
    truth = np.asarray(truth, dtype=bool)
    n_positive = int(truth.sum())
    if n_positive == 0:
        raise InvalidParameterError("precision/recall needs at least one positive location")
    results = _readable(results)
    labels = _truth_at(truth, _column(results, "location_id"))
    scores = _column(results, "score")
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    del order
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

    Every point's CostParams is built first, so an empty grid, a point that is not a pair of
    finite positive numbers, or a repeated point raises InvalidParameterError before any
    work.  All points share the synthetic likelihoods, responses and ap_full: the AP of one
    `run_grid` pass of the always-foreground policy, whose scores are `full_score`'s bit for
    bit.  That pass comes before any training, so a spec with no positive location raises
    InvalidParameterError there, and it builds the successor table every point reuses.
    """
    try:
        costs = [CostParams(fp, fn) for fp, fn in lambda_grid]
    except (TypeError, ValueError) as exc:  # CostParams' error, or a point that is not a pair
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
