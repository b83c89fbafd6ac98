"""Sequential inference over candidate locations.

Each location starts from an uninformative belief and repeatedly asks the
policy what to do: evaluate some part (pay for it, add its response to the
running score, update the belief) or stop with a label.  A foreground stop
evaluates whatever parts remain so the reported score is the complete
additive score; a background stop reports negative infinity.

All locations of a pass advance together as one frontier over arrays (used
mask, exact float posterior, running score, evaluation count and order).
Each round looks up every live location's action at once, retires the ones
that got a label, and fetches the requested responses with one provider
call per part.  The arithmetic per location is the same sequence of float
operations as evaluating that location alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArityMismatchError, FormatError, InvalidActionError, ProviderError
from .likelihoods import ScoreLikelihood
from .policy import (
    LABEL_POS,
    CostParams,
    Policy,
    action_part,
    belief_update,
    is_part_action,
)

POS_LABEL = "pos"
NEG_LABEL = "neg"


class ResponseProvider:
    """Source of part responses, keyed by (location, part).

    Responses must be deterministic per (location, part); the engine asks for
    each pair at most once per pass.  It asks in batches: one
    `get_responses(location_ids, part_id)` call per requested part per
    round, with a 1-D integer array of location ids, expecting one float
    per id back.  The default `get_responses` calls `get_response` once per
    id, so a subclass that implements only `get_response` sees every fetch.
    A NaN response is a provider fault (ProviderError); ±inf responses fall
    into the part's edge score bins.
    """

    n_parts: int
    n_locations: int

    def get_response(self, location_id: int, part_id: int) -> float:
        raise NotImplementedError

    def get_responses(self, location_ids, part_id: int) -> np.ndarray:
        """Part `part_id`'s response at each of `location_ids`, one `get_response` call per id."""
        return np.array([_response(self, loc, part_id)
                         for loc in np.asarray(location_ids).tolist()], dtype=float)


class MatrixResponseProvider(ResponseProvider):
    """Responses backed by a dense (n_locations, n_parts) matrix.

    `get_responses` gathers `scores[location_ids, part_id]` in one step only
    while `get_response` is this class's own.  A subclass that overrides
    `get_response` (to count, log or alter fetches) gets the per-id default,
    so its override still sees every fetch.
    """

    def __init__(self, scores):
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 2:
            raise ValueError(f"scores must be 2-D, got shape {scores.shape}")
        self.scores = scores

    @property
    def n_locations(self) -> int:
        return self.scores.shape[0]

    @property
    def n_parts(self) -> int:
        return self.scores.shape[1]

    def get_response(self, location_id: int, part_id: int) -> float:
        return float(self.scores[location_id, part_id])

    def get_responses(self, location_ids, part_id: int) -> np.ndarray:
        if type(self).get_response is not MatrixResponseProvider.get_response:
            return super().get_responses(location_ids, part_id)
        return self.scores[location_ids, part_id]


@dataclass(frozen=True)
class DetectorModel:
    """Additive-score detector: per-part likelihoods, a bias term, and costs."""

    bias: float
    likelihoods: tuple[ScoreLikelihood, ...]
    costs: CostParams

    def __post_init__(self):
        likelihoods = tuple(self.likelihoods)
        if not likelihoods:
            raise ValueError("model needs at least one part")
        for k, lik in enumerate(likelihoods):
            if lik.part_id != k:
                raise ValueError(f"likelihoods must be ordered by part_id 0..n, got {lik.part_id} at {k}")
        object.__setattr__(self, "likelihoods", likelihoods)

    @property
    def n_parts(self) -> int:
        return len(self.likelihoods)


@dataclass(frozen=True)
class DetectionResult:
    """Outcome at one location.

    `tau` is the number of parts evaluated when the stop decision fired;
    a foreground label then evaluates the remaining parts, so
    `parts_evaluated` holds all parts for positives.  `partial_score` keeps
    the running sum at the stop decision for diagnostics even though the
    official score of a background label is -inf.
    """

    location_id: int
    label: str
    score: float
    parts_evaluated: tuple[int, ...]
    tau: int
    final_belief: float
    partial_score: float


@dataclass(frozen=True)
class InferenceStats:
    """Aggregates over one inference pass; non_root_evals excludes part 0."""

    n_locations: int
    non_root_evals: int
    n_positive: int
    mean_tau: float


def _response(provider: ResponseProvider, location_id: int, part_id: int) -> float:
    try:
        return float(provider.get_response(location_id, part_id))
    except Exception as exc:
        raise ProviderError(f"response provider failed at location {location_id}, part {part_id}") from exc


def _fetch(provider: ResponseProvider, location_ids: np.ndarray, part_id: int) -> np.ndarray:
    """One part's responses at `location_ids`; a NaN among them is a provider fault."""
    try:
        m = np.asarray(provider.get_responses(location_ids, part_id), dtype=float)
    except ProviderError:
        raise
    except Exception as exc:
        raise ProviderError(f"response provider failed at part {part_id} "
                            f"for {location_ids.size} locations") from exc
    if m.shape != location_ids.shape:
        raise ProviderError(f"response provider returned shape {m.shape} "
                            f"for {location_ids.size} locations, part {part_id}")
    nan = np.flatnonzero(np.isnan(m))
    if nan.size:
        raise ProviderError(f"response provider returned NaN at location "
                            f"{location_ids[nan[0]]}, part {part_id}")
    return m


def _label(model: DetectorModel, policy: Policy, provider: ResponseProvider,
           location_ids: np.ndarray) -> tuple[list[DetectionResult], InferenceStats]:
    """Label `location_ids` with one frontier; results come back in the same order."""
    n = model.n_parts
    if policy.n_parts != n:
        raise ArityMismatchError(f"policy has {policy.n_parts} parts, model has {n}")
    count = location_ids.size
    mask = np.zeros(count, dtype=np.int64)
    belief = np.full(count, 0.5)
    score = np.zeros(count)
    tau = np.zeros(count, dtype=np.int64)
    order = np.zeros((count, n), dtype=np.uint8)  # row i: parts in evaluation order
    positive = np.zeros(count, dtype=bool)

    # A location holding both +inf and -inf responses sums to NaN, as scalar
    # float arithmetic does, without a numpy warning.
    with np.errstate(invalid="ignore"):
        live = np.arange(count)
        while live.size:
            live_mask = mask[live]
            action = policy.actions[live_mask, policy.grid.nearest_index_array(belief[live])]
            positive[live[action == LABEL_POS]] = True
            go = is_part_action(action)
            live, live_mask, part = live[go], live_mask[go], action_part(action[go])
            used = (live_mask >> part) & 1
            if used.any():
                i = int(used.argmax())
                raise InvalidActionError(f"policy named already-used part {part[i]} "
                                         f"at mask {int(live_mask[i]):b}")
            for k in np.flatnonzero(np.bincount(part, minlength=n)).tolist():
                sel = live[part == k]
                m = _fetch(provider, location_ids[sel], k)
                score[sel] += m
                order[sel, tau[sel]] = k
                tau[sel] += 1
                belief[sel] = belief_update(belief[sel], m, model.likelihoods[k])
                mask[sel] |= 1 << k

        # Positives complete their remaining parts in index order, then add the bias.
        partial = score.copy()
        n_evaluated = tau.copy()
        completing = np.flatnonzero(positive)
        for k in range(n):
            sel = completing[(mask[completing] & (1 << k)) == 0]
            if sel.size:
                score[sel] += _fetch(provider, location_ids[sel], k)
                order[sel, n_evaluated[sel]] = k
                n_evaluated[sel] += 1
                mask[sel] |= 1 << k
        score[completing] += model.bias
    score[~positive] = -math.inf

    stats = InferenceStats(n_locations=count,
                           non_root_evals=int(n_evaluated.sum() - (mask & 1).sum()),
                           n_positive=int(completing.size),
                           mean_tau=float(tau.mean()) if count else 0.0)
    rows = order.tobytes()
    results = [
        DetectionResult(loc, POS_LABEL if pos else NEG_LABEL, s, tuple(rows[start:start + e]),
                        t, final_belief=b, partial_score=ps)
        for loc, pos, s, start, e, t, b, ps in zip(
            location_ids.tolist(), positive.tolist(), score.tolist(), range(0, count * n, n),
            n_evaluated.tolist(), tau.tolist(), belief.tolist(), partial.tolist())
    ]
    return results, stats


def run_location(model: DetectorModel, policy: Policy, provider: ResponseProvider,
                 location_id: int) -> DetectionResult:
    """Label one location by querying the policy until it stops."""
    results, _ = _label(model, policy, provider, np.array([location_id]))
    return results[0]


def run_grid(model: DetectorModel, policy: Policy,
             provider: ResponseProvider) -> tuple[list[DetectionResult], InferenceStats]:
    """Label every location of the provider and aggregate evaluation statistics."""
    return _label(model, policy, provider, np.arange(provider.n_locations))


def full_score(model: DetectorModel, provider: ResponseProvider, location_id: int) -> float:
    """Exhaustive additive score: every part response plus the bias."""
    score = 0.0
    for k in range(model.n_parts):
        score += _response(provider, location_id, k)
    return score + model.bias


# ---------------------------------------------------------------------------
# Response files: dense CSV (location_id,part_id,score) or a binary matrix
# with an ASCII "n_locations,n_parts" header line and row-major 8-byte
# little-endian scores.  Results files: one CSV row per location.

def _reject_nan(scores: np.ndarray, path) -> None:
    """FormatError naming the first NaN response; ±inf responses are accepted."""
    # min propagates NaN, so the common case needs no full-size mask
    if scores.size and np.isnan(scores.min()):
        loc, part = np.argwhere(np.isnan(scores))[0]
        raise FormatError(f"{path}: response is NaN at location {loc}, part {part}")


def save_responses_csv(scores, path) -> None:
    scores = np.asarray(scores, dtype=float)
    lines = ["location_id,part_id,score"]
    for loc in range(scores.shape[0]):
        lines.extend(f"{loc},{k},{float(scores[loc, k])!r}" for k in range(scores.shape[1]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_responses_csv(path) -> MatrixResponseProvider:
    import csv

    entries: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"location_id", "part_id", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise FormatError(f"{path}: expected header location_id,part_id,score")
        for lineno, row in enumerate(reader, start=2):
            try:
                entries[(int(row["location_id"]), int(row["part_id"]))] = float(row["score"])
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: bad row {row!r}") from exc
    if not entries:
        return MatrixResponseProvider(np.empty((0, 0)))
    n_loc = max(loc for loc, _ in entries) + 1
    n_parts = max(part for _, part in entries) + 1
    if len(entries) != n_loc * n_parts:
        raise FormatError(f"{path}: responses must be dense, "
                          f"got {len(entries)} of {n_loc * n_parts} (location, part) pairs")
    scores = np.empty((n_loc, n_parts))
    for (loc, part), value in entries.items():
        scores[loc, part] = value
    _reject_nan(scores, path)
    return MatrixResponseProvider(scores)


def save_responses_bin(scores, path) -> None:
    scores = np.asarray(scores, dtype=float)
    header = f"{scores.shape[0]},{scores.shape[1]}\n".encode()
    Path(path).write_bytes(header + scores.astype("<f8").tobytes())


def load_responses_bin(path) -> MatrixResponseProvider:
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing n_locations,n_parts header")
    try:
        n_loc, n_parts = (int(v) for v in data[:newline].decode().split(","))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header line") from exc
    body = data[newline + 1:]
    if len(body) != n_loc * n_parts * 8:
        raise FormatError(f"{path}: payload is {len(body)} bytes, expected {n_loc * n_parts * 8}")
    scores = np.frombuffer(body, dtype="<f8").reshape(n_loc, n_parts).astype(float)
    _reject_nan(scores, path)
    return MatrixResponseProvider(scores)


def load_responses(path) -> MatrixResponseProvider:
    """Dispatch on extension: .csv reads the CSV schema, anything else binary."""
    if str(path).endswith(".csv"):
        return load_responses_csv(path)
    return load_responses_bin(path)


def save_results_csv(results, path) -> None:
    lines = ["location_id,label,score,tau,parts_order"]
    for r in results:
        parts = ";".join(str(k) for k in r.parts_evaluated)
        lines.append(f"{r.location_id},{r.label},{float(r.score)!r},{r.tau},{parts}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_results_csv(path) -> list[DetectionResult]:
    """Read back a results file.

    Belief and partial-score diagnostics are not part of the schema and come
    back as NaN.
    """
    import csv

    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"location_id", "label", "score", "tau", "parts_order"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise FormatError(f"{path}: expected header location_id,label,score,tau,parts_order")
        for lineno, row in enumerate(reader, start=2):
            try:
                label = row["label"]
                if label not in (POS_LABEL, NEG_LABEL):
                    raise ValueError(f"bad label {label!r}")
                parts = tuple(int(v) for v in row["parts_order"].split(";") if v != "")
                out.append(DetectionResult(
                    location_id=int(row["location_id"]),
                    label=label,
                    score=float(row["score"]),
                    parts_evaluated=parts,
                    tau=int(row["tau"]),
                    final_belief=math.nan,
                    partial_score=math.nan,
                ))
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: bad row {row!r}") from exc
    return out
