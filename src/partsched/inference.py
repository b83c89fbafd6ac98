"""Sequential inference over candidate locations.

A location's state is the policy table's own (used mask, belief bin).  It
starts at the bin nearest 0.5 and repeatedly reads its action: evaluate some
part (pay for it, add its response to the running score, move to the
successor bin from `policy._successor`, which also builds the training
tables) or stop with a label.  A foreground stop evaluates whatever parts
remain so the reported score is the complete additive score; a background
stop reports negative infinity.

All locations of a pass advance together as one frontier over arrays.  Each
round reads every live location's action, retires the labelled ones, and
fetches the requested responses with one provider call per part.  The
arithmetic per location is the same as evaluating that location alone.

A pass returns one `DetectionResults`: the frontier's arrays, read-only,
one row per location.  It reads as a sequence of `DetectionResult`s that are
built only when indexed or iterated, and the results CSV is written from and
read back into the arrays.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (ArityMismatchError, FormatError, InvalidActionError, InvalidParameterError,
                     ProviderError)
from .likelihoods import ScoreLikelihood, _check_part_set, _read_csv
from .policy import (
    LABEL_POS,
    CostParams,
    Policy,
    _successor,
    action_part,
    is_part_action,
)

POS_LABEL = "pos"
NEG_LABEL = "neg"
# DetectionResults' one-value-per-location fields; the uint8 order matrix is the other
RESULT_COLUMNS = {"location_id": np.int64, "positive": bool, "score": float, "tau": np.int64,
                  "n_evaluated": np.int64, "final_belief": float, "partial_score": float}


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
        _check_part_set(likelihoods)
        if not math.isfinite(self.bias):
            raise InvalidParameterError(f"bias must be finite, got {self.bias!r}")
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


@dataclass(frozen=True, eq=False)
class DetectionResults(Sequence):
    """Outcomes at many locations, one read-only array per field.

    Row i describes the i-th location of a pass: `positive` is its label
    mask, `n_evaluated` the length of its `parts_evaluated` and row i of the
    uint8 `order` matrix lists those parts in evaluation order, with zeros
    after them.  As a sequence it reads like a list of `DetectionResult`s:
    indexing (negative indices included) and iteration build them on demand,
    a slice returns a list, and equality compares location by location, with
    NaN diagnostics equal to each other.
    """

    location_id: np.ndarray
    positive: np.ndarray
    score: np.ndarray
    tau: np.ndarray
    n_evaluated: np.ndarray
    order: np.ndarray
    final_belief: np.ndarray
    partial_score: np.ndarray

    def __post_init__(self):
        for name, dtype in {**RESULT_COLUMNS, "order": np.uint8}.items():
            # read-only views, not copies: the frontier hands over arrays no one else writes
            arr = np.asarray(getattr(self, name), dtype=dtype).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if (any(getattr(self, name).shape != (len(self),) for name in RESULT_COLUMNS)
                or self.order.ndim != 2 or self.order.shape[0] != len(self)):
            raise ValueError("fields must be 1-D arrays of one length and an order matrix "
                             "with one row per location")
        if len(self) and not 0 <= self.n_evaluated.min() <= self.n_evaluated.max() \
                <= self.order.shape[1]:
            raise ValueError(f"n_evaluated must be in 0..{self.order.shape[1]}")

    def __len__(self) -> int:
        return self.location_id.size

    def __iter__(self) -> Iterator[DetectionResult]:
        width = self.order.shape[1]
        rows = self.order.tobytes()
        return (DetectionResult(loc, POS_LABEL if pos else NEG_LABEL, s,
                                tuple(rows[start:start + e]), t, b, ps)
                for loc, pos, s, start, e, t, b, ps in zip(
                    self.location_id.tolist(), self.positive.tolist(), self.score.tolist(),
                    itertools.count(0, width), self.n_evaluated.tolist(),
                    self.tau.tolist(), self.final_belief.tolist(), self.partial_score.tolist()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._select(index))
        i = range(len(self))[index]  # IndexError out of range, counts back when negative
        return next(iter(self._select(slice(i, i + 1))))

    def _select(self, rows: slice) -> DetectionResults:
        return DetectionResults(*(getattr(self, f.name)[rows] for f in fields(self)))

    def _parts(self) -> np.ndarray:
        """Every location's parts_evaluated, concatenated in location order."""
        return self.order[np.arange(self.order.shape[1]) < self.n_evaluated[:, None]]

    def __eq__(self, other):
        if isinstance(other, list):
            return list(self) == other
        if not isinstance(other, DetectionResults):
            return NotImplemented
        return (len(self) == len(other)
                and all(np.array_equal(getattr(self, name), getattr(other, name),
                                       equal_nan=dtype is float)
                        for name, dtype in RESULT_COLUMNS.items())
                and np.array_equal(self._parts(), other._parts()))


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
           location_ids: np.ndarray) -> tuple[DetectionResults, InferenceStats]:
    """Label `location_ids` with one frontier; results come back in the same order.

    The model, the policy and a provider holding any location share one part count."""
    n = model.n_parts
    if policy.n_parts != n:
        raise ArityMismatchError(f"policy has {policy.n_parts} parts, model has {n}")
    if provider.n_locations and provider.n_parts != n:
        raise ArityMismatchError(f"responses have {provider.n_parts} parts, policy has {n}")
    count = location_ids.size
    mask = np.zeros(count, dtype=np.int64)
    grid = policy.grid
    belief = np.full(count, grid.nearest_index(0.5))  # belief bins
    score = np.zeros(count)
    tau = np.zeros(count, dtype=np.int64)
    order = np.zeros((count, n), dtype=np.uint8)  # row i: parts in evaluation order
    positive = np.zeros(count, dtype=bool)

    # Finite responses whose sum overflows give ±inf, and a location holding both
    # +inf and -inf sums to NaN, as scalar float arithmetic does, without a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        live = np.arange(count)
        while live.size:
            live_mask = mask[live]
            action = policy.actions[live_mask, belief[live]]
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
                lik = model.likelihoods[k]
                belief[sel] = _successor(lik, grid, belief[sel], lik.pos.bin_index(m))[0]
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
    return DetectionResults(location_ids, positive, score, tau, n_evaluated, order,
                            final_belief=grid.centers[belief], partial_score=partial), stats


def run_location(model: DetectorModel, policy: Policy, provider: ResponseProvider,
                 location_id: int) -> DetectionResult:
    """Label one location by querying the policy until it stops."""
    results, _ = _label(model, policy, provider, np.array([location_id]))
    return results[0]


def run_grid(model: DetectorModel, policy: Policy,
             provider: ResponseProvider) -> tuple[DetectionResults, InferenceStats]:
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


def _response_defect(records):
    loc, part = records["location_id"], records["part_id"]
    if records.size and min(loc.min(), part.min()) < 0:
        return lambda row: f"negative id in row {row!r}"
    if np.unique(np.column_stack([loc, part]).view("V16")).size < records.size:
        return lambda row: f"duplicate location {int(row['location_id'])}, part {int(row['part_id'])}"


def load_responses_csv(path) -> MatrixResponseProvider:
    records = _read_csv(path, {"location_id": np.int64, "part_id": np.int64, "score": float},
                        _response_defect)
    n_loc, n_parts = (int(records[c].max(initial=-1)) + 1 for c in ("location_id", "part_id"))
    if records.size != n_loc * n_parts:
        raise FormatError(f"{path}: responses must be dense, "
                          f"got {records.size} of {n_loc * n_parts} (location, part) pairs")
    scores = np.empty((n_loc, n_parts))
    scores[records["location_id"], records["part_id"]] = records["score"]
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
    if min(n_loc, n_parts) < 0:
        raise FormatError(f"{path}: negative dimension in header {n_loc},{n_parts}")
    body = memoryview(data)[newline + 1:]
    if len(body) != n_loc * n_parts * 8:
        raise FormatError(f"{path}: payload is {len(body)} bytes, expected {n_loc * n_parts * 8}")
    scores = np.frombuffer(body, dtype="<f8").reshape(n_loc, n_parts)
    _reject_nan(scores, path)
    return MatrixResponseProvider(scores)


def load_responses(path) -> MatrixResponseProvider:
    """Dispatch on extension: .csv reads the CSV schema, anything else binary."""
    if str(path).endswith(".csv"):
        return load_responses_csv(path)
    return load_responses_bin(path)


def save_results_csv(results: DetectionResults, path) -> None:
    """One row per location, streamed; scores go through repr, each distinct order joins once."""
    width, orders, texts = results.order.shape[1], results.order.tobytes(), {}
    with open(path, "w") as out:
        out.write("location_id,label,score,tau,parts_order\n")
        for loc, pos, s, t, start, e in zip(
                results.location_id.tolist(), results.positive.tolist(), results.score.tolist(),
                results.tau.tolist(), itertools.count(0, width), results.n_evaluated.tolist()):
            key = orders[start:start + e]
            if (text := texts.get(key)) is None:
                text = texts[key] = ";".join(map(str, key))
            out.write(f"{loc},{POS_LABEL if pos else NEG_LABEL},{s!r},{t},{text}\n")


def _order_bytes(records) -> list[bytes]:
    """Each record's parts_order as bytes; ValueError for a bad label or part id outside 0..255."""
    if not np.isin(records["label"], (POS_LABEL, NEG_LABEL)).all():
        raise ValueError("label must be pos or neg")
    return [bytes(int(v) for v in text.split(";") if v != "")
            for text in records["parts_order"].tolist()]


def load_results_csv(path) -> DetectionResults:
    """Read back a results file.

    Belief and partial-score diagnostics are not part of the schema and come
    back as NaN.  Part ids must fit the uint8 order matrix (0..255) and
    location ids and taus int64.
    """
    decoded = []  # the full parse is the first check, and on a valid file the only one
    records = _read_csv(path, {"location_id": np.int64, "label": "U4", "score": float,
                               "tau": np.int64, "parts_order": object},
                        lambda records: decoded.append(_order_bytes(records)))
    parts = decoded[0]
    n_evaluated = np.array([len(p) for p in parts], dtype=np.int64)
    order = np.zeros((n_evaluated.size, int(n_evaluated.max(initial=0))), dtype=np.uint8)
    order[np.arange(order.shape[1]) < n_evaluated[:, None]] = np.frombuffer(b"".join(parts),
                                                                            dtype=np.uint8)
    absent = np.full(n_evaluated.size, math.nan)
    return DetectionResults(records["location_id"], records["label"] == POS_LABEL,
                            records["score"], records["tau"], n_evaluated, order,
                            final_belief=absent, partial_score=absent)
