"""Sequential inference over candidate locations.

A location's state is the policy table's own (used mask, belief bin).  It
starts at the bin nearest 0.5 and repeatedly reads its action: evaluate some
part (pay for it, add its response to the running score, move to the
successor bin) or stop with a label.  A foreground stop evaluates whatever
parts remain so the reported score is the complete additive score; a
background stop reports negative infinity.

The successor bin is a table lookup: per part, (belief bin, score bin) ->
bin, from `policy._score_bin_transitions`, the table training builds its
transition matrices from.  A `DetectorModel` builds it once per grid size.

All locations of a pass advance together as one frontier over arrays, in
ascending location order.  Round r holds the locations that have evaluated
r parts: it reads every live location's action, retires the labelled ones,
and fetches the requested responses with one provider call per part.  Every
location starts in the same state, so round 0 reads that one table entry:
a label stops the whole pass at tau 0, a part is one call over every
location, and the loop takes over at round 1.  The arithmetic per location
is the same as evaluating that location alone.

A pass returns one `DetectionResults`: the frontier's arrays, read-only, one
row per location.  Indexing and iteration build `DetectionResult`s on demand,
and the results CSV is written from and read back into the arrays.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ArityMismatchError, FormatError, InvalidActionError, InvalidParameterError,
                     ProviderError)
from .likelihoods import ScoreLikelihood, _check_part_set, _read_csv
from .policy import _PART_BASE, LABEL_POS, BeliefGrid, CostParams, Policy, _score_bin_transitions

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
    _successor_tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        likelihoods = tuple(self.likelihoods)
        _check_part_set(likelihoods)
        if not math.isfinite(self.bias):
            raise InvalidParameterError(f"bias must be finite, got {self.bias!r}")
        object.__setattr__(self, "likelihoods", likelihoods)

    @property
    def n_parts(self) -> int:
        return len(self.likelihoods)

    def _successors(self, grid: BeliefGrid) -> np.ndarray:
        """Read-only (part, belief bin, score bin) -> successor bin table on `grid`.

        Row k is part k's successors from `_score_bin_transitions`, the table
        training builds T_k from.  It is built once per grid size, in the
        smallest unsigned dtype that holds d - 1: n·d·bins bytes at d <= 256.
        """
        table = self._successor_tables.get(grid.d)
        if table is None:
            n_bins = self.likelihoods[0].pos.n_bins
            table = np.empty((self.n_parts, grid.d, n_bins), dtype=np.min_scalar_type(grid.d - 1))
            for k, lik in enumerate(self.likelihoods):
                table[k] = _score_bin_transitions(lik, grid)[1]
            table.flags.writeable = False
            self._successor_tables[grid.d] = table
        return table


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
class DetectionResults:
    """Outcomes at many locations, one read-only array per field.

    Row i describes the i-th location of a pass: `positive` is its label
    mask, `n_evaluated` the length of its `parts_evaluated` and row i of the
    uint8 `order` matrix lists those parts in evaluation order, with zeros
    after them.  `results[i]` (negative `i` too) and iteration build
    `DetectionResult`s on demand; equality compares the columns, with NaN
    diagnostics equal to each other.
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

    def __getitem__(self, index) -> DetectionResult:
        i = range(len(self))[operator.index(index)]  # IndexError out of range; a slice, TypeError
        return DetectionResult(
            self.location_id[i].item(), POS_LABEL if self.positive[i] else NEG_LABEL,
            self.score[i].item(), tuple(self.order[i, :self.n_evaluated[i]].tolist()),
            self.tau[i].item(), self.final_belief[i].item(), self.partial_score[i].item())

    def _parts(self) -> np.ndarray:
        """Every location's parts_evaluated, concatenated in location order."""
        return self.order[np.arange(self.order.shape[1]) < self.n_evaluated[:, None]]

    def __eq__(self, other):
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
    # min propagates NaN, so the common case needs no full-size mask
    if m.size and np.isnan(m.min()):
        raise ProviderError(f"response provider returned NaN at location "
                            f"{location_ids[np.isnan(m).argmax()]}, part {part_id}")
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
    grid = policy.grid
    # flat tables: one take per lookup is about 3x faster than a 2-D gather
    actions = policy.actions.ravel()
    table = model._successors(grid)
    n_bins = table.shape[2]
    successors = table.ravel()
    # row r: the part each location evaluated r-th; one contiguous row per round
    order = np.zeros((n, count), dtype=np.uint8)
    # Every location starts in the same state, so round 0's action is one entry.
    start = grid.nearest_index(0.5)
    first = int(policy.actions[0, start])
    # Finite responses whose sum overflows give ±inf, and a location holding both
    # +inf and -inf sums to NaN, as scalar float arithmetic does, without a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if first < _PART_BASE or not count:
            # every location stops at the start state with no part evaluated
            positive = np.full(count, first == LABEL_POS)
            partial = np.zeros(count)
            tau = np.zeros(count, dtype=np.int64)
            mask = np.zeros(count, dtype=np.int64)
            belief = np.full(count, start, dtype=np.intp)
        else:
            # per location, written once when it stops: label, running score, tau, used mask,
            # belief bin
            positive = np.empty(count, dtype=bool)
            partial = np.empty(count)
            tau = np.empty(count, dtype=np.int64)
            mask = np.empty(count, dtype=np.int64)
            belief = np.empty(count, dtype=np.intp)
            # round 0: every location evaluates the start part k
            k = first - _PART_BASE
            order[0] = k
            m = _fetch(provider, location_ids, k)
            # The frontier holds the live locations' rows in ascending order and their
            # state; in round r every live location has evaluated r parts.
            rows = np.arange(count)
            used = np.full(count, 1 << k, dtype=np.int64)
            bins = table[k, start].take(model.likelihoods[k].pos.bin_index(m))
            running = m + 0.0  # a fresh array, summed as 0.0 + m (-0.0 becomes 0.0)
            for r in itertools.count(1):
                action = actions.take(used * grid.d + bins)
                go = (action >= _PART_BASE).nonzero()[0]
                if go.size < rows.size:
                    stop = (action < _PART_BASE).nonzero()[0]
                    done = rows[stop]
                    positive[done] = action[stop] == LABEL_POS
                    partial[done] = running[stop]
                    tau[done] = r
                    mask[done] = used[stop]
                    belief[done] = bins[stop]
                    rows, used, bins, running, action = (
                        rows[go], used[go], bins[go], running[go], action[go])
                if not rows.size:
                    break
                part = action.astype(np.intp) - _PART_BASE
                taken = (used >> part) & 1
                if taken.any():
                    i = int(taken.argmax())
                    raise InvalidActionError(f"policy named already-used part {part[i]} "
                                             f"at mask {int(used[i]):b}")
                order[r, rows] = part
                # each part group's responses and score bins land in frontier order
                m = np.empty(rows.size)
                score_bins = np.empty(rows.size, dtype=np.intp)
                groups = np.bincount(part, minlength=n).nonzero()[0]
                for k in groups.tolist():
                    sel = slice(None) if groups.size == 1 else (part == k).nonzero()[0]
                    fetched = _fetch(provider, location_ids[rows[sel]], k)
                    m[sel] = fetched
                    score_bins[sel] = model.likelihoods[k].pos.bin_index(fetched)
                running += m
                bins = successors.take((part * grid.d + bins) * n_bins + score_bins)
                used |= 1 << part

        # Positives complete their free parts in index order, then add the bias.
        completing = positive.nonzero()[0]
        total = partial[completing]
        evaluated = tau[completing]
        free = ~mask[completing]
        for k in range(n):
            sel = ((free >> k) & 1).nonzero()[0]
            if sel.size:
                at = completing[sel]
                total[sel] += _fetch(provider, location_ids[at], k)
                order.ravel()[evaluated[sel] * count + at] = k
                evaluated[sel] += 1
        score = np.full(count, -math.inf)
        score[completing] = total + model.bias
    n_evaluated = tau.copy()
    n_evaluated[completing] = evaluated
    mask[completing] = (1 << n) - 1

    stats = InferenceStats(n_locations=count,
                           non_root_evals=int(n_evaluated.sum() - (mask & 1).sum()),
                           n_positive=int(completing.size),
                           mean_tau=float(tau.mean()) if count else 0.0)
    return DetectionResults(location_ids, positive, score, tau, n_evaluated, order.T,
                            final_belief=grid.centers[belief], partial_score=partial), stats


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


def _result_defect(records, parts: list[bytes], n_evaluated: np.ndarray):
    """How the first record no engine writes fails, given its decoded parts_order and length."""
    for name in ("location_id", "tau"):
        if records.size and records[name].min() < 0:
            return lambda row, name=name: f"negative {name} in row {row!r}"
    if (n_evaluated < records["tau"]).any():
        return lambda row: f"fewer parts than tau {row['tau']} in row {row!r}"
    if any(len(set(order)) < len(order) for order in set(parts)):  # distinct orders are few
        return lambda row: f"part repeated in parts_order {row['parts_order']!r}"
    if (records["score"][records["label"] == NEG_LABEL] != -math.inf).any():
        return lambda row: f"background score {row['score']!r} is not -inf"
    if np.unique(records["location_id"]).size < records.size:
        return lambda row: f"repeated location_id in row {row!r}"


def load_results_csv(path) -> DetectionResults:
    """Read back a results file.

    Belief and partial-score diagnostics are not part of the schema and come
    back as NaN.  Part ids must fit the uint8 order matrix (0..255) and
    location ids and taus int64.  Rows no engine writes are rejected: a
    negative location id or tau, a part repeated within one parts_order,
    fewer parts than tau, a background score other than -inf, and a location
    id repeated in one file.
    """
    decoded = []  # the full parse is the first check, and on a valid file the only one

    def check(records):
        parts = _order_bytes(records)
        decoded.append((parts, np.fromiter(map(len, parts), np.int64, len(parts))))
        return _result_defect(records, *decoded[-1])

    records = _read_csv(path, {"location_id": np.int64, "label": "U4", "score": float,
                               "tau": np.int64, "parts_order": object}, check)
    parts, n_evaluated = decoded[0]
    order = np.zeros((n_evaluated.size, int(n_evaluated.max(initial=0))), dtype=np.uint8)
    order[np.arange(order.shape[1]) < n_evaluated[:, None]] = np.frombuffer(b"".join(parts),
                                                                            dtype=np.uint8)
    absent = np.full(n_evaluated.size, math.nan)
    return DetectionResults(records["location_id"], records["label"] == POS_LABEL,
                            records["score"], records["tau"], n_evaluated, order,
                            final_belief=absent, partial_score=absent)
