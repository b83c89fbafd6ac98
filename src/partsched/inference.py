"""Sequential inference over candidate locations.

A location's state is the policy table's own (used mask, belief bin).  It
starts at `Policy.start`, the middle belief bin, and repeatedly reads its
action: evaluate some part (pay for it, add its response to the running
score, move to the successor bin) or stop with a label.  A foreground stop
evaluates whatever parts remain, so the reported score is the complete
additive score: bit for bit, the left-to-right float sum of the location's
responses in `parts_order` order, plus the bias.  `full_score` sums in part
index order, so where the policy reorders parts the two can differ in the
last bits.  A background stop reports negative infinity.

The successor bin is a table lookup: per part, (belief bin, score bin) ->
bin, from `policy._score_bin_transitions`, the table training builds its
transition matrices from.  A `DetectorModel` builds it once per grid size.

`run_grid` advances all locations of a pass as one frontier over arrays, in
ascending location order, so a location's id is its row.  All start in one
state: a start label stops them all at tau 0 with no fetch, and a start part k
is one provider call over every location, whose score bin alone then decides
its next step (k's successor from the start bin, then the mask-{k} action).
Every column is written whole as if all stopped there.  Round r takes the
locations sent on, fetches each one's next part with one call per part over
their rows, read-only, reads their actions and overwrites the columns of those
that stop.  The arithmetic per location is the same as evaluating it alone.

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

from .errors import ConfigurationError, FormatError, InvalidParameterError, ProviderError
from .likelihoods import ScoreLikelihood, _check_part_set, _is_real, _read_csv
from .policy import _PART_BASE, LABEL_POS, BeliefGrid, CostParams, Policy, _score_bin_transitions

POS_LABEL = "pos"
NEG_LABEL = "neg"
# DetectionResults' one-value-per-location fields; the uint8 order matrix is the other
RESULT_COLUMNS = {"location_id": np.int64, "positive": bool, "score": float, "tau": np.int64,
                  "n_evaluated": np.int64, "final_belief": float, "partial_score": float}
_BLOCK_ROWS = 2 ** 13  # results.csv and responses.csv rows formatted per write


class ResponseProvider:
    """Source of part responses, keyed by (location, part).

    Responses must be deterministic per (location, part); the engine asks for
    each pair at most once per pass.  It asks in batches: one
    `get_responses(location_ids, part_id)` call per requested part per
    round, with a 1-D integer array of location ids, expecting one float
    per id back.  A subclass implements either; each default reads the
    other one id at a time, so a `get_response`-only subclass sees every fetch.
    A NaN response is a provider fault (ProviderError); ±inf responses fall
    into the part's edge score bins.
    """

    n_parts: int
    n_locations: int

    def get_response(self, location_id: int, part_id: int) -> float:
        if type(self).get_responses is ResponseProvider.get_responses:
            raise NotImplementedError("a provider implements get_response or get_responses")
        return self.get_responses(np.array([location_id]), part_id)[0]

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
            raise InvalidParameterError(f"scores must be 2-D, got shape {scores.shape}")
        self.scores = scores
        self.n_locations, self.n_parts = scores.shape

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
        if not _is_real(self.bias):
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
            n_bins = self.likelihoods[0].n_bins
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
            raise InvalidParameterError("fields must be 1-D arrays of one length and an order "
                                        "matrix with one row per location")
        if len(self) and not 0 <= self.n_evaluated.min() <= self.n_evaluated.max() \
                <= self.order.shape[1]:
            raise InvalidParameterError(f"n_evaluated must be in 0..{self.order.shape[1]}")

    def __len__(self) -> int:
        return self.location_id.size

    def _rows(self, rows: slice = slice(None)) -> Iterator[DetectionResult]:
        """The `DetectionResult`s of `rows`, all by default, built from bulk copies of columns."""
        parts = self.order[rows].tobytes()
        return (DetectionResult(loc, POS_LABEL if pos else NEG_LABEL, s,
                                tuple(parts[start:start + e]), t, b, ps)
                for start, loc, pos, s, t, e, b, ps in zip(
                    itertools.count(0, self.order.shape[1]),
                    *(getattr(self, name)[rows].tolist() for name in RESULT_COLUMNS)))

    __iter__ = _rows

    def __getitem__(self, index) -> DetectionResult:
        i = range(len(self))[operator.index(index)]  # IndexError out of range; a slice, TypeError
        return next(self._rows(slice(i, i + 1)))

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
    # read-only: the ids may be frontier rows or the results' location_id column
    ids = location_ids.view()
    ids.flags.writeable = False
    try:
        m = np.asarray(provider.get_responses(ids, part_id), dtype=float)
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


def run_grid(model: DetectorModel, policy: Policy,
             provider: ResponseProvider) -> tuple[DetectionResults, InferenceStats]:
    """Label every location of the provider with one frontier, in location order.

    The model, the policy and a provider holding any location share one part count, or
    it is a ConfigurationError."""
    n = model.n_parts
    if policy.n_parts != n:
        raise ConfigurationError(f"policy has {policy.n_parts} parts, model has {n}")
    if provider.n_locations and provider.n_parts != n:
        raise ConfigurationError(f"responses have {provider.n_parts} parts, policy has {n}")
    count = provider.n_locations
    ids = np.arange(count)
    grid = policy.grid
    # flat tables: one take per lookup is about 3x faster than a 2-D gather
    actions = policy.actions.ravel()
    table = model._successors(grid)
    successors = table.ravel()
    # row r: the part each location evaluated r-th; one contiguous row per round
    order = np.zeros((n, count), dtype=np.uint8)
    # Every location starts in the same state, so round 0's action is one entry.
    start = policy.start
    first = int(policy.actions[0, start])
    # Finite responses whose sum overflows give ±inf, and a location holding both
    # +inf and -inf sums to NaN, as scalar float arithmetic does, without a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # Per location, written as whole columns at its first decision and overwritten
        # when a location sent on stops: label, running score, tau, used mask, belief bin.
        if first >= _PART_BASE and count:
            # round 0: every location evaluates the start part k; its score bin decides the rest
            k = first - _PART_BASE
            order[0] = k
            partial = _fetch(provider, ids, k) + 0.0  # a fresh array; -0.0 becomes 0.0
            belief = table[k, start].take(model.likelihoods[k].bin_index(partial))
            action = policy.actions[1 << k].take(belief)
            tau0, used0 = 1, 1 << k
        else:
            # the start label stops every location with no part evaluated
            action = np.full(count, first, dtype=np.uint8)
            belief = np.full(count, start, dtype=np.intp)
            partial = np.zeros(count)
            tau0 = used0 = 0
        positive = action == LABEL_POS
        tau = np.full(count, tau0, dtype=np.int64)
        mask = np.full(count, used0, dtype=np.int64)
        # counted as the frontier runs: the taus' sum, and the evaluations of parts but 0
        tau_sum, non_root = tau0 * count, count if used0 > 1 else 0
        # The frontier: the rows sent on, ascending, and their state.  In round r each
        # evaluates its (r+1)-th part, then reads its next action.
        rows = (action >= _PART_BASE).nonzero()[0]
        used, bins, running, action = mask[rows], belief[rows], partial[rows], action[rows]
        for r in itertools.count(1):
            if not rows.size:
                break
            part = action.astype(np.intp) - _PART_BASE
            order[r, rows] = part
            # each part group's responses and score bins land in frontier order
            m = np.empty(rows.size)
            score_bins = np.empty(rows.size, dtype=np.intp)
            per_part = np.bincount(part, minlength=n)
            groups = per_part.nonzero()[0]
            for k in groups.tolist():
                sel = slice(None) if groups.size == 1 else (part == k).nonzero()[0]
                fetched = _fetch(provider, rows[sel], k)
                m[sel] = fetched
                score_bins[sel] = model.likelihoods[k].bin_index(fetched)
            running += m
            bins = successors.take((part * grid.d + bins) * table.shape[2] + score_bins)
            used |= 1 << part
            tau_sum += rows.size
            non_root += rows.size - int(per_part[0])
            action = actions.take(used * grid.d + bins)
            go = (action >= _PART_BASE).nonzero()[0]
            stop = (action < _PART_BASE).nonzero()[0]
            done = rows[stop]
            positive[done] = action[stop] == LABEL_POS
            partial[done] = running[stop]
            tau[done] = r + 1
            mask[done] = used[stop]
            belief[done] = bins[stop]
            rows, used, bins, running, action = (
                rows[go], used[go], bins[go], running[go], action[go])

        # Positives complete their free parts in index order, then add the bias.
        completing = positive.nonzero()[0]
        total = partial[completing]
        evaluated = tau[completing]
        free = ~mask[completing]
        for k in range(n):
            sel = ((free >> k) & 1).nonzero()[0]
            if sel.size:
                at = completing[sel]
                total[sel] += _fetch(provider, at, k)
                order.ravel()[evaluated[sel] * count + at] = k
                evaluated[sel] += 1
                non_root += sel.size if k else 0
        score = np.full(count, -math.inf)
        score[completing] = total + model.bias
    n_evaluated = np.where(positive, n, tau)  # a positive evaluates every part

    # tau_sum / count is tau.mean() bit for bit: the sum is exact below 2^53
    stats = InferenceStats(count, non_root, completing.size, tau_sum / count if count else 0.0)
    return DetectionResults(ids, positive, score, tau, n_evaluated, order.T,
                            final_belief=grid.centers.take(belief), partial_score=partial), stats


def full_score(model: DetectorModel, provider: ResponseProvider, location_id: int) -> float:
    """Exhaustive additive score: every part response plus the bias.

    A provider with another part count than the model's is a ConfigurationError, an id
    that is not an integer (a bool included) or lies outside the provider an
    InvalidParameterError, a NaN response a ProviderError."""
    if provider.n_parts != model.n_parts:
        raise ConfigurationError(f"responses have {provider.n_parts} parts, "
                                 f"model has {model.n_parts}")
    if isinstance(location_id, bool) or not hasattr(location_id, "__index__"):
        raise InvalidParameterError(f"location id must be an integer, got {location_id!r}")
    location_id = operator.index(location_id)
    if not 0 <= location_id < provider.n_locations:
        raise InvalidParameterError(f"location {location_id} outside 0..{provider.n_locations - 1}")
    score = 0.0
    for k in range(model.n_parts):
        m = _response(provider, location_id, k)
        if math.isnan(m):
            raise ProviderError(f"response provider returned NaN at location {location_id}, "
                                f"part {k}")
        score += m
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
    """One row per (location, part), streamed in blocks of about _BLOCK_ROWS rows."""
    scores = np.asarray(scores, dtype=float)
    step = max(_BLOCK_ROWS // max(scores.shape[1], 1), 1)  # locations per write
    with open(path, "w") as out:
        out.write("location_id,part_id,score\n")
        for a in range(0, len(scores), step):
            out.write("".join(f"{loc},{k},{v!r}\n"
                              for loc, row in enumerate(scores[a:a + step].tolist(), a)
                              for k, v in enumerate(row)))


def _response_defect(records):
    loc, part = records["location_id"], records["part_id"]
    if records.size and min(loc.min(), part.min()) < 0:
        return lambda row: f"negative id in row {row!r}"
    pairs = np.column_stack([loc, part]).view("V16").ravel()
    pairs.sort()  # in place: equal pairs end up next to each other
    if (pairs[1:] == pairs[:-1]).any():
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
    """Write the header line, then the scores straight from their buffer."""
    scores = np.ascontiguousarray(scores, dtype="<f8")  # a copy only if strided or not <f8
    with open(path, "wb") as out:
        out.write(f"{scores.shape[0]},{scores.shape[1]}\n".encode())
        out.write(scores)


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
    """One row per location, streamed in blocks of _BLOCK_ROWS rows.

    The rows of one (label, tau, parts_order) group share one suffix, joined
    once, so a row formats only its location_id and, for a positive, repr of
    its score; a background score other than -inf, which no engine writes,
    is formatted too.
    """
    groups = np.dtype([("kind", np.uint8), ("tau", np.int64), ("n_evaluated", np.int64),
                       ("order", np.uint8, (results.order.shape[1],))])
    suffixes = {}  # group key bytes -> (text before the score, or None for no score; the rest)
    with open(path, "w") as out:
        out.write("location_id,label,score,tau,parts_order\n")
        for a in range(0, len(results), _BLOCK_ROWS):
            block, rows = slice(a, a + _BLOCK_ROWS), []
            score, pos = results.score[block], results.positive[block]
            keys = np.empty(score.size, groups)
            # kind 0: background at -inf, 1: any other background, 2: positive
            np.add(pos, pos | (score != -math.inf), out=keys["kind"], dtype=np.uint8)
            for name in ("tau", "n_evaluated", "order"):
                keys[name] = getattr(results, name)[block]
            for i, loc, s, key in zip(itertools.count(a), results.location_id[block].tolist(),
                                      score.tolist(), keys.view(f"V{groups.itemsize}").tolist()):
                if (suffix := suffixes.get(key)) is None:
                    order = results.order[i, :results.n_evaluated[i]].tolist()
                    tail = f",{results.tau[i]},{';'.join(map(str, order))}\n"
                    suffix = suffixes[key] = (
                        (None, f",{NEG_LABEL},-inf{tail}") if key[0] == 0
                        else (f",{POS_LABEL if key[0] == 2 else NEG_LABEL},", tail))
                head, tail = suffix
                rows.append(f"{loc}{tail}" if head is None else f"{loc}{head}{s!r}{tail}")
            out.write("".join(rows))


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
