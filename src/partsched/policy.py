"""Optimal part-selection policies by backward dynamic programming.

The decision state is a pair (mask of already-used parts, belief bin).
Beliefs live on a uniform grid over [0, 1], and after every part the
posterior snaps to its nearest grid bin.  That snapped chain is the only
one: `_score_bin_transitions` tabulates it per (belief bin, score bin).
Training builds its matrices from that table and inference reads its
successors from it, so the engine walks the chain whose expected cost the DP
value is.

Working backwards from the all-parts-used stage, each state's value is the
cheapest of: declare background (pays the false-negative risk), declare
foreground (pays the false-positive risk), or spend one unit evaluating some
unused part and continue from the updated belief.  The expectation over the
next score is a sum over that part's histogram bins, weighted by the
belief-mixture of its positive and negative densities.

Because successors are grid bins, that sum folds into one d x d transition
matrix per part, T_k[i, i'] = total weight of the score bins that move bin i
to bin i' (the fixed-grid POMDP approximation, Lovejoy, Oper. Res. 1991).
A stage is every mask with t used parts; for each part k the continuation
values of all its masks without bit k are one matrix product,
V_{t+1}[rank[mask | 1<<k]] @ T_k.T, where a layer V_t holds the values of
stage t's masks in ascending order and rank[mask] is a mask's row in its
layer.  Only two layers are alive at a time, so training holds the action
table, a stage and a rank per mask and the two largest adjacent layers, and
it checks that sum against physical memory before it allocates anything.  Training
costs O(2^n * n * d^2) floating-point work, done by BLAS.  The products sum
in another order than a per-bin loop would, so values agree with per-bin
summation to about 1e-13, not bit for bit; the action tables are the same.

A policy keeps what inference reads: the actions of every state and the
value row V(empty, .), the expected cost from each start belief.  Its file
holds a JSON header line, naming the sha256 of the likelihoods it was
trained on, then those two tables.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    FormatError,
    InvalidActionError,
    InvalidParameterError,
)
from .likelihoods import (ScoreLikelihood, _check_part_set, _clamped_index, _json_int, _json_real,
                          _likelihoods_sha256)

DEFAULT_BELIEF_BINS = 101

# Action encoding, also used verbatim in the persisted table:
# 0 declares background, 1 declares foreground, 2+k evaluates part k.
LABEL_NEG = 0
LABEL_POS = 1
_PART_BASE = 2


def part_action(k: int) -> int:
    return _PART_BASE + k


def action_name(action: int) -> str:
    if action == LABEL_NEG:
        return "neg"
    if action == LABEL_POS:
        return "pos"
    return f"part:{action - _PART_BASE}"


@dataclass(frozen=True)
class CostParams:
    """Costs charged for a false positive / false negative declaration."""

    lambda_fp: float
    lambda_fn: float

    def __post_init__(self):
        for name in ("lambda_fp", "lambda_fn"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise InvalidParameterError(f"{name} must be strictly positive and finite, got {v}")


@dataclass(frozen=True)
class BeliefGrid:
    """Uniform discretization of the belief interval [0, 1] into d bins."""

    d: int = DEFAULT_BELIEF_BINS

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)) or self.d < 2:
            raise InvalidParameterError(f"need an integer of at least 2 belief bins, got {self.d!r}")

    @cached_property
    def centers(self) -> np.ndarray:
        c = np.linspace(0.0, 1.0, self.d)
        c.flags.writeable = False
        return c

    def nearest_index(self, p):
        """Nearest bin, elementwise over arrays; exact midpoints resolve to the lower bin.

        Beliefs outside [0, 1] clamp to the edge bins.  A NaN belief has no
        bin and raises InvalidParameterError.
        """
        return _clamped_index(np.ceil(np.asarray(p, dtype=float) * (self.d - 1) - 0.5),
                              self.d - 1, "a NaN belief has no bin")


@dataclass(frozen=True)
class Policy:
    """Action lookup table over (used-parts mask, belief bin), and the value row V(empty, .).

    The policy checks its action codes once, on a uint8 copy of its own: a
    code that is not an integer in 0..n_parts+1, or one naming a part its
    mask already uses, is an InvalidActionError.  The copy is read-only, so
    the checked table is the one every lookup reads.  `values` is a read-only
    float64 copy of V(empty, .), one expected cost per start bin; the values
    of other masks are not kept.  `likelihoods_sha256` names the likelihoods
    the policy was trained on (see `_likelihoods_sha256`)."""

    n_parts: int
    grid: BeliefGrid
    costs: CostParams
    actions: np.ndarray  # (2**n_parts, d) uint8
    values: np.ndarray   # (d,) float64: V(empty, .)
    likelihoods_sha256: str

    def __post_init__(self):
        d = self.grid.d
        codes = np.asarray(self.actions)
        values = np.array(self.values, dtype=float)
        # no numpy dimension reaches 2**63, so the shift stays small
        if not (0 < self.n_parts < 63 and codes.shape == (1 << self.n_parts, d)
                and values.shape == (d,)):
            raise InvalidParameterError(
                f"a {self.n_parts}-part policy on {d} belief bins needs a "
                f"(2**{self.n_parts}, {d}) action table and a ({d},) value row")
        # the cast wraps, truncates or (for NaN) warns; any code it changes is rejected
        with np.errstate(invalid="ignore"):
            actions = np.array(codes, dtype=np.uint8, order="C")
        if (actions != codes).any():
            raise InvalidActionError(f"action code {codes[actions != codes][0]} out of range")
        if actions.max() >= _PART_BASE + self.n_parts:
            raise InvalidActionError(f"action code {actions.max()} out of range")
        # rows whose mask has bit k set must not name part k; one view per part,
        # so the only temporary is a boolean half-table
        for k in range(self.n_parts):
            if (actions.reshape(-1, 2, 1 << k, d)[:, 1] == part_action(k)).any():
                raise InvalidActionError("table names an already-used part")
        actions.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "values", values)

    @property
    def n_states(self) -> int:
        return 1 << self.n_parts

    @cached_property
    def start(self) -> int:
        """Every location's start bin, with mask 0: the middle bin (d - 1) // 2, whose center
        is 0.5, up to its last bit, on an odd grid and the lower neighbour of 0.5 on an even one."""
        return (self.grid.d - 1) // 2


def _popcount(n_parts: int) -> np.ndarray:
    """Number of used parts, i.e. the stage, of every mask 0..2^n_parts - 1, as uint8."""
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(n_parts):  # masks with the next bit set use one part more
        popcount = np.concatenate([popcount, popcount + 1])
    return popcount


def _physical_memory() -> int:
    """Bytes of physical memory, or numpy's largest array size where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return np.iinfo(np.intp).max


def _training_bytes(n_parts: int, d: int) -> int:
    """An upper bound on the bytes `train_policy` holds at once.

    Per mask: its action row (d bytes), its stage (1) and its rank (8).  The
    transition matrices: n_parts * d^2 float64.  At the largest stage, of
    C(n_parts, n_parts // 2) masks: two adjacent value layers (8 bytes per
    entry each, and no stage is larger), the best-part table (1) and one
    part's temporaries, a gathered layer or its product, the running best it
    replaces, a compare and a part table (18); 35 bytes per entry in all.
    """
    largest = math.comb(n_parts, n_parts // 2)
    return (1 << n_parts) * (d + 9) + n_parts * d * d * 8 + 35 * largest * d


def _check_training_bytes(n_parts: int, d: int) -> None:
    """CapacityError unless `_training_bytes` fits in physical memory; allocates nothing."""
    memory = _physical_memory()
    # past this part count the action table alone, 2^n_parts * d bytes, outgrows memory
    need = _training_bytes(n_parts, d) if n_parts < memory.bit_length() else None
    if need is None or need > memory:
        amount = f"{need} bytes" if need is not None else f"more than {memory} bytes"
        raise CapacityError(f"training {n_parts} parts on {d} belief bins needs {amount}, "
                            f"more than the {memory} bytes of physical memory")


def _score_bin_transitions(lik: ScoreLikelihood, grid: BeliefGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per (belief bin, score bin): outcome weight and successor belief bin.

    At a bin's belief p the mixture density is mix = p*h+ + (1-p)*h- on the
    part's one support; the weight is its mass, mix * bin_width, summing to
    1 over score bins, and the successor is the bin nearest p*h+ / mix.
    """
    p = grid.centers[:, None]
    num = lik.pos * p
    mix = num + lik.neg * (1.0 - p)
    return mix * lik.bin_width, grid.nearest_index(num / mix)


def _transition_matrix(lik: ScoreLikelihood, grid: BeliefGrid) -> np.ndarray:
    """d x d matrix T with T[i, i'] the probability that belief bin i moves to bin i'.

    Sums each row's score-bin weights onto their successor bins; bincount
    adds them in index order, so the matrix is the same on every run.
    """
    weights, successors = _score_bin_transitions(lik, grid)
    d = grid.d
    cells = np.arange(d)[:, None] * d + successors
    return np.bincount(cells.ravel(), weights=weights.ravel(), minlength=d * d).reshape(d, d)


def train_policy(likelihoods, costs: CostParams, grid: BeliefGrid | None = None) -> Policy:
    """Compute the optimal action table and V(empty, .) by backward induction.

    Stages run from the all-used mask down to the empty mask.  A stage is the
    set of masks with one popcount; for each part it takes one matrix product
    over all of them, reading the layer of the stage after it.  Ties resolve
    deterministically: background label, then foreground label, then the
    lowest-indexed part.  At the all-used mask no part is free, so its value
    is the cheaper label's belief-weighted risk.  A problem whose
    `_training_bytes` exceed physical memory is a CapacityError, raised
    before any allocation.
    """
    likelihoods = list(likelihoods)
    n_parts = len(likelihoods)
    grid = grid or BeliefGrid()
    d = grid.d
    _check_training_bytes(n_parts, d)
    _check_part_set(likelihoods)
    actions = np.empty((1 << n_parts, d), dtype=np.uint8)

    transitions_t = [_transition_matrix(lik, grid).T for lik in likelihoods]
    p = grid.centers
    stop_neg = costs.lambda_fn * p
    stop_pos = costs.lambda_fp * (1.0 - p)
    stop = np.minimum(stop_neg, stop_pos)
    # a tie between the labels goes to background
    stop_action = np.where(stop_neg == stop, LABEL_NEG, LABEL_POS).astype(np.uint8)

    popcount = _popcount(n_parts)
    rank = np.empty(popcount.size, dtype=np.intp)
    nxt = np.empty((0, d))  # the layer of stage t + 1; there is none after the last stage
    for t in range(n_parts, -1, -1):
        stage = np.flatnonzero(popcount == t)
        rank[stage] = np.arange(stage.size)
        cur = np.full((stage.size, d), np.inf)
        best_k = np.zeros((stage.size, d), dtype=np.uint8)
        # ascending k with a strict < keeps the lowest-indexed part on ties
        for k in range(n_parts):
            free = np.flatnonzero((stage >> k) & 1 == 0)
            q = nxt[rank[stage[free] | (1 << k)]] @ transitions_t[k]
            rows, ks = cur[free], best_k[free]
            better = q < rows
            np.copyto(rows, q, where=better)
            ks[better] = k
            cur[free], best_k[free] = rows, ks
            del q, rows, ks, better  # freed before the next part's are built
        cur += 1.0
        np.minimum(stop, cur, out=cur)
        actions[stage] = np.where(cur == stop, stop_action, part_action(best_k))
        nxt = cur

    return Policy(n_parts=n_parts, grid=grid, costs=costs, actions=actions, values=nxt[0],
                  likelihoods_sha256=_likelihoods_sha256(likelihoods))


# ---------------------------------------------------------------------------
# Persistence: one JSON header line, then the raw action bytes (one per
# entry, row-major by mask then belief bin) and V(empty, .) as little-endian
# 8-byte floats.

def save_policy(policy: Policy, path) -> None:
    """Write the header line, then each table straight from its buffer."""
    header = {
        "n_parts": policy.n_parts,
        "d": policy.grid.d,
        "lambda_fp": policy.costs.lambda_fp,
        "lambda_fn": policy.costs.lambda_fn,
        "likelihoods_sha256": policy.likelihoods_sha256,
    }
    with open(path, "wb") as out:
        out.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        out.write(np.ascontiguousarray(policy.actions))  # uint8 already; a copy only if strided
        out.write(np.ascontiguousarray(policy.values, dtype="<f8"))


def _json_sha256(value) -> str:
    if not (isinstance(value, str) and len(value) == 64 and set(value) <= set("0123456789abcdef")):
        raise ValueError(f"expected a lowercase hex sha256, got {value!r}")
    return value


def load_policy(path) -> Policy:
    """Read a policy file; its payload must be (2^n_parts + 8) * d bytes for its header.

    The header's part count is checked against the payload's length before
    anything is shifted or allocated, so a header with 10^9 parts is a
    FormatError at once."""
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(data[:newline])
        n_parts = _json_int(header["n_parts"])
        d = _json_int(header["d"])
        costs = CostParams(_json_real(header["lambda_fp"]), _json_real(header["lambda_fn"]))
        digest = _json_sha256(header["likelihoods_sha256"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FormatError(f"{path}: malformed policy header: {exc}") from exc
    if n_parts < 1 or d < 2:
        raise FormatError(f"{path}: invalid table dimensions {n_parts} x {d}")
    body = memoryview(data)[newline + 1:]
    # 2^n_parts rows of d bytes fit in the payload only below its bit length
    if n_parts >= len(body).bit_length() or len(body) != ((1 << n_parts) + 8) * d:
        raise FormatError(f"{path}: table payload is {len(body)} bytes, not the "
                          f"(2**{n_parts} + 8) * {d} of a {n_parts}-part, {d}-bin policy")
    n_states = 1 << n_parts
    actions = np.frombuffer(body[:n_states * d], dtype=np.uint8).reshape(n_states, d)
    values = np.frombuffer(body[n_states * d:], dtype="<f8")
    try:
        return Policy(n_parts=n_parts, grid=BeliefGrid(d), costs=costs, actions=actions,
                      values=values, likelihoods_sha256=digest)
    except InvalidActionError as exc:
        raise FormatError(f"{path}: {exc}") from exc
