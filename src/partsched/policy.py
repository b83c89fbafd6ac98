"""Optimal part-selection policies by backward dynamic programming.

The decision state is a pair (mask of already-used parts, belief bin).
Beliefs live on a uniform grid over [0, 1], and after every part the
posterior snaps to its nearest grid bin.  That snapped chain is the only
one: `_successor` holds its math, and `_score_bin_transitions` tabulates it
per (belief bin, score bin).  Training builds its matrices from that table
and inference reads its successors from it, so the engine walks the chain
whose expected cost the DP value is.

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
values[mask | 1<<k] @ T_k.T.  Training costs O(2^n * n * d^2) floating-point
work, done by BLAS.  The products sum in another order than a per-bin loop
would, so values agree with per-bin summation to about 1e-13, not bit for
bit; the action tables are the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    FormatError,
    InvalidActionError,
    InvalidParameterError,
    InvalidStateError,
)
from .likelihoods import ScoreLikelihood, _check_part_set, _json_int, _json_real

MAX_PARTS = 24
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
        if self.d < 2:
            raise InvalidParameterError(f"need at least 2 belief bins, got {self.d}")

    @cached_property
    def centers(self) -> np.ndarray:
        c = np.linspace(0.0, 1.0, self.d)
        c.flags.writeable = False
        return c

    def nearest_index(self, p):
        """Nearest bin, elementwise over arrays; exact midpoints resolve to the lower bin.

        Beliefs outside [0, 1] clamp to the edge bins.  A NaN belief has no
        bin and raises ValueError.
        """
        x = np.ceil(np.asarray(p, dtype=float) * (self.d - 1) - 0.5)
        if np.isnan(x).any():
            raise ValueError("a NaN belief has no bin")
        # clamp before the integer cast, so infinities never reach it
        i = np.clip(x, 0, self.d - 1).astype(np.intp)
        return i if i.ndim else int(i)


@dataclass(frozen=True)
class Policy:
    """Lookup tables mapping (used-parts mask, belief bin) to action and value.

    An action code past the last part, or one naming a part its mask already
    uses, is an InvalidActionError."""

    n_parts: int
    grid: BeliefGrid
    costs: CostParams
    actions: np.ndarray  # (2**n_parts, d) uint8
    values: np.ndarray   # (2**n_parts, d) float64

    def __post_init__(self):
        if not (1 <= self.n_parts <= MAX_PARTS):
            raise CapacityError(f"n_parts must be in 1..{MAX_PARTS}, got {self.n_parts}")
        shape = (1 << self.n_parts, self.grid.d)
        actions = np.asarray(self.actions, dtype=np.uint8)
        values = np.asarray(self.values, dtype=float)
        if actions.shape != shape or values.shape != shape:
            raise ValueError(f"tables must have shape {shape}")
        if actions.max() >= _PART_BASE + self.n_parts:
            raise InvalidActionError(f"action code {actions.max()} out of range")
        # rows whose mask has bit k set must not name part k; one view per part,
        # so the only temporary is a boolean half-table
        for k in range(self.n_parts):
            if (actions.reshape(-1, 2, 1 << k, shape[1])[:, 1] == part_action(k)).any():
                raise InvalidActionError("table names an already-used part")
        # read-only views, not copies: the tables are the policy's largest
        # allocation, and the trainer and the loader hand over arrays no one else writes
        actions = actions.view()
        values = values.view()
        actions.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "values", values)

    @property
    def n_states(self) -> int:
        return 1 << self.n_parts


def _popcount(n_parts: int) -> np.ndarray:
    """Number of used parts, i.e. the stage, of every mask 0..2^n_parts - 1."""
    masks = np.arange(1 << n_parts)
    return sum((masks >> k) & 1 for k in range(n_parts))


def _successor(lik: ScoreLikelihood, grid: BeliefGrid, i, j):
    """Snapped posterior bin and mixture density after score bin j from belief bin i.

    Elementwise over broadcastable index arrays.  The mixture density is
    p*h+ + (1-p)*h- at the bin-i belief p; pos and neg share one support, so
    one score bin indexes both densities.
    """
    p = grid.centers[i]
    num = lik.pos.bins[j] * p
    mix = num + lik.neg.bins[j] * (1.0 - p)
    return grid.nearest_index(num / mix), mix


def _score_bin_transitions(lik: ScoreLikelihood, grid: BeliefGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per (belief center, score bin): outcome weight and successor belief bin.

    The outcome weight is the belief-weighted mixture mass of the bin,
    (p*h+ + (1-p)*h-) * bin_width; weights over bins sum to 1 for each belief.
    """
    successors, mix = _successor(lik, grid, np.arange(grid.d)[:, None],
                                 np.arange(lik.pos.n_bins)[None, :])
    return mix * lik.pos.bin_width, successors


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
    """Compute the optimal policy and value tables by backward induction.

    Stages run from the all-used mask down to the empty mask.  A stage is the
    set of masks with one popcount; for each part it takes one matrix product
    over all of them.  Ties resolve deterministically: background label, then
    foreground label, then the lowest-indexed part.  At the all-used mask no
    part is free, so its value is the cheaper label's belief-weighted risk.
    """
    likelihoods = list(likelihoods)
    n_parts = len(likelihoods)
    if n_parts > MAX_PARTS:
        raise CapacityError(f"{n_parts} parts exceeds the {MAX_PARTS}-part table budget")
    _check_part_set(likelihoods)
    grid = grid or BeliefGrid()

    d = grid.d
    n_states = 1 << n_parts
    if n_states * d * 8 > np.iinfo(np.intp).max:  # numpy's own limit: "array is too big"
        raise CapacityError(f"a {n_states} x {d} value table needs {n_states * d * 8} bytes, "
                            f"more than numpy can allocate")
    values = np.empty((n_states, d))
    actions = np.empty((n_states, d), dtype=np.uint8)

    transitions_t = [_transition_matrix(lik, grid).T for lik in likelihoods]
    p = grid.centers
    stop_neg = costs.lambda_fn * p
    stop_pos = costs.lambda_fp * (1.0 - p)
    stop = np.minimum(stop_neg, stop_pos)
    # a tie between the labels goes to background
    stop_action = np.where(stop_neg == stop, LABEL_NEG, LABEL_POS).astype(np.uint8)

    popcount = _popcount(n_parts)
    for t in range(n_parts, -1, -1):
        stage = np.flatnonzero(popcount == t)
        best_q = np.full((stage.size, d), np.inf)
        best_k = np.zeros((stage.size, d), dtype=np.uint8)
        # ascending k with a strict < keeps the lowest-indexed part on ties
        for k in range(n_parts):
            free = np.flatnonzero((stage >> k) & 1 == 0)
            q = values[stage[free] | (1 << k)] @ transitions_t[k]
            rows, ks = best_q[free], best_k[free]
            better = q < rows
            np.copyto(rows, q, where=better)
            ks[better] = k
            best_q[free], best_k[free] = rows, ks
        v = np.minimum(stop, 1.0 + best_q)
        values[stage] = v
        actions[stage] = np.where(v == stop, stop_action, part_action(best_k))

    return Policy(n_parts=n_parts, grid=grid, costs=costs, actions=actions, values=values)


def query_policy(policy: Policy, mask: int, p: float) -> int:
    """O(1) action lookup at (mask, nearest belief bin)."""
    if not (0 <= mask < policy.n_states):
        raise InvalidStateError(f"mask {mask} outside 0..{policy.n_states - 1}")
    return int(policy.actions[mask, policy.grid.nearest_index(p)])


# ---------------------------------------------------------------------------
# Persistence: one JSON header line, then the raw action bytes (one per
# entry) and the value table as little-endian 8-byte floats, both row-major
# by mask then belief bin.

def save_policy(policy: Policy, path) -> None:
    header = {
        "n_parts": policy.n_parts,
        "d": policy.grid.d,
        "lambda_fp": policy.costs.lambda_fp,
        "lambda_fn": policy.costs.lambda_fn,
    }
    blob = (json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            + policy.actions.astype(np.uint8).tobytes()
            + policy.values.astype("<f8").tobytes())
    Path(path).write_bytes(blob)


def load_policy(path) -> Policy:
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(data[:newline])
        n_parts = _json_int(header["n_parts"])
        d = _json_int(header["d"])
        costs = CostParams(_json_real(header["lambda_fp"]), _json_real(header["lambda_fn"]))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FormatError(f"{path}: malformed policy header: {exc}") from exc
    if n_parts > MAX_PARTS:
        raise CapacityError(f"{path}: {n_parts} parts exceeds the {MAX_PARTS}-part budget")
    if n_parts < 1 or d < 2:
        raise FormatError(f"{path}: invalid table dimensions {n_parts} x {d}")
    n_states = 1 << n_parts
    body = memoryview(data)[newline + 1:]
    expected = n_states * d * 9
    if len(body) != expected:
        raise FormatError(f"{path}: table payload is {len(body)} bytes, expected {expected}")
    actions = np.frombuffer(body[:n_states * d], dtype=np.uint8).reshape(n_states, d)
    values = np.frombuffer(body[n_states * d:], dtype="<f8").reshape(n_states, d)
    try:
        return Policy(n_parts=n_parts, grid=BeliefGrid(d), costs=costs, actions=actions,
                      values=values)
    except InvalidActionError as exc:
        raise FormatError(f"{path}: {exc}") from exc
