"""Optimal part-selection policies by backward dynamic programming.

The decision state is a pair (mask of already-used parts, belief that the
location is foreground).  Beliefs live on a uniform grid over [0, 1].
Training snaps the posterior to its nearest grid bin after every step, so
the tables are exact for that snapped chain.  Inference carries the exact
float posterior and only reads the tables at its nearest bin.  The two
chains can therefore reach different bins, and the DP value is the snapped
chain's expected cost, not exactly the engine's.

Working backwards from the all-parts-used stage, each state's value is the
cheapest of: declare background (pays the false-negative risk), declare
foreground (pays the false-positive risk), or spend one unit evaluating some
unused part and continue from the updated belief.  The expectation over the
next score is a sum over that part's histogram bins, weighted by the
belief-mixture of its positive and negative densities.
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
    ConfigurationError,
    FormatError,
    InvalidActionError,
    InvalidParameterError,
    InvalidStateError,
)
from .likelihoods import ScoreLikelihood

MAX_PARTS = 24
DEFAULT_BELIEF_BINS = 101

# Action encoding, also used verbatim in the persisted table:
# 0 declares background, 1 declares foreground, 2+k evaluates part k.
LABEL_NEG = 0
LABEL_POS = 1
_PART_BASE = 2


def part_action(k: int) -> int:
    return _PART_BASE + k


def is_part_action(action: int) -> bool:
    return action >= _PART_BASE


def action_part(action):
    """Part evaluated by a part action, elementwise over arrays."""
    if not np.all(is_part_action(action)):
        raise InvalidActionError(f"action {action} is a label, not a part")
    return action - _PART_BASE


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
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
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

    def nearest_index(self, p: float) -> int:
        """Nearest bin; exact midpoints resolve to the lower bin."""
        i = int(math.ceil(p * (self.d - 1) - 0.5))
        return min(max(i, 0), self.d - 1)

    def nearest_index_array(self, p: np.ndarray) -> np.ndarray:
        i = np.ceil(p * (self.d - 1) - 0.5).astype(np.int64)
        return np.clip(i, 0, self.d - 1)


@dataclass(frozen=True)
class Policy:
    """Lookup tables mapping (used-parts mask, belief bin) to action and value."""

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
        if actions[-1].max() > LABEL_POS:
            raise ValueError("full-mask row must contain labels only")
        actions = actions.copy()
        values = values.copy()
        actions.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "values", values)

    @property
    def n_states(self) -> int:
        return 1 << self.n_parts


def terminal_stage(costs: CostParams, grid: BeliefGrid) -> tuple[np.ndarray, np.ndarray]:
    """Values and labels once every part has been used.

    The only remaining choice is the label; its expected cost is the belief-
    weighted risk of being wrong, and ties go to the background label.
    """
    p = grid.centers
    stop_neg = costs.lambda_fn * p
    stop_pos = costs.lambda_fp * (1.0 - p)
    values = np.minimum(stop_neg, stop_pos)
    actions = np.where(stop_neg <= stop_pos, LABEL_NEG, LABEL_POS).astype(np.uint8)
    return values, actions


def belief_update(p, m, lik: ScoreLikelihood):
    """Posterior foreground probability after observing score m for this part.

    Elementwise over arrays of beliefs and scores; pos and neg share one
    support, so one bin lookup serves both densities.
    """
    p = np.clip(p, 0.0, 1.0)
    j = lik.pos.bin_index(m)
    num = lik.pos.bins[j] * p
    return num / (num + lik.neg.bins[j] * (1.0 - p))


def belief_update_unnormalized(p: float, m: float, lik: ScoreLikelihood) -> float:
    """Damped ratio update p' = h+/(h+ + h-) * p.

    Compatibility variant for comparison experiments only: it lacks the
    (1 - p) term in the denominator, is non-increasing in p, and is not a
    Bayes posterior.  The engine always uses :func:`belief_update`.
    """
    p = min(max(p, 0.0), 1.0)
    hp = lik.pos.evaluate(m)
    hn = lik.neg.evaluate(m)
    return hp / (hp + hn) * p


def _score_bin_transitions(lik: ScoreLikelihood, grid: BeliefGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per (belief center, score bin): outcome weight and successor belief bin.

    The outcome weight is the belief-weighted mixture mass of the bin,
    (p*h+ + (1-p)*h-) * bin_width; weights over bins sum to 1 for each belief.
    """
    hp = lik.pos.bins[None, :]
    hn = lik.neg.bins[None, :]
    p = grid.centers[:, None]
    num = hp * p
    mix = num + hn * (1.0 - p)
    successors = grid.nearest_index_array(num / mix)
    weights = mix * lik.pos.bin_width
    return weights, successors


def expected_q(mask: int, p: float, k: int, lik: ScoreLikelihood,
               next_values: np.ndarray, grid: BeliefGrid) -> float:
    """Expected successor value of evaluating part k from belief p.

    `next_values` is the value row over grid centers for mask | (1 << k);
    successor beliefs are read from it by nearest-bin lookup.
    """
    if (mask >> k) & 1:
        raise InvalidActionError(f"part {k} already used in mask {mask:b}")
    next_values = np.asarray(next_values, dtype=float)
    if next_values.shape != (grid.d,):
        raise ValueError(f"next_values must have shape ({grid.d},)")
    hp = lik.pos.bins
    hn = lik.neg.bins
    num = hp * p
    mix = num + hn * (1.0 - p)
    successors = grid.nearest_index_array(num / mix)
    return float(((mix * lik.pos.bin_width) * next_values[successors]).sum())


def train_policy(likelihoods, costs: CostParams, grid: BeliefGrid | None = None) -> Policy:
    """Compute the optimal policy and value tables by backward induction.

    Stages run from the all-used mask down to the empty mask; within a stage
    every mask is independent.  Ties resolve deterministically: background
    label, then foreground label, then the lowest-indexed part.
    """
    likelihoods = list(likelihoods)
    if not likelihoods:
        raise ValueError("need at least one part likelihood")
    n_parts = len(likelihoods)
    if n_parts > MAX_PARTS:
        raise CapacityError(f"{n_parts} parts exceeds the {MAX_PARTS}-part table budget")
    for k, lik in enumerate(likelihoods):
        if lik.part_id != k:
            raise ConfigurationError(f"likelihoods must be ordered by part_id 0..n, got {lik.part_id} at {k}")
        if lik.pos.n_bins != likelihoods[0].pos.n_bins:
            raise ConfigurationError("all likelihoods must share one bin count")
    grid = grid or BeliefGrid()

    d = grid.d
    n_states = 1 << n_parts
    values = np.empty((n_states, d))
    actions = np.empty((n_states, d), dtype=np.uint8)
    values[-1], actions[-1] = terminal_stage(costs, grid)

    transitions = [_score_bin_transitions(lik, grid) for lik in likelihoods]
    p = grid.centers
    stop_neg = costs.lambda_fn * p
    stop_pos = costs.lambda_fp * (1.0 - p)

    masks_by_count: list[list[int]] = [[] for _ in range(n_parts + 1)]
    for mask in range(n_states):
        masks_by_count[mask.bit_count()].append(mask)

    for t in range(n_parts - 1, -1, -1):
        for mask in masks_by_count[t]:
            avail = [k for k in range(n_parts) if not (mask >> k) & 1]
            q = np.empty((len(avail), d))
            for row, k in enumerate(avail):
                weights, successors = transitions[k]
                q[row] = (weights * values[mask | (1 << k)][successors]).sum(axis=1)
            continue_value = 1.0 + q.min(axis=0)
            v = np.minimum(np.minimum(stop_neg, stop_pos), continue_value)
            part_codes = np.array([part_action(k) for k in avail], dtype=np.int64)
            a = np.where(v == stop_neg, LABEL_NEG,
                         np.where(v == stop_pos, LABEL_POS, part_codes[q.argmin(axis=0)]))
            values[mask] = v
            actions[mask] = a.astype(np.uint8)

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
        n_parts = int(header["n_parts"])
        d = int(header["d"])
        costs = CostParams(float(header["lambda_fp"]), float(header["lambda_fn"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed policy header: {exc}") from exc
    if n_parts > MAX_PARTS:
        raise CapacityError(f"{path}: {n_parts} parts exceeds the {MAX_PARTS}-part budget")
    if n_parts < 1 or d < 2:
        raise FormatError(f"{path}: invalid table dimensions {n_parts} x {d}")
    n_states = 1 << n_parts
    body = data[newline + 1:]
    expected = n_states * d * 9
    if len(body) != expected:
        raise FormatError(f"{path}: table payload is {len(body)} bytes, expected {expected}")
    actions = np.frombuffer(body[:n_states * d], dtype=np.uint8).reshape(n_states, d).copy()
    values = np.frombuffer(body[n_states * d:], dtype="<f8").reshape(n_states, d).astype(float)
    if actions.max() >= _PART_BASE + n_parts:
        raise FormatError(f"{path}: action code {actions.max()} out of range")
    if n_states * d <= (1 << 22):
        masks = np.arange(n_states, dtype=np.uint32)[:, None]
        parts = actions.astype(np.int64) - _PART_BASE
        used = (masks >> np.maximum(parts, 0)) & 1
        if bool(((parts >= 0) & (used == 1)).any()):
            raise FormatError(f"{path}: table names an already-used part")
    return Policy(n_parts=n_parts, grid=BeliefGrid(d), costs=costs, actions=actions, values=values)
