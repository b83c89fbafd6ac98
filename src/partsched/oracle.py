"""Brute-force verifiers for the dynamic program and the inference engine.

The snapped belief chain is rebuilt here from the raw histograms, in one
(outcome weight, successor bin) table with its own nearest-center rule,
decided in grid coordinates, instead of reusing the training code's tables.
The exhaustive solver recomputes the optimal expected cost of tiny instances
by top-down recursion over every reachable (used-parts, belief-bin) decision
node on that table, so agreement with the trained tables certifies the
backward induction rather than restating it.  The Monte Carlo simulator
replays a policy on the same table and estimates its cost and error rates,
and `step_trace` replays one location's walk along the chain, snapping each
posterior with the same rule, as the inference engine takes it.  Every walk
starts where the engine's does, at mask 0 in `Policy.start`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, InvalidParameterError
from .likelihoods import DiscretePdf, ScoreLikelihood
from .policy import (
    _PART_BASE,
    LABEL_NEG,
    LABEL_POS,
    BeliefGrid,
    CostParams,
    Policy,
    part_action,
)

MAX_TINY_PARTS = 3
MAX_TINY_BELIEF_BINS = 21
MAX_TINY_ACTIVE_BINS = 4
TINY_SCORE_BINS = 8
SIMULATION_CHUNK = 16384  # trials walked per batch; fixes the RNG draw order


@dataclass(frozen=True)
class TinyInstance:
    """A problem small enough for exhaustive policy-tree enumeration."""

    likelihoods: tuple[ScoreLikelihood, ...]
    costs: CostParams
    grid: BeliefGrid

    def __post_init__(self):
        object.__setattr__(self, "likelihoods", tuple(self.likelihoods))
        n = len(self.likelihoods)
        if not (1 <= n <= MAX_TINY_PARTS):
            raise CapacityError(f"tiny instances support 1..{MAX_TINY_PARTS} parts, got {n}")
        if self.grid.d > MAX_TINY_BELIEF_BINS:
            raise CapacityError(f"tiny instances support d <= {MAX_TINY_BELIEF_BINS}, got {self.grid.d}")

    @property
    def n_parts(self) -> int:
        return len(self.likelihoods)


def _snap(centers: np.ndarray, p):
    """Index of the belief center nearest p, elementwise; the lower one wins a tie.

    Decided in grid coordinates x = p * (d - 1): the bin floor(x), or the one
    above when x lies more than half a bin past it.  Comparing float distances
    to the rounded centers instead would break some exact ties upward.
    """
    x = np.asarray(p, dtype=float) * (centers.size - 1)
    below = np.floor(x)
    return np.clip(below + (x - below > 0.5), 0, centers.size - 1).astype(np.int64)


def _chain_tables(likelihoods, grid: BeliefGrid) -> tuple[np.ndarray, np.ndarray]:
    """Outcome weight and successor belief bin per (part, belief bin, score bin).

    The weight is the belief-weighted score mixture's mass, `mix * bin_width`
    with `mix = p * h+ + (1 - p) * h-`, and the successor is the `_snap` of the
    posterior `p * h+ / mix`, all from the raw histograms so the oracle does
    not depend on the training module's internals.
    """
    n_bins = likelihoods[0].pos.n_bins
    if any(lik.pos.n_bins != n_bins for lik in likelihoods):
        raise InvalidParameterError("all likelihoods must share one bin count")
    weights = np.empty((len(likelihoods), grid.d, n_bins))
    successors = np.empty((len(likelihoods), grid.d, n_bins), dtype=np.min_scalar_type(grid.d - 1))
    p = grid.centers[:, None]
    for k, lik in enumerate(likelihoods):
        num = p * lik.pos.bins[None, :]
        mix = num + (1.0 - p) * lik.neg.bins[None, :]
        successors[k] = _snap(grid.centers, num / mix)
        weights[k] = mix * lik.pos.bin_width
    return weights, successors


class _ExhaustiveTreeSolver:
    """Minimum expected cost over all admissible decision trees of a TinyInstance.

    Scalar recursion with memoization on (mask, belief bin), top down from
    the start node, over the Python-list copy of `_chain_tables`.
    """

    def __init__(self, inst: TinyInstance):
        self.inst = inst
        self.centers = inst.grid.centers.tolist()
        self.full = (1 << inst.n_parts) - 1
        weights, successors = _chain_tables(inst.likelihoods, inst.grid)
        self.weights: list[list[list[float]]] = weights.tolist()
        self.successors: list[list[list[int]]] = successors.tolist()
        self._memo: dict[tuple[int, int], float] = {}

    def stop_cost(self, i: int) -> float:
        p = self.centers[i]
        return min(self.inst.costs.lambda_fn * p, self.inst.costs.lambda_fp * (1.0 - p))

    def continue_cost(self, mask: int, i: int, k: int) -> float:
        total = 0.0
        weights = self.weights[k][i]
        successors = self.successors[k][i]
        child = mask | (1 << k)
        for j in range(len(weights)):
            total += weights[j] * self.value(child, successors[j])
        return total

    def value(self, mask: int, i: int) -> float:
        key = (mask, i)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        best = self.stop_cost(i)
        if mask != self.full:
            for k in range(self.inst.n_parts):
                if not (mask >> k) & 1:
                    best = min(best, 1.0 + self.continue_cost(mask, i, k))
        self._memo[key] = best
        return best

    def best_action(self, mask: int, i: int) -> int:
        """Greedy action with the same tie order as training: neg, pos, lowest part."""
        p = self.centers[i]
        v = self.value(mask, i)
        if v == self.inst.costs.lambda_fn * p:
            return LABEL_NEG
        if v == self.inst.costs.lambda_fp * (1.0 - p):
            return LABEL_POS
        for k in range(self.inst.n_parts):
            if not (mask >> k) & 1 and v == 1.0 + self.continue_cost(mask, i, k):
                return part_action(k)
        raise AssertionError("no action reproduces the optimal value")


def exhaustive_value_row(inst: TinyInstance, start_mask: int = 0) -> np.ndarray:
    """Optimal expected cost at every grid belief, sharing one memoized solve."""
    solver = _ExhaustiveTreeSolver(inst)
    return np.array([solver.value(start_mask, i) for i in range(len(solver.centers))])


@dataclass(frozen=True)
class PolicyCostEstimate:
    """Monte Carlo estimate of a policy's expected cost and error rates."""

    mean_cost: float
    std_error: float
    mean_tau: float
    fp_rate: float
    fn_rate: float
    n_trials: int


def _outcome_bins(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(count of cdf[rows[i]] entries <= u[i], n_bins - 1), bisecting the nondecreasing rows."""
    last = cdf.shape[1] - 1
    flat, base = cdf.ravel(), rows * cdf.shape[1] - 1  # flat[base + j]: entry j - 1
    j = np.zeros(rows.size, dtype=np.int64)
    for shift in range(last.bit_length(), -1, -1):
        cand = np.minimum(j + (1 << shift), last)
        j = np.where(flat[base + cand] <= u, cand, j)
    return j


def simulate_policy(policy: Policy, likelihoods, n_trials: int, seed: int) -> PolicyCostEstimate:
    """Estimate a policy's expected cost on the discretized belief chain.

    Each trial walks the same chain the training tables describe from the
    same start, `Policy.start` (the bin `_snap` gives 0.5): outcome bins are
    drawn by inverse-CDF from the belief-weighted score mixture, and the
    successor belief is the snapped posterior.  The realized cost charges one
    unit per part plus the terminal misclassification risk under
    `policy.costs`, so its mean estimates `policy.values[policy.start]`; a
    hidden label drawn from the final belief feeds the fp/fn rates.
    Deterministic given the seed, a non-negative integer.
    """
    if n_trials < 1:
        raise InvalidParameterError(f"n_trials must be >= 1, got {n_trials}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameterError(f"seed must be an integer >= 0, got {seed!r}")
    likelihoods = list(likelihoods)
    if len(likelihoods) != policy.n_parts:
        raise ConfigurationError(f"{len(likelihoods)} likelihoods for a "
                                 f"{policy.n_parts}-part policy")
    weights, successors = _chain_tables(likelihoods, policy.grid)
    cdf = np.cumsum(weights, axis=2, out=weights)  # in place: the weights are not read again
    centers = policy.grid.centers
    start = int(_snap(centers, 0.5))
    costs = policy.costs
    rng = np.random.default_rng(seed)

    cost_sum = 0.0
    cost_sq_sum = 0.0
    tau_sum = 0
    fp = fn = n_pos_truth = n_neg_truth = 0

    remaining = n_trials
    while remaining > 0:
        m = min(SIMULATION_CHUNK, remaining)
        remaining -= m
        mask = np.zeros(m, dtype=np.int64)
        idx = np.full(m, start, dtype=np.int64)
        tau = np.zeros(m, dtype=np.int64)
        cost = np.zeros(m)
        alive = np.ones(m, dtype=bool)
        while (live := np.flatnonzero(alive)).size:  # a Policy never repeats a part, so this ends
            act = policy.actions[mask[live], idx[live]]
            for label, lam, positive_pred in ((LABEL_NEG, costs.lambda_fn, False),
                                              (LABEL_POS, costs.lambda_fp, True)):
                sel = live[act == label]
                if sel.size == 0:
                    continue
                p_final = centers[idx[sel]]
                cost[sel] += lam * (p_final if not positive_pred else 1.0 - p_final)
                y = rng.random(sel.size) < p_final
                n_pos_truth += int(y.sum())
                n_neg_truth += int(sel.size - y.sum())
                if positive_pred:
                    fp += int((~y).sum())
                else:
                    fn += int(y.sum())
                alive[sel] = False
            sel = live[act >= _PART_BASE]
            if sel.size:
                k = act[act >= _PART_BASE].astype(np.int64) - _PART_BASE
                u = rng.random(sel.size)
                j = _outcome_bins(cdf.reshape(-1, cdf.shape[2]), k * policy.grid.d + idx[sel], u)
                idx[sel] = successors[k, idx[sel], j]
                mask[sel] |= np.left_shift(1, k)
                tau[sel] += 1
                cost[sel] += 1.0
        cost_sum += float(cost.sum())
        cost_sq_sum += float((cost * cost).sum())
        tau_sum += int(tau.sum())

    mean = cost_sum / n_trials
    if n_trials > 1:
        var = max(cost_sq_sum - n_trials * mean * mean, 0.0) / (n_trials - 1)
    else:
        var = 0.0
    return PolicyCostEstimate(
        mean_cost=mean,
        std_error=math.sqrt(var / n_trials),
        mean_tau=tau_sum / n_trials,
        fp_rate=fp / n_neg_truth if n_neg_truth else 0.0,
        fn_rate=fn / n_pos_truth if n_pos_truth else 0.0,
        n_trials=n_trials,
    )


def step_trace(policy: Policy, likelihoods, scripted_scores) -> list[tuple[int, float]]:
    """Replay the stop-or-evaluate loop on scripted scores along the snapped chain.

    The belief starts in `Policy.start`, the bin `_snap` gives 0.5, and moves
    to the bin `_snap` gives each posterior.  Returns the (action, belief
    center at query) sequence, consuming one scripted score per part
    evaluation; must match the inference engine's trace on an equivalent
    provider.
    """
    likelihoods = list(likelihoods)
    scripts = iter(scripted_scores)
    centers = policy.grid.centers.tolist()
    mask = 0
    i = int(_snap(policy.grid.centers, 0.5))
    trace: list[tuple[int, float]] = []
    while True:
        p = centers[i]
        action = int(policy.actions[mask, i])
        trace.append((action, p))
        if action in (LABEL_NEG, LABEL_POS):
            return trace
        k = action - _PART_BASE
        try:
            m = float(next(scripts))
        except StopIteration:
            raise InvalidParameterError(
                f"script exhausted after {len(trace) - 1} evaluations without a stop decision"
            ) from None
        hp = likelihoods[k].pos.evaluate(m)
        hn = likelihoods[k].neg.evaluate(m)
        i = int(_snap(policy.grid.centers, hp * p / (hp * p + hn * (1.0 - p))))
        mask |= 1 << k


def random_tiny_instance(seed: int) -> TinyInstance:
    """Seeded random TinyInstance with at most 4 active score bins per pdf."""
    rng = np.random.default_rng(seed)
    n_parts = int(rng.integers(1, MAX_TINY_PARTS + 1))
    d = int(rng.choice([11, 21]))
    costs = CostParams(float(10.0 ** rng.uniform(0.0, 1.5)),
                       float(10.0 ** rng.uniform(0.0, 1.5)))

    def random_pdf() -> DiscretePdf:
        n_active = int(rng.integers(1, MAX_TINY_ACTIVE_BINS + 1))
        active = rng.choice(TINY_SCORE_BINS, size=n_active, replace=False)
        weights = np.zeros(TINY_SCORE_BINS)
        weights[active] = rng.dirichlet(np.ones(n_active))
        return DiscretePdf.from_weights(0.0, 1.0, weights)

    likelihoods = tuple(
        ScoreLikelihood(part_id=k, pos=random_pdf(), neg=random_pdf())
        for k in range(n_parts)
    )
    return TinyInstance(likelihoods=likelihoods, costs=costs, grid=BeliefGrid(d))
