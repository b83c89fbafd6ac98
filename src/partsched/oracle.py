"""Brute-force verifiers for the dynamic program and the inference engine.

The exhaustive solver recomputes the optimal expected cost of tiny instances
by top-down recursion over every reachable (used-parts, belief-bin) decision
node, with its own scalar transition math, so agreement with the trained
tables certifies the backward induction rather than restating it.  The
Monte Carlo simulator replays a policy on the same discretized belief chain
and estimates its cost and error rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InsufficientScriptError, InvalidParameterError
from .likelihoods import DiscretePdf, ScoreLikelihood
from .policy import (
    LABEL_NEG,
    LABEL_POS,
    BeliefGrid,
    CostParams,
    Policy,
    query_policy,
)

MAX_TINY_PARTS = 3
MAX_TINY_BELIEF_BINS = 21
MAX_TINY_ACTIVE_BINS = 4
ENUMERATION_NODE_BUDGET = 10_000_000


def _active_bins(pdf: DiscretePdf) -> int:
    """Bins needed to cover 99.9% of the pdf's mass."""
    mass = np.sort(pdf.bins * pdf.bin_width)[::-1]
    return int(np.searchsorted(np.cumsum(mass), 1.0 - 1e-3) + 1)


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
        active = 0
        for lik in self.likelihoods:
            if lik.pos.n_bins != self.likelihoods[0].pos.n_bins:
                raise ValueError("all tiny-instance likelihoods must share one bin count")
            active = max(active, _active_bins(lik.pos), _active_bins(lik.neg))
        if active > MAX_TINY_ACTIVE_BINS:
            raise CapacityError(f"likelihoods carry mass on {active} bins, limit is {MAX_TINY_ACTIVE_BINS}")
        nodes = math.factorial(n) * (active ** n) * (2 ** n)
        if nodes > ENUMERATION_NODE_BUDGET:
            raise CapacityError(f"enumeration would visit ~{nodes} nodes, budget is {ENUMERATION_NODE_BUDGET}")

    @property
    def n_parts(self) -> int:
        return len(self.likelihoods)


def _nearest_center(centers: list[float], p: float) -> int:
    """Index of the closest belief center, preferring the lower one on ties."""
    best = 0
    best_dist = abs(centers[0] - p)
    for i in range(1, len(centers)):
        dist = abs(centers[i] - p)
        if dist < best_dist:
            best, best_dist = i, dist
    return best


class _ExhaustiveTreeSolver:
    """Minimum expected cost over all admissible decision trees of a TinyInstance.

    Scalar recursion with memoization on (mask, belief bin); transitions are
    rebuilt here from the raw histograms instead of reusing the training
    code's vectorized tables.
    """

    def __init__(self, inst: TinyInstance):
        self.inst = inst
        self.centers = [float(c) for c in inst.grid.centers]
        self.full = (1 << inst.n_parts) - 1
        self.weights: list[list[list[float]]] = []
        self.successors: list[list[list[int]]] = []
        for lik in inst.likelihoods:
            width = lik.pos.bin_width
            w_rows, s_rows = [], []
            for p in self.centers:
                w_row, s_row = [], []
                for j in range(lik.pos.n_bins):
                    hp = float(lik.pos.bins[j])
                    hn = float(lik.neg.bins[j])
                    num = hp * p
                    mix = num + hn * (1.0 - p)
                    w_row.append(mix * width)
                    s_row.append(_nearest_center(self.centers, num / mix))
                w_rows.append(w_row)
                s_rows.append(s_row)
            self.weights.append(w_rows)
            self.successors.append(s_rows)
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
                return 2 + k
        raise AssertionError("no action reproduces the optimal value")


def exhaustive_optimal_value(inst: TinyInstance, p0: float, start_mask: int = 0) -> float:
    """Optimal expected cost from belief p0 (snapped to the grid) by enumeration."""
    solver = _ExhaustiveTreeSolver(inst)
    return solver.value(start_mask, _nearest_center(solver.centers, p0))


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

    def __post_init__(self):
        if self.n_trials <= 0:
            raise InvalidParameterError("n_trials must be positive")
        if self.std_error < 0.0 or not (0.0 <= self.fp_rate <= 1.0) or not (0.0 <= self.fn_rate <= 1.0):
            raise ValueError("inconsistent estimate fields")


def _chain_tables(likelihoods, grid: BeliefGrid) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-bin cdf and successor belief bin per (part, belief bin).

    Built here from the raw histograms (posterior, mixture mass, distance-
    based nearest bin) so the simulator does not depend on the training
    module's internals.
    """
    n_bins = likelihoods[0].pos.n_bins
    if any(lik.pos.n_bins != n_bins for lik in likelihoods):
        raise InvalidParameterError("all likelihoods must share one bin count")
    d = grid.d
    cdf = np.empty((len(likelihoods), d, n_bins))
    successors = np.empty((len(likelihoods), d, n_bins), dtype=np.int64)
    centers = grid.centers
    for k, lik in enumerate(likelihoods):
        p = centers[:, None]
        num = p * lik.pos.bins[None, :]
        mix = num + (1.0 - p) * lik.neg.bins[None, :]
        posterior = num / mix
        successors[k] = np.abs(posterior[:, :, None] - centers[None, None, :]).argmin(axis=2)
        cdf[k] = np.cumsum(mix * lik.pos.bin_width, axis=1)
    return cdf, successors


def simulate_policy(policy: Policy, likelihoods, prior: float, costs: CostParams,
                    n_trials: int, seed: int, chunk: int = 16384) -> PolicyCostEstimate:
    """Estimate a policy's expected cost on the discretized belief chain.

    Each trial walks the same chain the training tables describe: the belief
    starts at the grid bin nearest `prior`, outcome bins are drawn by
    inverse-CDF from the belief-weighted score mixture, and the successor
    belief is the snapped posterior.  The realized cost charges one unit per
    part plus the terminal misclassification risk; a hidden label drawn from
    the final belief feeds the fp/fn rates.  Deterministic given the seed.
    A prior outside [0, 1] is clamped; a NaN or infinite prior is rejected.
    """
    if n_trials < 1:
        raise InvalidParameterError(f"n_trials must be >= 1, got {n_trials}")
    likelihoods = list(likelihoods)
    if len(likelihoods) != policy.n_parts:
        raise InvalidParameterError("likelihoods must match the policy's part count")
    prior = float(prior)
    if not math.isfinite(prior):
        raise InvalidParameterError(f"prior must be finite, got {prior}")
    prior = min(max(prior, 0.0), 1.0)
    cdf, successors = _chain_tables(likelihoods, policy.grid)
    centers = policy.grid.centers
    start = _nearest_center([float(c) for c in centers], prior)
    rng = np.random.default_rng(seed)

    cost_sum = 0.0
    cost_sq_sum = 0.0
    tau_sum = 0
    fp = fn = n_pos_truth = n_neg_truth = 0

    remaining = n_trials
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        mask = np.zeros(m, dtype=np.int64)
        idx = np.full(m, start, dtype=np.int64)
        tau = np.zeros(m, dtype=np.int64)
        cost = np.zeros(m)
        alive = np.ones(m, dtype=bool)
        for _ in range(policy.n_parts + 2):
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
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
            sel = live[act >= 2]
            if sel.size:
                k = act[act >= 2].astype(np.int64) - 2
                rows = cdf[k, idx[sel]]
                u = rng.random(sel.size)
                j = np.minimum((rows <= u[:, None]).sum(axis=1), rows.shape[1] - 1)
                idx[sel] = successors[k, idx[sel], j]
                mask[sel] |= np.left_shift(1, k)
                tau[sel] += 1
                cost[sel] += 1.0
        if alive.any():
            raise AssertionError("policy failed to stop within n_parts + 2 rounds")
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
    """Replay the stop-or-evaluate loop on scripted scores.

    Returns the (action, belief-at-query) sequence, consuming one scripted
    score per part evaluation; must match the inference engine's trace on an
    equivalent provider.
    """
    likelihoods = list(likelihoods)
    scripts = iter(scripted_scores)
    mask = 0
    p = 0.5
    trace: list[tuple[int, float]] = []
    while True:
        action = query_policy(policy, mask, p)
        trace.append((action, p))
        if action in (LABEL_NEG, LABEL_POS):
            return trace
        k = action - 2
        try:
            m = float(next(scripts))
        except StopIteration:
            raise InsufficientScriptError(
                f"script exhausted after {len(trace) - 1} evaluations without a stop decision"
            ) from None
        hp = likelihoods[k].pos.evaluate(m)
        hn = likelihoods[k].neg.evaluate(m)
        p = hp * p / (hp * p + hn * (1.0 - p))
        mask |= 1 << k


def random_tiny_instance(seed: int, n_bins: int = 8) -> TinyInstance:
    """Seeded random TinyInstance with at most 4 active score bins per pdf."""
    rng = np.random.default_rng(seed)
    n_parts = int(rng.integers(1, MAX_TINY_PARTS + 1))
    d = int(rng.choice([11, 21]))
    costs = CostParams(float(10.0 ** rng.uniform(0.0, 1.5)),
                       float(10.0 ** rng.uniform(0.0, 1.5)))

    def random_pdf() -> DiscretePdf:
        n_active = int(rng.integers(1, MAX_TINY_ACTIVE_BINS + 1))
        active = rng.choice(n_bins, size=n_active, replace=False)
        weights = np.zeros(n_bins)
        weights[active] = rng.dirichlet(np.ones(n_active))
        return DiscretePdf.from_weights(0.0, 1.0, weights)

    likelihoods = tuple(
        ScoreLikelihood(part_id=k, pos=random_pdf(), neg=random_pdf())
        for k in range(n_parts)
    )
    return TinyInstance(likelihoods=likelihoods, costs=costs, grid=BeliefGrid(d))
