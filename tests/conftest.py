import dataclasses
import functools

import numpy as np
import pytest

from partsched import (
    BeliefGrid,
    CostParams,
    DetectorModel,
    MatrixResponseProvider,
    Policy,
    ScoreLikelihood,
    SyntheticSpec,
    TinyInstance,
    make_synthetic,
    random_tiny_instance,
    run_grid,
    train_policy,
)
from partsched.policy import LABEL_NEG, LABEL_POS

# the likelihoods digest of a hand-built policy, which no likelihood file trained
UNTRAINED_SHA256 = "0" * 64


def spiked_likelihood(part_id, n_bins, pos_value, neg_value, spike_bin):
    """Likelihood whose pos/neg densities take chosen values in one bin.

    The remaining mass spreads uniformly over the other bins so both pdfs
    stay normalized; useful for hand-computable belief updates.
    """
    width = 1.0 / n_bins

    def bins_with(value):
        rest = (1.0 - value * width) / ((n_bins - 1) * width)
        bins = np.full(n_bins, rest)
        bins[spike_bin] = value
        return bins

    return ScoreLikelihood(part_id, 0.0, 1.0, bins_with(pos_value), bins_with(neg_value))


def uninformative_likelihood(part_id, n_bins=8):
    return ScoreLikelihood.from_weights(part_id, 0.0, 1.0, np.ones(n_bins), np.ones(n_bins))


def separable_likelihood(part_id, n_bins=8, lo=0.0, hi=1.0):
    """Positive mass on the top bin, negative mass on the bottom bin."""
    pos = np.zeros(n_bins)
    pos[-1] = 1.0
    neg = np.zeros(n_bins)
    neg[0] = 1.0
    return ScoreLikelihood.from_weights(part_id, lo, hi, pos, neg)


def overlapping_likelihood(part_id, n_bins=8, tilt=0.7, seed=None):
    """Partially informative: pos tilted to high bins, neg to low bins."""
    idx = np.arange(n_bins)
    pos = tilt ** (n_bins - 1 - idx)
    neg = tilt ** idx
    return ScoreLikelihood.from_weights(part_id, 0.0, 1.0, pos, neg)


def mixed_likelihood(part_id, n_bins=8):
    """Partially informative with at most 4 active bins per class (overlap on 2)."""
    pos = np.zeros(n_bins)
    pos[2:6] = [0.1, 0.2, 0.3, 0.4]
    neg = np.zeros(n_bins)
    neg[0:4] = [0.4, 0.3, 0.2, 0.1]
    return ScoreLikelihood.from_weights(part_id, 0.0, 1.0, pos, neg)


def two_part_instance(costs=None, d=11):
    return TinyInstance(
        likelihoods=(mixed_likelihood(0), separable_likelihood(1)),
        costs=costs or CostParams(8.0, 8.0),
        grid=BeliefGrid(d),
    )


def value_row(likelihoods, costs, grid, mask):
    """V(mask, .), which a policy does not keep, through the identity V(s, .) = V(empty, .) of
    the DP over the parts s leaves free (renumbered 0..m-1 in order); the stop risk when
    none is free.  It agrees with the trainer's own layers to about 1e-15: the products
    batch other rows."""
    free = [lik for k, lik in enumerate(likelihoods) if not (mask >> k) & 1]
    if not free:
        return np.minimum(costs.lambda_fn * grid.centers, costs.lambda_fp * (1.0 - grid.centers))
    free = [dataclasses.replace(lik, part_id=j) for j, lik in enumerate(free)]
    return train_policy(free, costs, grid).values


def constant_policy(n_parts, action, d=11, costs=None):
    """Policy that takes the same (label) action in every state."""
    assert action in (LABEL_NEG, LABEL_POS)
    shape = (1 << n_parts, d)
    return Policy(
        n_parts=n_parts,
        grid=BeliefGrid(d),
        costs=costs or CostParams(1.0, 1.0),
        actions=np.full(shape, action, dtype=np.uint8),
        values=np.zeros(d),
        likelihoods_sha256=UNTRAINED_SHA256,
    )


def with_extremes(scores):
    """Every 5th row gets one infinite or far out-of-support response."""
    scores = scores.copy()
    extremes = (np.inf, -np.inf, 1e6, -1e6)
    for j, row in enumerate(range(0, scores.shape[0], 5)):
        scores[row, j % scores.shape[1]] = extremes[j % len(extremes)]
    return scores


def assert_labelled_alone_alike(model, policy, scores, results, i, where=None):
    """Row i of `scores`, labelled alone, equals row i of the full pass `results`
    in every column but location_id (NaN diagnostics equal)."""
    alone, _ = run_grid(model, policy, MatrixResponseProvider(scores[i:i + 1]))
    for name in ("positive", "score", "tau", "n_evaluated", "order", "final_belief",
                 "partial_score"):
        np.testing.assert_array_equal(getattr(alone, name)[0], getattr(results, name)[i],
                                      err_msg=f"{where}, location {i}, {name}")


# the two scan regimes at n=9: headline point and deep chains
SCAN_REGIMES = {"scan": (4.0, 0.01, CostParams(20.0, 5.0)),
                "scan-deep": (1.0, 0.3, CostParams(200.0, 200.0))}
# an even grid has no center at 0.5: the start belief is the lower nearest one
TWO_PART_GRIDS = {"two-part": 11, "two-part-even": 10, "two-part-d4": 4, "two-part-d20": 20}
ENGINE_TRACE_CASES = (*TWO_PART_GRIDS, "scan", "scan-deep",
                      "tiny-0", "tiny-1", "tiny-2", "tiny-3", "tiny-4", "tiny-5")


@functools.lru_cache(maxsize=None)
def scan_synthetic(case):
    """(model, provider) of one scan regime: 2000 locations, n=9."""
    separation, prior, costs = SCAN_REGIMES[case]
    spec = SyntheticSpec(n_parts=9, separation=separation, prior_positive=prior,
                         n_locations=2000, seed=31)
    model, provider, _ = make_synthetic(spec, costs)
    return model, provider


def engine_trace_case(case):
    """(model, policy, response rows) for the engine-vs-step_trace comparison."""
    if case in TWO_PART_GRIDS:
        inst = two_part_instance(costs=CostParams(60.0, 60.0), d=TWO_PART_GRIDS[case])
        if inst.grid.d in (4, 20):
            # even grids on which the float distances from 0.5 to its two neighbouring
            # centers differ, so a distance-based snap would start one bin high;
            # rows across the support and a little past it
            scores = np.random.default_rng(0).uniform(-0.2, 1.2, (300, 2))
        else:
            # high-bin scores, as a positive location would produce, then mixed rows
            scores = np.array([[0.93, 0.88], [0.88, 0.93], [0.05, 0.97], [0.5, 0.02], [1.7, -0.4]])
        model = DetectorModel(bias=0.0, likelihoods=inst.likelihoods, costs=inst.costs)
        return model, train_policy(inst.likelihoods, inst.costs, inst.grid), scores
    if case.startswith("tiny-"):
        seed = int(case.split("-")[1])
        inst = random_tiny_instance(seed)
        # the support is [0, 1]: a third of the draws fall outside it
        scores = np.random.default_rng(seed).uniform(-0.5, 1.5, size=(400, inst.n_parts))
        model = DetectorModel(bias=0.0, likelihoods=inst.likelihoods, costs=inst.costs)
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        return model, policy, with_extremes(scores)
    model, provider = scan_synthetic(case)
    policy = train_policy(model.likelihoods, model.costs, BeliefGrid(101))
    return model, policy, with_extremes(provider.scores)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
