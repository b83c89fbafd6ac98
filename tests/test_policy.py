import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partsched import (
    BeliefGrid,
    CapacityError,
    CostParams,
    FormatError,
    InvalidActionError,
    InvalidParameterError,
    Policy,
    SyntheticSpec,
    TinyInstance,
    exhaustive_value_row,
    load_policy,
    make_synthetic,
    query_policy,
    random_tiny_instance,
    save_policy,
    train_policy,
)
from partsched.cli import VERIFY_TOLERANCE
from partsched import policy as policy_module
from partsched.policy import (
    LABEL_NEG,
    LABEL_POS,
    _score_bin_transitions,
    _training_bytes,
    part_action,
)

from conftest import (
    UNTRAINED_SHA256,
    overlapping_likelihood,
    separable_likelihood,
    spiked_likelihood,
    uninformative_likelihood,
    value_row,
)


class TestCostParams:
    @pytest.mark.parametrize("fp,fn", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0),
                                       (float("inf"), 1.0), (float("nan"), 1.0)])
    def test_rejects_non_positive(self, fp, fn):
        with pytest.raises(InvalidParameterError):
            CostParams(fp, fn)

    # True would pass as the int 1
    @pytest.mark.parametrize("fp,fn", [(True, 1.0), (1.0, True), ("4", 1.0)])
    def test_rejects_non_numbers(self, fp, fn):
        with pytest.raises(InvalidParameterError):
            CostParams(fp, fn)


class TestBeliefGrid:
    def test_centers_span_unit_interval(self):
        grid = BeliefGrid(101)
        assert grid.centers[0] == 0.0
        assert grid.centers[-1] == 1.0
        assert np.all(np.diff(grid.centers) > 0)

    def test_midpoint_ties_take_lower_bin(self):
        # d=5 puts centers and midpoints on exact binary fractions
        grid = BeliefGrid(5)
        for i in range(4):
            mid = (grid.centers[i] + grid.centers[i + 1]) / 2.0
            assert grid.nearest_index(mid) == i

    def test_clamps_out_of_range(self):
        grid = BeliefGrid(11)
        assert grid.nearest_index(-0.5) == 0
        assert grid.nearest_index(1.5) == 10

    @settings(max_examples=60)
    @given(p=st.floats(0.0, 1.0), d=st.integers(2, 101))
    def test_nearest_is_really_nearest(self, p, d):
        grid = BeliefGrid(d)
        idx = grid.nearest_index(p)
        dists = np.abs(grid.centers - p)
        assert dists[idx] <= dists.min() + 1e-15

    def test_scalar_and_array_agree(self):
        grid = BeliefGrid(21)
        ps = np.linspace(0, 1, 997)
        arr = grid.nearest_index(ps)
        assert all(arr[i] == grid.nearest_index(float(p)) for i, p in enumerate(ps))
        with pytest.raises(ValueError):
            grid.nearest_index(np.array([0.5, np.nan]))


def terminal_stage(costs, grid):
    """The trained values and labels once every part has been used.

    The labels are the full mask's action row.  The values are V(empty, .) of a
    DP whose one part is uninformative: it leaves the belief where it is, so it
    is never worth its unit cost and V(empty, .) is the stop risk, as V(full, .) is."""
    policy = train_policy([uninformative_likelihood(0)], costs, grid)
    assert np.array_equal(policy.actions[0], policy.actions[-1])
    return policy.values, policy.actions[-1]


class TestTerminalStage:
    def test_symmetric_costs_value_at_half(self):
        values, _ = terminal_stage(CostParams(6.0, 6.0), BeliefGrid(101))
        assert values[50] == 3.0

    def test_boundaries_are_certain(self):
        values, actions = terminal_stage(CostParams(7.0, 3.0), BeliefGrid(11))
        assert values[0] == 0.0 and actions[0] == LABEL_NEG
        assert values[-1] == 0.0 and actions[-1] == LABEL_POS

    def test_label_switch_at_cost_ratio(self):
        # 5p = 20(1-p)  =>  switch at p* = 0.8
        grid = BeliefGrid(101)
        _, actions = terminal_stage(CostParams(20.0, 5.0), grid)
        first_pos = int(np.argmax(actions == LABEL_POS))
        assert grid.centers[first_pos] == pytest.approx(0.8, abs=0.0101)
        assert np.all(actions[:first_pos] == LABEL_NEG)
        assert np.all(actions[first_pos:] == LABEL_POS)

    def test_matches_formula_bit_exactly(self):
        costs = CostParams(13.7, 2.9)
        grid = BeliefGrid(101)
        values, _ = terminal_stage(costs, grid)
        expected = np.minimum(costs.lambda_fn * grid.centers,
                              costs.lambda_fp * (1.0 - grid.centers))
        assert np.array_equal(values, expected)

    def test_scaling_costs_leaves_labels_unchanged(self):
        grid = BeliefGrid(101)
        _, actions = terminal_stage(CostParams(20.0, 5.0), grid)
        _, scaled = terminal_stage(CostParams(20.0 * 7.5, 5.0 * 7.5), grid)
        assert np.array_equal(actions, scaled)


class TestBeliefUpdate:
    """Entries of the snapped successor table, the one belief update of training and inference."""

    def test_uninformative_observation_keeps_belief(self):
        lik = uninformative_likelihood(0)
        grid = BeliefGrid(11)
        successors = _score_bin_transitions(lik, grid)[1]
        assert np.array_equal(successors[:, lik.pos.bin_index(0.3)], np.arange(grid.d))

    def test_hand_computed_posterior(self):
        # h+(m)=0.6, h-(m)=0.2 at the spiked bin: 0.6*0.5/(0.6*0.5+0.2*0.5)=0.75
        lik = spiked_likelihood(0, n_bins=8, pos_value=0.6, neg_value=0.2, spike_bin=3)
        grid = BeliefGrid(101)
        weights, successors = _score_bin_transitions(lik, grid)
        i, j = grid.nearest_index(0.5), lik.pos.bin_index(lik.pos.centers[3])
        assert successors[i, j] == grid.nearest_index(0.75) == 75
        assert weights[i, j] == pytest.approx((0.6 * 0.5 + 0.2 * 0.5) * lik.pos.bin_width,
                                              abs=1e-12)

    def test_absorbing_boundaries(self):
        lik = separable_likelihood(0)
        grid = BeliefGrid(11)
        successors = _score_bin_transitions(lik, grid)[1]
        assert successors[0, lik.pos.bin_index(0.9)] == 0
        assert successors[grid.d - 1, lik.pos.bin_index(0.1)] == grid.d - 1

    @settings(max_examples=60)
    @given(i=st.integers(0, 20), m=st.floats(-10.0, 10.0))
    def test_stays_in_unit_interval(self, i, m):
        lik = overlapping_likelihood(0)
        successors = _score_bin_transitions(lik, BeliefGrid(21))[1]
        assert successors.dtype == np.intp
        assert 0 <= successors[i, lik.pos.bin_index(m)] <= 20


def expected_q(lik, grid, next_values):
    """Expected successor value of evaluating a part from each grid belief.

    The same contraction of `_score_bin_transitions` rows that train_policy does.
    """
    weights, successors = _score_bin_transitions(lik, grid)
    return (weights * next_values[successors]).sum(axis=1)


class TestExpectedQ:
    def test_uninformative_part_propagates_value(self):
        lik = uninformative_likelihood(0)
        grid = BeliefGrid(11)
        next_values = np.linspace(3.0, 9.0, 11)
        q = expected_q(lik, grid, next_values)
        for i in range(grid.d):
            assert q[i] == pytest.approx(next_values[i], abs=1e-12)

    def test_constant_values_pass_through(self):
        lik = separable_likelihood(0)
        grid = BeliefGrid(21)
        q = expected_q(lik, grid, np.full(21, 4.25))
        assert q == pytest.approx(np.full(21, 4.25), abs=1e-12)

    def test_separable_part_reaches_near_zero_risk(self):
        # from p=0.5 a perfectly separating part leaves almost no label risk
        lik = separable_likelihood(0, n_bins=2)
        costs = CostParams(4.0, 4.0)
        grid = BeliefGrid(11)
        next_values, _ = terminal_stage(costs, grid)
        q = expected_q(lik, grid, next_values)[grid.nearest_index(0.5)]
        # independent two-bin enumeration with the same nearest-bin dynamics
        expected = 0.0
        width = lik.pos.bin_width
        for j in range(2):
            hp, hn = float(lik.pos.bins[j]), float(lik.neg.bins[j])
            weight = (0.5 * hp + 0.5 * hn) * width
            posterior = hp * 0.5 / (hp * 0.5 + hn * 0.5)
            expected += weight * next_values[grid.nearest_index(posterior)]
        assert q == pytest.approx(expected, abs=1e-12)
        assert q <= 1e-3


class TestTrainPolicy:
    def test_negligible_costs_stop_immediately(self):
        lik = overlapping_likelihood(0)
        policy = train_policy([lik], CostParams(1e-4, 1e-4), BeliefGrid(11))
        assert query_policy(policy, 0, 0.5) in (LABEL_NEG, LABEL_POS)

    def test_uninformative_part_not_worth_evaluating(self):
        policy = train_policy([uninformative_likelihood(0)], CostParams(10.0, 10.0),
                              BeliefGrid(11))
        half = policy.grid.nearest_index(0.5)
        assert policy.values[half] == 5.0
        assert policy.actions[0, half] in (LABEL_NEG, LABEL_POS)

    def test_tie_prefers_background_label(self):
        # stop costs are 1.0 == 1.0 at p=0.5 and beat continuing
        policy = train_policy([uninformative_likelihood(0)], CostParams(2.0, 2.0),
                              BeliefGrid(11))
        assert query_policy(policy, 0, 0.5) == LABEL_NEG

    def test_capacity_limit(self):
        # 2^64 action rows pass any machine's memory
        liks = [uninformative_likelihood(k) for k in range(64)]
        with pytest.raises(CapacityError, match="physical memory"):
            train_policy(liks, CostParams(4.0, 4.0), BeliefGrid(3))

    def test_byte_budget_is_checked_against_physical_memory(self, monkeypatch):
        liks = [overlapping_likelihood(k) for k in range(3)]
        need = _training_bytes(3, 11)
        monkeypatch.setattr(policy_module, "_physical_memory", lambda: need)
        train_policy(liks, CostParams(4.0, 4.0), BeliefGrid(11))
        monkeypatch.setattr(policy_module, "_physical_memory", lambda: need - 1)
        with pytest.raises(CapacityError, match=f"needs {need} bytes"):
            train_policy(liks, CostParams(4.0, 4.0), BeliefGrid(11))

    def test_peak_memory_is_the_actions_and_two_stage_layers(self):
        # n=12, d=101: the largest stage holds C(12, 6) = 924 masks, a layer of
        # 746,592 bytes.  Two adjacent layers, the best-part table and one part's
        # temporaries fit in four; a table of every mask's values alone takes 3.3 MB,
        # four and a half.
        spec = SyntheticSpec(n_parts=12, separation=2.0, prior_positive=0.3,
                             n_locations=10, seed=31)
        liks = make_synthetic(spec)[0].likelihoods
        d = 101
        layer = math.comb(12, 6) * d * 8
        transitions = 12 * d * d * 8
        tracemalloc.start()
        try:
            policy = train_policy(liks, CostParams(20.0, 5.0), BeliefGrid(d))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert policy.actions.nbytes == (1 << 12) * d
        assert peak <= policy.actions.nbytes + transitions + 4 * layer
        assert peak <= _training_bytes(12, d)

    def test_full_mask_matches_terminal_stage(self):
        liks = [separable_likelihood(0), overlapping_likelihood(1)]
        costs = CostParams(9.0, 3.0)
        grid = BeliefGrid(21)
        policy = train_policy(liks, costs, grid)
        stop_neg = costs.lambda_fn * grid.centers
        stop_pos = costs.lambda_fp * (1.0 - grid.centers)
        actions = np.where(stop_neg <= stop_pos, LABEL_NEG, LABEL_POS)
        assert np.array_equal(policy.actions[-1], actions)
        # the exhaustive full-mask row is the stop risk, and V(empty, .) built on it agrees
        inst = TinyInstance(likelihoods=liks, costs=costs, grid=grid)
        assert np.array_equal(exhaustive_value_row(inst, 0b11), np.minimum(stop_neg, stop_pos))
        assert np.max(np.abs(policy.values - exhaustive_value_row(inst))) <= 1e-12

    def test_deterministic(self):
        liks = [overlapping_likelihood(0), separable_likelihood(1)]
        a = train_policy(liks, CostParams(8.0, 4.0), BeliefGrid(31))
        b = train_policy(liks, CostParams(8.0, 4.0), BeliefGrid(31))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.actions, b.actions)


def three_part_likelihoods():
    return [overlapping_likelihood(0, tilt=0.5),
            separable_likelihood(1),
            overlapping_likelihood(2, tilt=0.8)]


@pytest.fixture(scope="module")
def trained_three_part():
    costs = CostParams(12.0, 5.0)
    grid = BeliefGrid(41)
    return train_policy(three_part_likelihoods(), costs, grid), costs, grid


@pytest.fixture(scope="module")
def three_part_rows(trained_three_part):
    """V(s, .) of trained_three_part's problem for every mask s, one row each."""
    policy, costs, grid = trained_three_part
    rows = np.array([value_row(three_part_likelihoods(), costs, grid, s)
                     for s in range(policy.n_states)])
    assert np.array_equal(rows[0], policy.values)
    return rows


class TestPolicyInvariants:
    def test_value_row_identity_matches_exhaustive_rows(self):
        # V(s, .) = V(empty, .) of the DP over the parts s leaves free, checked
        # against the oracle's rows started at every mask s
        for seed in range(8):
            inst = random_tiny_instance(seed)
            for s in range(1 << inst.n_parts):
                row = value_row(inst.likelihoods, inst.costs, inst.grid, s)
                assert np.max(np.abs(row - exhaustive_value_row(inst, s))) <= VERIFY_TOLERANCE

    def test_stopping_bound(self, trained_three_part, three_part_rows):
        _, costs, grid = trained_three_part
        stop = np.minimum(costs.lambda_fn * grid.centers,
                          costs.lambda_fp * (1.0 - grid.centers))
        assert np.all(three_part_rows <= stop[None, :] + 1e-12)

    def test_more_options_never_hurt(self, trained_three_part, three_part_rows):
        policy, _, _ = trained_three_part
        for s in range(policy.n_states):
            for k in range(policy.n_parts):
                if not (s >> k) & 1:
                    superset = s | (1 << k)
                    assert np.all(three_part_rows[s] <= three_part_rows[superset] + 1e-12)

    def test_boundary_certainty(self, trained_three_part, three_part_rows):
        policy, _, _ = trained_three_part
        assert np.all(three_part_rows[:, 0] == 0.0)
        assert np.all(three_part_rows[:, -1] == 0.0)
        assert np.all(policy.actions[:, 0] == LABEL_NEG)
        assert np.all(policy.actions[:, -1] == LABEL_POS)

    def test_actions_reference_unused_parts_only(self, trained_three_part):
        policy, _, _ = trained_three_part
        for s in range(policy.n_states):
            for a in np.unique(policy.actions[s]):
                if a >= 2:
                    assert not (s >> (int(a) - 2)) & 1
        assert policy.actions[-1].max() <= LABEL_POS

    def test_values_non_negative(self, three_part_rows):
        assert three_part_rows.min() >= 0.0


class TestQueryPolicy:
    def test_full_mask_boundary(self, trained_three_part):
        policy, _, _ = trained_three_part
        assert query_policy(policy, policy.n_states - 1, 0.0) == LABEL_NEG
        assert query_policy(policy, policy.n_states - 1, 1.0) == LABEL_POS

    def test_invalid_mask(self, trained_three_part):
        policy, _, _ = trained_three_part
        with pytest.raises(InvalidParameterError, match="mask 8 outside 0..7"):
            query_policy(policy, policy.n_states, 0.5)
        with pytest.raises(InvalidParameterError, match="mask -1 outside 0..7"):
            query_policy(policy, -1, 0.5)

    def test_matches_table(self, trained_three_part):
        policy, _, grid = trained_three_part
        for mask in (0, 1, 5):
            for p in (0.0, 0.24, 0.5, 0.87, 1.0):
                assert query_policy(policy, mask, p) == policy.actions[mask, grid.nearest_index(p)]


@pytest.mark.parametrize("d", [2, 11, 100, 101])
def test_start_is_the_bin_nearest_half_read_once(d):
    shape = (2, d)
    policy = Policy(n_parts=1, grid=BeliefGrid(d), costs=CostParams(1.0, 1.0),
                    actions=np.full(shape, LABEL_NEG, dtype=np.uint8), values=np.zeros(d),
                    likelihoods_sha256=UNTRAINED_SHA256)
    # an even grid has no center at 0.5: the start is the lower nearest one
    assert policy.start == policy.grid.nearest_index(0.5) == (d - 1) // 2
    assert vars(policy)["start"] == policy.start  # kept on the policy after the first read


class TestPersistence:
    def test_round_trip_bytes_and_content(self, tmp_path, trained_three_part):
        policy, costs, _ = trained_three_part
        first = tmp_path / "p1.bin"
        second = tmp_path / "p2.bin"
        save_policy(policy, first)
        loaded = load_policy(first)
        save_policy(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.n_parts == policy.n_parts
        assert loaded.costs == costs
        assert np.array_equal(loaded.actions, policy.actions)
        assert np.array_equal(loaded.values, policy.values)

    def test_header_schema(self, tmp_path, trained_three_part):
        policy, _, _ = trained_three_part
        path = tmp_path / "p.bin"
        save_policy(policy, path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert set(header) == {"n_parts", "d", "lambda_fp", "lambda_fn", "likelihoods_sha256"}
        assert header["likelihoods_sha256"] == policy.likelihoods_sha256

    def test_file_is_header_actions_and_value_row(self, tmp_path, trained_three_part):
        policy, _, grid = trained_three_part
        path = tmp_path / "p.bin"
        save_policy(policy, path)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert path.stat().st_size == len(header) + 1 + (1 << 3) * grid.d + 8 * grid.d

    def test_likelihoods_digest_covers_every_float(self):
        liks = [overlapping_likelihood(0), separable_likelihood(1, n_bins=8, lo=-1.0, hi=2.0)]
        policy = train_policy(liks, CostParams(4.0, 4.0), BeliefGrid(11))
        payload = b"".join(struct.pack("<2d", lik.pos.lo, lik.pos.hi)
                           + struct.pack("<8d", *lik.pos.bins) + struct.pack("<8d", *lik.neg.bins)
                           for lik in liks)
        assert policy.likelihoods_sha256 == hashlib.sha256(payload).hexdigest()
        swapped = [dataclasses.replace(liks[0], pos=liks[0].neg, neg=liks[0].pos), liks[1]]
        other = train_policy(swapped, CostParams(4.0, 4.0), BeliefGrid(11))
        assert other.likelihoods_sha256 != policy.likelihoods_sha256

    def test_old_format_file_rejected(self, tmp_path, trained_three_part):
        # a header without the digest, then the whole value table
        policy, _, grid = trained_three_part
        header = b'{"d":41,"lambda_fn":5.0,"lambda_fp":12.0,"n_parts":3}\n'
        path = tmp_path / "old.bin"
        path.write_bytes(header + policy.actions.tobytes() + bytes(8 * 8 * grid.d))
        with pytest.raises(FormatError, match="likelihoods_sha256"):
            load_policy(path)

    @pytest.mark.parametrize("n_parts", [10 ** 9, 64, 4, 2])
    def test_part_count_checked_against_the_payload_first(self, tmp_path, n_parts):
        # 10^9 parts would shift to a 125 MB integer and 2^64 rows pass any memory;
        # the 3-part payload does not fit 2 or 4 parts either
        header = json.dumps({"d": 11, "lambda_fn": 1.0, "lambda_fp": 1.0, "n_parts": n_parts,
                             "likelihoods_sha256": UNTRAINED_SHA256})
        path = tmp_path / "p.bin"
        path.write_bytes(header.encode() + b"\n" + bytes(8 * 11 + 8 * 11))
        with pytest.raises(FormatError, match="table payload is 176 bytes"):
            load_policy(path)

    def test_truncated_payload_rejected(self, tmp_path, trained_three_part):
        from partsched import FormatError

        policy, _, _ = trained_three_part
        path = tmp_path / "p.bin"
        save_policy(policy, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(FormatError):
            load_policy(path)

    def test_corrupt_action_rejected(self, tmp_path):
        from partsched import FormatError

        policy = train_policy([separable_likelihood(0)], CostParams(3.0, 3.0), BeliefGrid(5))
        path = tmp_path / "p.bin"
        save_policy(policy, path)
        data = bytearray(path.read_bytes())
        header_len = data.index(b"\n") + 1
        data[header_len] = 200  # part code far out of range
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_policy(path)

    def test_save_writes_tables_from_their_buffers(self, tmp_path, rng):
        shape = (1 << 12, 101)
        values = rng.standard_normal(101)
        policy = Policy(n_parts=12, grid=BeliefGrid(101), costs=CostParams(20.0, 5.0),
                        actions=np.ones(shape, dtype=np.uint8), values=values,
                        likelihoods_sha256=UNTRAINED_SHA256)
        path = tmp_path / "p.bin"
        tracemalloc.start()
        try:
            save_policy(policy, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16  # the tables take 414 KB; one blob of them, as much again
        header = path.read_bytes().split(b"\n", 1)[0] + b"\n"
        assert path.read_bytes() == header + policy.actions.tobytes() + values.tobytes()

    def test_save_bytes_ignore_table_memory_layout(self, tmp_path, trained_three_part):
        policy, _, _ = trained_three_part
        strided = dataclasses.replace(policy, actions=np.asfortranarray(policy.actions),
                                      values=policy.values.astype(">f8"))
        save_policy(policy, tmp_path / "c.bin")
        save_policy(strided, tmp_path / "f.bin")
        assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()

    def test_tables_are_read_only_owned_copies(self, tmp_path, trained_three_part):
        policy, _, _ = trained_three_part
        path = tmp_path / "p.bin"
        save_policy(policy, path)
        loaded = load_policy(path)
        for table in (policy.actions, policy.values, loaded.actions, loaded.values):
            assert not table.flags.writeable
            assert table.flags.owndata
        actions = np.zeros((2, 5), dtype=np.uint8)
        values = np.zeros(5)
        built = Policy(n_parts=1, grid=BeliefGrid(5), costs=CostParams(1.0, 1.0),
                       actions=actions, values=values, likelihoods_sha256=UNTRAINED_SHA256)
        assert not np.shares_memory(built.actions, actions)
        assert not np.shares_memory(built.values, values)

    @pytest.mark.parametrize("n_parts, actions, values", [
        (1, (2, 5), (2, 5)),   # the whole value table of the old format
        (1, (2, 5), (4,)),
        (2, (2, 5), (5,)),
        (0, (1, 5), (5,)),
    ], ids=["value-table", "short-row", "rows-for-1-part", "no-parts"])
    def test_constructor_rejects_table_shapes(self, n_parts, actions, values):
        with pytest.raises(ValueError, match="action table and a \\(5,\\) value row"):
            Policy(n_parts=n_parts, grid=BeliefGrid(5), costs=CostParams(1.0, 1.0),
                   actions=np.zeros(actions, dtype=np.uint8), values=np.zeros(values),
                   likelihoods_sha256=UNTRAINED_SHA256)

    # mask 0b10 already used part 1, the full mask every part, and code 4
    # would be part 2 of a 2-part policy
    @pytest.mark.parametrize("mask, action, message", [
        (0b10, part_action(1), "already-used part"),
        (0b11, part_action(0), "already-used part"),
        (0b00, part_action(2), "action code 4 out of range"),
    ], ids=["used-part", "full-mask", "out-of-range"])
    def test_constructor_rejects_invalid_entry(self, mask, action, message):
        actions = np.zeros((4, 5), dtype=np.uint8)
        actions[mask, 3] = action
        with pytest.raises(InvalidActionError, match=message):
            Policy(n_parts=2, grid=BeliefGrid(5), costs=CostParams(1.0, 1.0),
                   actions=actions, values=np.zeros(5), likelihoods_sha256=UNTRAINED_SHA256)

    # each would cast to a valid uint8 code: 258 wraps to 2, -255 to 1, 2.7 truncates
    # to 2 and NaN lands on some byte; a NaN cast warns, which pyproject makes an error
    @pytest.mark.parametrize("code", [258, -255, 2.7, float("nan")])
    def test_constructor_rejects_codes_the_cast_changes(self, code):
        actions = np.zeros((4, 5), dtype=np.asarray(code).dtype)  # int64 or float64
        actions[0, 3] = code
        with pytest.raises(InvalidActionError, match="out of range"):
            Policy(n_parts=2, grid=BeliefGrid(5), costs=CostParams(1.0, 1.0),
                   actions=actions, values=np.zeros(5), likelihoods_sha256=UNTRAINED_SHA256)

    @pytest.mark.parametrize("d", [11, (1 << 20) + 1])
    def test_used_part_rejected_at_every_size(self, tmp_path, d):
        # part 0 asked for at mask 0b01, where it is already used; the larger
        # table has more entries than any size limit on the check
        actions = np.zeros((4, d), dtype=np.uint8)
        actions[0b01, 0] = part_action(0)
        path = tmp_path / "p.bin"
        header = json.dumps({"d": d, "lambda_fn": 1.0, "lambda_fp": 1.0, "n_parts": 2,
                             "likelihoods_sha256": UNTRAINED_SHA256}).encode() + b"\n"
        path.write_bytes(header + actions.tobytes() + np.zeros(d, "<f8").tobytes())
        with pytest.raises(FormatError, match="already-used part"):
            load_policy(path)


def digest_case(case):
    """(likelihoods, costs, grid) of a seeded instance with a recorded action digest."""
    if case == "repeated":
        # one fitted likelihood under six part ids: every part ties with every
        # other, so the tables exercise the lowest-index tie rule
        spec = SyntheticSpec(n_parts=1, separation=1.5, prior_positive=0.5,
                             n_locations=10, seed=7)
        lik = make_synthetic(spec)[0].likelihoods[0]
        liks = [dataclasses.replace(lik, part_id=k) for k in range(6)]
        return liks, CostParams(40.0, 40.0), BeliefGrid(101)
    # n=9 in the two scan regimes, and a fitted n=12 instance at the CLI
    # pipeline's operating point
    n_parts, separation, prior, costs = {
        "scan": (9, 4.0, 0.01, CostParams(20.0, 5.0)),
        "scan-deep": (9, 1.0, 0.3, CostParams(200.0, 200.0)),
        "fitted-12": (12, 2.0, 0.3, CostParams(20.0, 5.0)),
    }[case]
    spec = SyntheticSpec(n_parts=n_parts, separation=separation, prior_positive=prior,
                         n_locations=10, seed=31)
    return make_synthetic(spec, costs)[0].likelihoods, costs, BeliefGrid(101)


# sha256 of the trained action tables, recorded with the per-mask trainer
# that the stage-batched matrix products replaced.  Actions are decided by
# exact float comparisons, so a moved digest means a changed policy, not
# rounding noise: fix the trainer, do not re-record.
RECORDED_ACTION_SHA256 = {
    "scan": "78c6c5abe0077c87bc1ee2c939178cd05d908cc602855b99fe0ffc9484160c98",
    "scan-deep": "e058548c6ed768b213e8ed593e61f78c3deb00d17588a524664e838f6ea8ae27",
    "fitted-12": "4c0b42091ec73cea0d42bec81c4b068cfc613f036e7021b7c1b9207761dd6d63",
    "repeated": "9c9a2079aa4b19ff40157ef666da43a059287ce15f21a932d01cd10fd4e34402",
    "tiny-0..49": "564cce8563acaa07691e4e823ac156f8d019e47f493af18337f60d437b1146f8",
}


@pytest.mark.parametrize("case", list(RECORDED_ACTION_SHA256))
def test_action_tables_match_recorded_digests(case):
    digest = hashlib.sha256()
    if case == "tiny-0..49":
        for seed in range(50):
            inst = random_tiny_instance(seed)
            policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
            digest.update(policy.actions.tobytes())
            assert np.max(np.abs(policy.values - exhaustive_value_row(inst))) <= VERIFY_TOLERANCE
    else:
        policy = train_policy(*digest_case(case))
        digest.update(policy.actions.tobytes())
    if case == "repeated":
        # ties between parts go to the lowest-indexed part
        asked = policy.actions[0][policy.actions[0] > LABEL_POS]
        assert asked.size and np.all(asked == part_action(0))
    assert digest.hexdigest() == RECORDED_ACTION_SHA256[case]
