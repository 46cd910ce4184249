"""Transport planning, goal assignment, and the two-phase rewiring engine."""

import gc
import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homshift import (
    BetaGoal,
    EditLog,
    EditRecord,
    GenerationReport,
    Graph,
    HomophilyHistogram,
    NodeGoal,
    NodeTable,
    TransportPlan,
    assign_node_goals,
    beta_goal_histogram,
    bin_index,
    emd,
    generate,
    histogram,
    local_homophily_all,
    refine_phase,
    rewire_phase,
    save_edge_list,
    transport_plan,
    two_class_sbm,
)

from homshift import rewire
from homshift.homophily import defined_histogram
from homshift.rewire import _EditState, _adjacency_lists

from conftest import (
    EditLogChecker,
    assert_same_graph,
    GATE_TOL,
    edge_move_bounds,
    lp_transport_cost,
    reference_assign_node_goals,
    reference_best_partner,
    reference_edit_log_load,
    reference_edit_state,
    reference_removal,
    reference_replay,
)


@pytest.fixture(scope="module")
def small_pair():
    """600-node SBM shared by the rewiring invariant tests."""
    return two_class_sbm(600, 8, 0.5, seed=13)


@pytest.fixture(scope="module")
def small_goals(small_pair):
    g, t = small_pair
    ratios = local_homophily_all(g, t)
    source = histogram(ratios[~np.isnan(ratios)], 10)
    target = beta_goal_histogram(BetaGoal(3.0, 10.0), 10)
    plan = transport_plan(source, target)
    goals = assign_node_goals(plan, ratios, 10, seed=5)
    return ratios, source, target, goals


@pytest.fixture(scope="module")
def rewired(small_pair, small_goals):
    g, t = small_pair
    goals = small_goals[3]
    return rewire_phase(g, t, goals, seed=21)


@pytest.fixture(scope="module")
def gen_run(small_pair):
    g, t = small_pair
    return generate(g, t, BetaGoal(3.0, 10.0), 10, seed=11)


# ---------------------------------------------------------------- transport


def test_transport_plan_identity_is_diagonal():
    h = HomophilyHistogram(2, np.array([0.3, 0.7]))
    plan = transport_plan(h, h)
    assert np.allclose(plan.matrix, np.diag([0.3, 0.7]), atol=1e-15)


def test_transport_plan_two_bin_swap():
    p = HomophilyHistogram(2, np.array([1.0, 0.0]))
    q = HomophilyHistogram(2, np.array([0.0, 1.0]))
    assert np.allclose(transport_plan(p, q).matrix, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
    # and the reverse direction fills the lower triangle instead
    assert np.allclose(transport_plan(q, p).matrix, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_transport_plan_partial_overlap():
    p = HomophilyHistogram(2, np.array([0.6, 0.4]))
    q = HomophilyHistogram(2, np.array([0.3, 0.7]))
    assert np.allclose(transport_plan(p, q).matrix, [[0.3, 0.3], [0.0, 0.4]], atol=1e-15)


def test_transport_plan_cost_matches_lp_oracle():
    """Monotone filling is optimal for this ground cost: equals LP and EMD."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        b = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(b))
        q = rng.dirichlet(np.ones(b))
        p, q = p / p.sum(), q / q.sum()
        hp, hq = HomophilyHistogram(b, p), HomophilyHistogram(b, q)
        plan = transport_plan(hp, hq)
        assert np.allclose(plan.matrix.sum(axis=1), p, atol=1e-9)
        assert np.allclose(plan.matrix.sum(axis=0), q, atol=1e-9)
        dist = np.abs(np.subtract.outer(np.arange(b), np.arange(b))) / b
        cost = float((plan.matrix * dist).sum())
        assert abs(cost - emd(hp, hq)) < 1e-12
        assert abs(cost - lp_transport_cost(p, q)) < 1e-9


def test_transport_plan_bin_mismatch_rejected():
    p = HomophilyHistogram(2, np.array([0.5, 0.5]))
    q = HomophilyHistogram(3, np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        transport_plan(p, q)


def test_transport_plan_negative_entry_rejected():
    with pytest.raises(ValueError):
        TransportPlan(2, np.array([[-0.5, 0.5], [0.0, 1.0]]))


# ---------------------------------------------------------- goal assignment


def test_diagonal_plan_keeps_everyone_in_place():
    ratios = np.array([0.05, 0.05, 0.55, 0.95])
    source = histogram(ratios, 2)
    plan = TransportPlan(2, np.diag(source.mass))
    goals = assign_node_goals(plan, ratios, 2, seed=0)
    assert len(goals) == 4
    for gl in goals:
        assert gl.direction == 0
        expected_center = 0.25 if ratios[gl.node] < 0.5 else 0.75
        assert gl.h_goal == expected_center


def test_split_row_moves_half():
    # ten nodes in bin 0 of two; half the row mass is routed to bin 1
    ratios = np.full(10, 0.2)
    plan = TransportPlan(2, np.array([[0.5, 0.5], [0.0, 0.0]]))
    goals = assign_node_goals(plan, ratios, 2, seed=1)
    stay = [gl for gl in goals if gl.direction == 0]
    move = [gl for gl in goals if gl.direction != 0]
    assert len(stay) == 5 and len(move) == 5
    assert all(gl.h_goal == 0.25 for gl in stay)
    assert all(gl.h_goal == 0.75 and gl.direction == 1 for gl in move)


def test_goal_assignment_deterministic():
    ratios = np.full(10, 0.2)
    plan = TransportPlan(2, np.array([[0.5, 0.5], [0.0, 0.0]]))
    a = assign_node_goals(plan, ratios, 2, seed=3)
    b = assign_node_goals(plan, ratios, 2, seed=3)
    assert a == b


def test_goal_counts_match_plan_quotas():
    rng = np.random.default_rng(4)
    ratios = rng.beta(5.0, 2.0, size=400)
    source = histogram(ratios, 6)
    target = beta_goal_histogram(BetaGoal(2.0, 5.0), 6)
    plan = transport_plan(source, target)
    goals = assign_node_goals(plan, ratios, 6, seed=9)

    assert [gl.node for gl in goals] == sorted(gl.node for gl in goals)
    bins = bin_index(ratios, 6)
    centers = (np.arange(6) + 0.5) / 6
    counts = np.zeros((6, 6), dtype=int)
    for gl in goals:
        i = int(bins[gl.node])
        j = int(np.argmin(np.abs(centers - gl.h_goal)))
        assert abs(centers[j] - gl.h_goal) < 1e-12
        assert gl.h_current == ratios[gl.node]
        if j == i:
            assert gl.direction == 0
        else:
            assert gl.direction == (1 if centers[j] > ratios[gl.node] else -1)
        counts[i, j] += 1

    # row totals are exact; each cell is within one node of its quota,
    # the defining property of largest-remainder rounding
    for i in range(6):
        n_i = int((bins == i).sum())
        assert counts[i].sum() == n_i
        row = plan.matrix[i].sum()
        if n_i and row > 0:
            quota = plan.matrix[i] / row * n_i
            assert np.all(np.abs(counts[i] - quota) < 1.0 + 1e-6)


def test_inconsistent_plan_rejected():
    ratios = np.full(10, 0.2)
    plan = TransportPlan(2, np.array([[0.4, 0.4], [0.0, 0.2]]))
    with pytest.raises(ValueError):
        assign_node_goals(plan, ratios, 2, seed=0)


@st.composite
def _goal_cases(draw):
    """Ratios with NaNs, bin boundaries and small-denominator values (which
    leave bins empty), a bin count, a Beta goal and a seed."""
    bin_count = draw(st.integers(2, 12))
    ratio = st.one_of(
        st.just(math.nan),
        st.floats(0.0, 1.0),
        st.integers(0, bin_count).map(lambda k: k / bin_count),
        st.tuples(st.integers(1, 4), st.integers(0, 4)).map(lambda dn: min(dn) / dn[0]))
    ratios = np.array(draw(st.lists(ratio, min_size=1, max_size=80)))
    goal = BetaGoal(draw(st.floats(0.2, 20.0)), draw(st.floats(0.2, 20.0)))
    return ratios, bin_count, goal, draw(st.integers(0, 2**32 - 1))


@given(_goal_cases())
@settings(max_examples=300, deadline=None)
def test_goal_assignment_matches_the_node_by_node_reference(case):
    ratios, bin_count, goal, seed = case
    if np.isnan(ratios).all():
        with pytest.raises(ValueError, match="no node has a defined ratio"):
            assign_node_goals(TransportPlan(bin_count, np.eye(bin_count) / bin_count),
                              ratios, bin_count, seed)
        return
    plan = transport_plan(defined_histogram(ratios, bin_count),
                          beta_goal_histogram(goal, bin_count))
    goals = assign_node_goals(plan, ratios, bin_count, seed)
    expected = reference_assign_node_goals(plan, ratios, bin_count, seed)
    assert goals == expected
    assert ([tuple(map(type, vars(gl).values())) for gl in goals]
            == [tuple(map(type, vars(gl).values())) for gl in expected])


# ------------------------------------------------------------- move bounds


def test_edge_move_bounds_examples():
    assert edge_move_bounds(0.2, 0.5, 10) == (3, 6)
    assert edge_move_bounds(0.8, 0.5, 10) == (3, 6)
    assert edge_move_bounds(0.5, 0.5, 10) == (0, 0)
    # goals at the ends of the scale cannot be reached by additions alone,
    # so the addition bound falls back to the flip bound
    assert edge_move_bounds(0.4, 1.0, 5) == (3, 3)
    assert edge_move_bounds(0.4, 0.0, 5) == (2, 2)


def test_edge_move_bounds_float_dust():
    # 0.2 - 0.1 slightly exceeds 0.1 in floats; the bound must still be 1
    assert edge_move_bounds(0.1, 0.2, 10)[0] == 1
    # a gap counts exactly when its lower bound leaves a move: gap * degree
    # beyond the dust _ceil_tol forgives, however small the gap itself
    assert edge_move_bounds(0.5, 0.5 + 8e-13, 2000) == (1, 1)
    assert edge_move_bounds(0.5, 0.5 + 5e-10, 1) == (0, 0)


def test_edge_move_bounds_invalid_degree():
    with pytest.raises(ValueError):
        edge_move_bounds(0.5, 0.7, 0)


def _min_flips(same: int, degree: int, target: Fraction) -> int:
    """Fewest same/different swaps (degree fixed) to reach or cross target."""
    h = Fraction(same, degree)
    if h == target:
        return 0
    if h < target:
        return next(m for m in range(degree - same + 1)
                    if Fraction(same + m, degree) >= target)
    return next(m for m in range(same + 1)
                if Fraction(same - m, degree) <= target)


def _min_additions(same: int, degree: int, target: Fraction):
    """Fewest pure additions to reach or cross target; None if unreachable."""
    h = Fraction(same, degree)
    if h == target:
        return 0
    for m in range(4001):
        if h < target and Fraction(same + m, degree + m) >= target:
            return m
        if h > target and Fraction(same, degree + m) <= target:
            return m
    return None


def test_edge_move_bounds_brute_force_oracle():
    degree = 10
    for same in range(degree + 1):
        for j in range(21):
            target = Fraction(j, 20)
            lower, upper = edge_move_bounds(same / degree, j / 20, degree)
            assert lower == _min_flips(same, degree, target)
            adds = _min_additions(same, degree, target)
            if adds is None:
                assert upper == lower
            else:
                assert upper == adds
            assert upper >= lower or adds is not None


def _new_state(g, t, goals):
    """A new _EditState with an empty log, built from a NodeGoal list."""
    return _EditState(g, t, *rewire._goal_arrays(goals), EditLog())


def test_a_fresh_state_is_live_exactly_when_the_lower_bound_leaves_a_move():
    """On every (same, degree, goal), goals within float dust of the ratio
    and at or near 0 and 1 included, a new _EditState marks the node live,
    with the sign of goal - h, exactly when edge_move_bounds' lower bound is
    at least 1, and then its upper bound is at least 1 too. So neither loop
    needs a bound test of its own."""
    cases = []
    for degree in range(1, 13):
        for same in range(degree + 1):
            h = same / degree
            goals = {0.0, 1e-13, 1 - 1e-13, 1.0, *(j / 20 for j in range(21))}
            goals |= {h + o for o in (1e-11, 5e-10, 1.5e-9, 1e-3) for o in (o, -o)}
            cases.append((degree, same, goals))
    # above degree 1000 a gap below 1e-12 can leave a move
    cases.append((2000, 1000, {0.5 + o for o in (4e-13, 8e-13) for o in (o, -o)}))
    seen = set()
    for degree, same, goals in cases:
        g = Graph.from_edges(degree + 1, [(0, k) for k in range(1, degree + 1)])
        # node 0 has `same` label-0 neighbours and degree - same label-1 ones
        t = NodeTable(np.array([0] * (same + 1) + [1] * (degree - same)),
                      np.zeros(degree + 1, dtype=int))
        h = same / degree
        for goal in sorted(x for x in goals if 0.0 <= x <= 1.0):
            state = _new_state(g, t, [NodeGoal(0, h, goal, 1)])
            lower, upper = edge_move_bounds(h, goal, degree)
            assert (state.live[0] != 0) == (lower >= 1) == (state.filed[0] is not None)
            if state.live[0]:
                assert state.live[0] == (1 if goal > h else -1) and upper >= 1
            seen.add(lower >= 1)
    assert seen == {True, False}


# ------------------------------------------------------------- hand traces


def test_rewire_phase_hand_trace():
    # Node 0 (label 0) sits at h=1/4 and wants 3/4. Its heterophilous
    # neighbors 1 and 2 want to shed their one cross edge; leaves 7 and 8
    # (label 0) each want one same-label edge. Two remove+add pairs fix
    # everyone. Seed 13 visits node 0 first in the source permutation;
    # the exact trace below depends on that order.
    g = Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (0, 4),
                              (1, 5), (2, 6), (7, 9), (8, 9)])
    t = NodeTable(np.array([0, 1, 1, 1, 0, 1, 1, 0, 0, 1]),
                  np.zeros(10, dtype=int))
    goals = [
        NodeGoal(0, 0.25, 0.75, 1),
        NodeGoal(1, 0.5, 1.0, 1),
        NodeGoal(2, 0.5, 1.0, 1),
        NodeGoal(3, 0.0, 0.0, 0),
        NodeGoal(4, 1.0, 1.0, 0),
        NodeGoal(7, 0.0, 0.5, 1),
        NodeGoal(8, 0.0, 0.5, 1),
    ]
    g2, log = rewire_phase(g, t, goals, seed=13)

    trace = [(r.phase, r.op, r.u, r.v) for r in log.records]
    assert trace == [("rewire", "remove", 0, 1), ("rewire", "add", 0, 7),
                     ("rewire", "remove", 0, 2), ("rewire", "add", 0, 8)]
    assert g2.edge_count == g.edge_count
    assert g2.degrees[0] == 4

    ratios = local_homophily_all(g2, t)
    assert ratios[0] == 0.75
    assert ratios[1] == 1.0 and ratios[2] == 1.0
    assert ratios[7] == 0.5 and ratios[8] == 0.5
    # direction-0 nodes keep their original neighborhoods
    assert g2.degrees[3] == 1 and g2.degrees[4] == 1


def test_rewire_phase_no_active_goals_is_identity(tiny_pair):
    g, t = tiny_pair
    ratios = local_homophily_all(g, t)
    goals = [NodeGoal(i, float(ratios[i]), float(ratios[i]), 0)
             for i in range(g.node_count)]
    g2, log = rewire_phase(g, t, goals, seed=0)
    assert log.records == []
    assert np.array_equal(g2.edge_array(), g.edge_array())


def test_refine_phase_single_addition():
    # two saturated nodes of different labels both want lower homophily;
    # one cross edge between them serves both
    g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1]), np.zeros(6, dtype=int))
    goals = [NodeGoal(0, 1.0, 0.5, -1), NodeGoal(1, 1.0, 0.5, -1)]
    g2, log = refine_phase(g, t, goals, seed=0)

    assert [(r.phase, r.op, r.u, r.v) for r in log.records] == [("refine", "add", 0, 1)]
    ratios = local_homophily_all(g2, t)
    assert ratios[0] == pytest.approx(2 / 3)
    assert ratios[1] == pytest.approx(2 / 3)


def test_refine_phase_on_target_is_identity(tiny_pair):
    g, t = tiny_pair
    ratios = local_homophily_all(g, t)
    goals = [NodeGoal(i, float(ratios[i]), float(ratios[i]), 0)
             for i in range(g.node_count)]
    g2, log = refine_phase(g, t, goals, seed=4)
    assert log.records == []
    assert np.array_equal(g2.edge_array(), g.edge_array())


@pytest.mark.parametrize("phase", [rewire_phase, refine_phase])
@pytest.mark.parametrize("h_goal", [1.5, -0.2, math.nan])
def test_phases_reject_a_moving_goal_outside_unit_interval(phase, h_goal):
    g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1]), np.zeros(6, dtype=int))
    goals = [NodeGoal(0, 1.0, 0.5, -1), NodeGoal(1, 1.0, h_goal, 1)]
    with pytest.raises(ValueError, match=r"^node 1 has goal .* outside \[0, 1\]$"):
        phase(g, t, goals, seed=0)


def _goal_check_pair():
    """Nodes 0-5 as in the refine hand trace; node 6 is isolated and node 7,
    a neighbour of 2, has no label."""
    g = Graph.from_edges(8, [(0, 2), (0, 3), (1, 4), (1, 5), (2, 7)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1, 0, -1]), np.zeros(8, dtype=int))
    return g, t


_GOOD = NodeGoal(0, 1.0, 0.5, -1)


@pytest.mark.parametrize("phase", [rewire_phase, refine_phase])
@pytest.mark.parametrize("goals, message", [
    ([_GOOD, NodeGoal(8, 0.5, 0.5, 0)], "goal for out-of-range node 8"),
    ([NodeGoal(-1, 0.5, 0.5, 0), _GOOD], "goal for out-of-range node -1"),
    ([_GOOD, NodeGoal(3, 1.0, 1.0, 0), NodeGoal(3, 1.0, 0.5, -1)], "duplicate goal for node 3"),
    ([_GOOD, NodeGoal(6, 0.0, 0.5, 1)], "node 6 has a move target but is isolated"),
    ([_GOOD, NodeGoal(7, 0.0, 0.5, 1)], "node 7 has a move target but no label"),
    # the first bad goal in list order is named, whatever its check
    ([_GOOD, NodeGoal(7, 0.0, 0.5, 1), NodeGoal(9, 0.5, 0.5, 0)],
     "node 7 has a move target but no label"),
    ([_GOOD, NodeGoal(9, 0.5, 0.5, 0), NodeGoal(7, 0.0, 0.5, 1)],
     "goal for out-of-range node 9"),
    ([NodeGoal(6, 0.0, 2.0, 1), _GOOD, _GOOD], "node 6 has a move target but is isolated"),
    ([_GOOD, NodeGoal(1, 1.0, 2.0, 1), _GOOD], "node 1 has goal 2.0 outside [0, 1]"),
])
def test_phases_name_the_first_bad_goal(phase, goals, message):
    g, t = _goal_check_pair()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        phase(g, t, goals, seed=0)


@pytest.mark.parametrize("phase", [rewire_phase, refine_phase])
def test_phases_accept_isolated_and_unlabeled_nodes_that_stay(phase):
    """Direction 0 exempts a goal from the move-target checks."""
    g, t = _goal_check_pair()
    goals = [_GOOD, NodeGoal(6, 0.0, 7.0, 0), NodeGoal(7, 0.0, 0.5, 0)]
    g2, _ = phase(g, t, goals, seed=0)
    assert g2.degrees[6] == 0 and g2.degrees[7] == 1


@pytest.mark.parametrize("op, v, message", [
    ("remove", 2, "internal: removing missing edge"),
    ("add", 1, "internal: adding duplicate or self edge"),
    ("add", 0, "internal: adding duplicate or self edge"),
])
def test_edit_refuses_a_missing_removal_a_present_addition_and_a_self_edge(op, v, message):
    """_edit checks the edge before it touches the state: on path 0-1-2,
    removing (0, 2), adding (0, 1) and adding (0, 0) each raise and leave the
    neighbour lists, degrees, same-label counts and log as they were."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = NodeTable(np.array([0, 0, 0]), np.zeros(3, dtype=int))
    state = _new_state(g, t, [NodeGoal(0, 1.0, 0.5, -1)])
    before = ([list(nbrs) for nbrs in state.adj], list(state.deg), list(state.same))
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        state._edit("refine", op, 0, v, True)
    assert (state.adj, state.deg, state.same) == before
    assert len(state.log) == 0


def _pool(state, c, s):
    """The partner pool of label c and sign s."""
    return state._pools[c][s]


def _pools_by_key(pools):
    """{(label, sign): pool} over an edit state's `_pools`, which holds each
    label's pools in a tuple indexed by sign."""
    return {(c, s): by_sign[s] for c, by_sign in pools.items() for s in (-1, 1)}


@pytest.mark.parametrize("v", [4, 5, 1])
def test_refresh_refuses_a_node_missing_from_its_partner_pool(v):
    """Nodes 4 and 5 share a class and node 1 is alone in its own. Taken out
    of its class's member list behind the state's back, a live node makes
    its next refresh raise."""
    g = Graph.from_edges(10, [(0, 2), (0, 3), (1, 6), (1, 7), (1, 8), (4, 9), (5, 9)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1, 1, 1, 1, 1]), np.zeros(10, dtype=int))
    goals = [NodeGoal(k, 1.0, 0.5, -1) for k in (0, 1, 4, 5)]
    state = _new_state(g, t, goals)
    members = _pool(state, 1, -1)[1][state.filed[v]]
    assert len(members) == (1 if v == 1 else 2)
    members.remove(v)
    with pytest.raises(RuntimeError, match="^internal: node missing from its partner pool$"):
        state._refresh(v)


# -------------------------------------------------------- partner choice


def _addition_state(partner_goals):
    """Node 0 (label 0, h=1) wants 0.5 and needs a cross-label partner.

    Node 1 (label 1, h=1, gap 1.0) and nodes 4 and 5 (label 1, h=1 via a
    shared neighbour 9) also want lower ratios; partner_goals sets the
    goals of 4 and 5.
    """
    g = Graph.from_edges(10, [(0, 2), (0, 3), (1, 6), (1, 7), (1, 8), (4, 9), (5, 9)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1, 1, 1, 1, 1]), np.zeros(10, dtype=int))
    goals = [NodeGoal(0, 1.0, 0.5, -1), NodeGoal(1, 1.0, 0.0, -1)]
    goals += [NodeGoal(v, 1.0, h, -1) for v, h in zip((4, 5), partner_goals)]
    return _new_state(g, t, goals)


def _trace(state):
    return [(r.op, r.u, r.v) for r in state.log.records]


def test_addition_gap_tie_goes_to_lower_id():
    # 4 and 5 tie at gap 0.5, ahead of node 1's gap 1.0; all three pass
    state = _addition_state((0.5, 0.5))
    assert state.attempt_refine(0)
    assert _trace(state) == [("add", 0, 4)]


def test_addition_skips_smallest_gap_that_fails_gate():
    # node 4 is nearly on target (gap 0.05): a cross edge would drop it to
    # h=0.5, a 0.4 overshoot that outweighs node 0's 1/3 gain, so the gate
    # rejects it and node 5 (next smallest gap) is taken
    state = _addition_state((0.95, 0.5))
    assert state.attempt_refine(0)
    assert _trace(state) == [("add", 0, 5)]


def test_rewire_skips_neighbour_that_fails_removal_gate():
    # Node 0 (label 0) sits at h=1/4 and wants 3/4, so it sheds a cross
    # edge. Neighbour 1 has the smallest gap (h=1/2, goal 0.55): losing
    # its cross edge takes it to h=1, which the removal gate rejects.
    # Neighbour 2 (goal 1.0) passes and is removed; node 7 takes the add.
    # Neighbour 3 has no goal and 4 shares 0's label, so neither is listed.
    g = Graph.from_edges(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (7, 8)])
    t = NodeTable(np.array([0, 1, 1, 1, 0, 1, 1, 0, 1]), np.zeros(9, dtype=int))
    goals = [NodeGoal(0, 0.25, 0.75, 1), NodeGoal(1, 0.5, 0.55, 1),
             NodeGoal(2, 0.5, 1.0, 1), NodeGoal(7, 0.0, 0.5, 1)]
    state = _new_state(g, t, goals)
    removals = state._removals(0)
    assert [j for _, j, _ in removals] == [1, 2]
    assert state.attempt_rewire(0, removals)
    assert _trace(state) == [("remove", 0, 2), ("add", 0, 7)]
    assert [j for _, j, _ in removals] == [1]  # the removed neighbour leaves the list


# --------------------------------------------------------- partner pools


def _current_key(state, v):
    """v's (gap, add change) key, computed from its current counts."""
    same, deg, goal = state.same[v], state.deg[v], state.goal[v]
    gap = abs(goal - same / deg)
    return gap, abs((same + (state.live[v] > 0)) / (deg + 1) - goal) - gap


def _check_pools(state, replayed):
    """Every pool holds exactly its (label, live sign) members, each under its
    current (gap, add change) key, which is the key the node stores, and
    each node's class handle is that very id list; its keys are sorted and
    distinct, each key's id list is ascending and non-empty, and its bound
    is at most the least add change among its keys (inf for an empty pool).
    A node off every pool stores no key and no handle. Every neighbour list
    is strictly ascending and holds v's neighbours in `replayed`, the graph
    the state's records give."""
    for v, nbrs in enumerate(state.adj):
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
        assert nbrs == replayed.neighbors(v).tolist()
    live = np.asarray(state.live)
    labels = np.asarray(state.labels)
    for v, key in enumerate(state.filed):
        if live[v]:
            assert key == _current_key(state, v)
            _, ids, _ = _pool(state, labels[v], live[v])
            assert v in ids[key] and state.class_of[v] is ids[key]
        else:
            assert key is None and state.class_of[v] is None
    assert all(by_sign[0] is None for by_sign in state._pools.values())
    for (c, s), (keys, ids, bound) in _pools_by_key(state._pools).items():
        classes = {}
        for v in np.flatnonzero((labels == c) & (live == s)).tolist():
            classes.setdefault(state.filed[v], []).append(v)
        assert ids == classes
        assert keys == sorted(classes)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(members and all(a < b for a, b in zip(members, members[1:]))
                   for members in ids.values())
        assert bound <= min((key[1] for key in keys), default=math.inf)


def _capture_states(mp):
    """Collect every _EditState once, as its first loop ends, and check its
    pools and neighbour lists as each of its loops ends, against its input
    graph with its records replayed. A state that runs both loops (as
    `generate`'s does) is collected once and ends as its last loop leaves it."""
    states = []
    origins = {}  # id(state) -> (input graph, log length when it was built)
    init = _EditState.__init__

    def recording_init(self, g, t, nodes, h_goal, direction, log):
        origins[id(self)] = (g, len(log))
        init(self, g, t, nodes, h_goal, direction, log)

    def capturing(run):
        def run_and_capture(self, seed):
            run(self, seed)
            _check_pools(self, self.log.replay(*origins[id(self)]))
            if not any(state is self for state in states):
                states.append(self)
        return run_and_capture

    mp.setattr(_EditState, "__init__", recording_init)
    for name in ("run_rewire", "run_refine"):
        mp.setattr(_EditState, name, capturing(getattr(_EditState, name)))
    return states


def _graph_of_lists(adj: list[list[int]]) -> Graph:
    """Reference: the graph whose node v has the neighbours adj[v]."""
    return Graph.from_edges(len(adj), [(u, v) for u, nbrs in enumerate(adj) for v in nbrs])


@st.composite
def _edit_problems(draw):
    """A small random graph with 2 or 3 labels, and goals on a coarse grid
    so that many nodes share a gap."""
    n = draw(st.integers(6, 30))
    n_labels = draw(st.sampled_from([2, 3]))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), min_size=n, max_size=4 * n))
    g = Graph.from_edges(n, sorted(edges))
    labels = np.array(draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n)))
    t = NodeTable(labels, np.zeros(n, dtype=int))
    grid = (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0)
    goals = []
    for v in range(n):
        if g.degrees[v] > 0 and draw(st.booleans()):
            goals.append(NodeGoal(v, 0.5, draw(st.sampled_from(grid)), 1))
    return g, t, goals, draw(st.integers(0, 2**16))


def _checked_replay(g, t, goals, seed):
    """Run both phases with every partner search checked against the mask
    reference: each search must return the reference's partner, or -1 when
    the reference finds none. Pools are checked as each phase ends. Returns
    the final graph, the log and the outcome counts (found, none, tied: a
    found partner whose gap another node of its sign shares, and skipped: a
    non-empty candidate pool whose bound fails the gate, which must hold no
    class that passes)."""
    search = _EditState._best_partner
    seen = {"found": 0, "none": 0, "tied": 0, "skipped": 0}

    def checked_search(self, i, s, d_i):
        for keys, _, bound in self._candidate_pools[self.labels[i]][s]:
            if keys and not d_i + bound < -GATE_TOL:
                assert not any(d_i + key[1] < -GATE_TOL for key in keys)
                seen["skipped"] += 1
        got = search(self, i, s, d_i)
        assert got == reference_best_partner(self, i, s, d_i)
        seen["found" if got >= 0 else "none"] += 1
        if got >= 0 and sum(live == s and key[0] == self.filed[got][0]
                            for key, live in zip(self.filed, self.live)) > 1:
            seen["tied"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_EditState, "_best_partner", checked_search)
        states = _capture_states(mp)
        g_rw, log = rewire_phase(g, t, goals, seed=seed)
        g_fin, log = refine_phase(g_rw, t, goals, seed=seed + 1, log=log)
    assert len(states) == 2
    return g_fin, log, seen


@given(_edit_problems())
@settings(max_examples=150, deadline=None)
def test_pool_search_matches_mask_reference(problem):
    """Replays both phases on small random graphs with the search checked,
    then audits the log independently."""
    g, t, goals, seed = problem
    g_fin, log, _ = _checked_replay(g, t, goals, seed)
    checker = EditLogChecker(g, t, goals).apply(log.records)
    assert checker.edges() == tuple(map(tuple, g_fin.edge_array().tolist()))


def test_pool_search_sees_ties_and_both_outcomes():
    """The checked replay meets found partners, searches that find none,
    and gap ties: on a 3-label random graph with grid goals all three occur."""
    rng = np.random.default_rng(2)
    n = 120
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.06]
    g = Graph.from_edges(n, edges)
    t = NodeTable(np.arange(n) % 3, np.zeros(n, dtype=int))
    goals = [NodeGoal(v, 0.5, (0.25, 0.5, 0.75)[v % 3], 1)
             for v in range(n) if g.degrees[v] > 0]
    _, _, seen = _checked_replay(g, t, goals, seed=4)
    assert seen["found"] > 0 and seen["none"] > 0 and seen["tied"] > 0


def test_pool_bounds_skip_pools_on_the_sbm(sbm_pair):
    """On the 2000-node SBM toward Beta(3, 10), searches skip pools by their
    bound, and every search still returns the mask reference's partner."""
    g, t = sbm_pair
    _, _, seen = _checked_replay(g, t, _goals_toward(g, t, 3.0, 10.0), seed=5)
    assert seen["skipped"] > 0 and seen["found"] > 0 and seen["none"] > 0, seen


def _checked_rewire(g, t, goals, seed):
    """Run the rewire phase with every attempt checked against the full scans.

    The removal list an attempt walks must equal a fresh `_removals(i)`. A
    pair that fires must remove `reference_removal`'s neighbour. One that
    does not may fail only where that reference finds none, without a
    partner search, or where the partner search, itself checked against
    `reference_best_partner`, found none. Pools and neighbour lists are
    checked as the phase ends. Returns the log and the outcome counts:
    fired, no removal, no partner, passed over (a fired pair whose removal
    is not its list's first entry) and rebuilt (a source whose sign changed
    inside its loop, so that it walked a second list)."""
    attempt, search = _EditState.attempt_rewire, _EditState._best_partner
    found = []
    lists = {}  # source -> the removal lists it walked
    seen = dict.fromkeys(("fired", "no removal", "no partner", "passed over", "rebuilt"), 0)

    def checked_search(self, i, s, d_i):
        got = search(self, i, s, d_i)
        assert got == reference_best_partner(self, i, s, d_i)
        found.append(got)
        return got

    def checked_attempt(self, i, removals):
        assert removals == self._removals(i)
        walked = lists.setdefault(i, [])
        if not any(r is removals for r in walked):
            walked.append(removals)
            seen["rebuilt"] += len(walked) == 2
        j = reference_removal(self, i)
        first = removals[0][1] if removals else -1
        searches, at = len(found), len(self.log)
        fired = attempt(self, i, removals)
        if fired:
            assert (self.log.ops[at], self.log.us[at], self.log.vs[at]) == ("remove", i, j)
            seen["fired"] += 1
            seen["passed over"] += j != first
        elif j < 0:
            assert found[searches:] == []
            seen["no removal"] += 1
        else:
            assert found[searches:] == [-1]
            seen["no partner"] += 1
        return fired

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_EditState, "_best_partner", checked_search)
        mp.setattr(_EditState, "attempt_rewire", checked_attempt)
        states = _capture_states(mp)
        _, log = rewire_phase(g, t, goals, seed=seed)
    assert len(states) == 1
    return log, seen


@given(_edit_problems())
@settings(max_examples=150, deadline=None)
def test_removal_walk_matches_the_full_scan(problem):
    """Through a whole rewire phase on small random graphs, every removal
    the sorted walk picks is the full neighbour scan's pick, and the log
    passes an independent audit."""
    g, t, goals, seed = problem
    log, _ = _checked_rewire(g, t, goals, seed)
    checker = EditLogChecker(g, t, goals).apply(log.records)
    assert checker.edges() == tuple(map(tuple, log.replay(g).edge_array().tolist()))


def test_removal_walk_sees_every_outcome():
    """On the 3-label random graph with grid goals, the checked rewire phase
    fires pairs, passes over a list's first entry that fails the gate, fails
    both for want of a removal and for want of a partner, and rebuilds a
    list when a source's sign changes."""
    rng = np.random.default_rng(2)
    n = 120
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.06]
    g = Graph.from_edges(n, edges)
    t = NodeTable(np.arange(n) % 3, np.zeros(n, dtype=int))
    goals = [NodeGoal(v, 0.5, (0.25, 0.5, 0.75)[v % 3], 1)
             for v in range(n) if g.degrees[v] > 0]
    _, seen = _checked_rewire(g, t, goals, seed=4)
    assert all(seen.values()), seen


def _class_tie_state(partners):
    """Source 0 (label 0, two label-0 neighbours, goal 0.5) wants cross-label
    partners. partners maps an id below 10 to (label, same, cross, adjacent,
    goal): its label (1 or more), that many neighbours of its own label and
    of label 0, whether it is also a neighbour of 0, and its goal. Other
    nodes have no goal."""
    edges, labels = [(0, 10), (0, 11)], [0] * 10 + [0, 0]
    for k, (label_k, same, cross, adjacent, _) in partners.items():
        labels[k] = label_k
        for label in [label_k] * same + [0] * cross:
            edges.append((k, len(labels)))
            labels.append(label)
        if adjacent:
            edges.append((0, k))
    g = Graph.from_edges(len(labels), edges)
    t = NodeTable(np.array(labels), np.zeros(len(labels), dtype=int))
    goals = [NodeGoal(0, 1.0, 0.5, -1)]
    goals += [NodeGoal(k, 1.0, goal, -1) for k, (*_, goal) in sorted(partners.items())]
    return _new_state(g, t, goals)


@pytest.mark.parametrize("partners, pools, expected", [
    # Keys are (gap, add change), the add change computed as _EditState does;
    # pools maps each partner label c to the classes of pool (c, -1).
    # Two classes at gap 0.5: (add -1/3) holds 5 and 7, (add -0.2) holds 3;
    # the lower id 3 sits in the class walked second. Node 1 (gap 0.75) is
    # walked last and loses despite its id.
    ({1: (1, 2, 0, False, 0.25), 3: (1, 4, 0, False, 0.5), 5: (1, 2, 0, False, 0.5),
      7: (1, 2, 0, False, 0.5)},
     {1: [((0.5, 2 / 3 - 0.5 - 0.5), [5, 7]), ((0.5, 4 / 5 - 0.5 - 0.5), [3]),
          ((0.75, 2 / 3 - 0.25 - 0.75), [1])]},
     3),
    # at gap 0.5, class (add -1/3) holds 7 and class (add -0.15) holds 2 and
    # 4; 2 is a neighbour of 0, so the class offers 4, which beats 7
    ({2: (1, 3, 0, True, 0.25), 4: (1, 3, 1, False, 0.25), 7: (1, 2, 0, False, 0.5)},
     {1: [((0.5, 2 / 3 - 0.5 - 0.5), [7]), ((0.5, 3 / 5 - 0.25 - 0.5), [2, 4])]},
     4),
    # Pool (1, -1)'s best is 3 at gap 0.5; pool (2, -1), walked second,
    # holds 8 at the smaller gap 0.25 and wins despite its id.
    ({1: (1, 2, 0, False, 0.25), 3: (1, 2, 0, False, 0.5), 8: (2, 4, 0, False, 0.75)},
     {1: [((0.5, 2 / 3 - 0.5 - 0.5), [3]), ((0.75, 2 / 3 - 0.25 - 0.75), [1])],
      2: [((0.25, 4 / 5 - 0.75 - 0.25), [8])]},
     8),
    # Both pools' best sit at gap 0.5: 5 in the first, 2 in the second; the
    # lower id 2 wins. Node 1 (gap 0.75) follows 2 in its pool and is not
    # reached.
    ({1: (2, 2, 0, False, 0.25), 2: (2, 2, 0, False, 0.5), 5: (1, 2, 0, False, 0.5)},
     {1: [((0.5, 2 / 3 - 0.5 - 0.5), [5])],
      2: [((0.5, 2 / 3 - 0.5 - 0.5), [2]), ((0.75, 2 / 3 - 0.25 - 0.75), [1])]},
     2),
])
def test_partner_search_takes_the_smallest_gap_then_the_lowest_id(partners, pools, expected):
    state = _class_tie_state(partners)
    assert list(map(id, state._candidate_pools[0][-1])) == [id(_pool(state, c, -1)) for c in pools]
    for c, classes in pools.items():
        keys, ids, _ = _pool(state, c, -1)
        assert [(key, ids[key]) for key in keys] == classes
    eq = 0  # a lowering source gains a cross-label edge
    d_0 = abs((state.same[0] + eq) / (state.deg[0] + 1) - state.goal[0]) - state.filed[0][0]
    assert state._best_partner(0, -1, d_0) == reference_best_partner(state, 0, -1, d_0) == expected
    assert state.attempt_refine(0)
    assert _trace(state) == [("add", 0, expected)]


def test_pool_search_on_many_classes_and_three_pools():
    """A 4-label graph with a hub of degree 60: pools hold many classes, and
    a lowering source draws from the three other labels' pools. Every search
    is checked against the mask reference and the log is audited."""
    rng = np.random.default_rng(8)
    n = 200
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.04}
    edges |= {(0, int(j)) for j in rng.choice(np.arange(1, n), 60, replace=False)}
    g = Graph.from_edges(n, sorted(edges))
    t = NodeTable(np.arange(n) % 4, np.zeros(n, dtype=int))
    grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    goals = [NodeGoal(v, 0.5, float(rng.choice(grid)), 1)
             for v in range(n) if g.degrees[v] > 0]
    assert g.degrees[0] >= 40
    state = _new_state(g, t, goals)
    assert max(len(keys) for keys, _, _ in _pools_by_key(state._pools).values()) >= 20
    assert all(len(by_sign[-1]) == 3 for by_sign in state._candidate_pools.values())
    g_fin, log, seen = _checked_replay(g, t, goals, seed=9)
    assert seen["found"] > 0 and seen["none"] > 0 and seen["tied"] > 0
    checker = EditLogChecker(g, t, goals).apply(log.records)
    assert checker.edges() == tuple(map(tuple, g_fin.edge_array().tolist()))


def _lose_last_record(replay):
    """EditLog.replay with the log's last record dropped."""
    def lossy(log, g, start=0):
        return replay(EditLog(phases=log.phases[:-1], ops=log.ops[:-1], us=log.us[:-1],
                              vs=log.vs[:-1]), g, start)
    return lossy


def _swap_two_edges(replay, t):
    """EditLog.replay followed by a double edge swap that keeps every degree
    but changes same-label counts: same-label edges (a, b) and (c, d) of
    two different labels become the cross edges (a, d) and (c, b)."""
    def swapped(log, g, start=0):
        result = replay(log, g, start)
        edges = set(map(tuple, result.edge_array().tolist()))
        labels = t.labels
        for a, b in sorted(edges):
            for c, d in sorted(edges):
                if (labels[a] == labels[b] != labels[c] == labels[d]
                        and (min(a, d), max(a, d)) not in edges
                        and (min(c, b), max(c, b)) not in edges):
                    edges -= {(a, b), (c, d)}
                    return Graph.from_edges(g.node_count, sorted(edges | {(a, d), (c, b)}))
        raise AssertionError("no swap found")
    return swapped


def _goals_toward(g, t, alpha, beta):
    ratios = local_homophily_all(g, t)
    plan = transport_plan(defined_histogram(ratios, 10),
                          beta_goal_histogram(BetaGoal(alpha, beta), 10))
    return assign_node_goals(plan, ratios, 10, seed=5)


@pytest.mark.parametrize("lossy, message", [
    (lambda replay, t: _lose_last_record(replay), "degrees"),
    (_swap_two_edges, "same-label counts"),
])
def test_a_wrong_replay_trips_the_edit_state_cross_check(small_pair, lossy, message):
    """The result is the replay of the state's records, checked against the
    degrees and same-label counts the state kept edit by edit."""
    g, t = small_pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EditLog, "replay", lossy(EditLog.replay, t))
        for run in (lambda: generate(g, t, BetaGoal(3.0, 10.0), 10, seed=11),
                    lambda: rewire_phase(g, t, _goals_toward(g, t, 10.0, 3.0), seed=2)):
            with pytest.raises(RuntimeError, match=f"^internal: the replayed {message} differ"):
                run()


def test_generate_drops_its_edit_state_before_the_replay(small_pair):
    """No edit state is alive when `generate` replays its log."""
    g, t = small_pair
    alive = []
    replay = EditLog.replay

    def counting(log, graph, start=0):
        alive.append(sum(isinstance(obj, _EditState) for obj in gc.get_objects()))
        return replay(log, graph, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EditLog, "replay", counting)
        generate(g, t, BetaGoal(10.0, 3.0), 10, seed=11)
    assert alive == [0]


def test_pools_stay_bounded_after_generate(small_pair):
    """After a full generate() on the 600-node SBM, the one state both
    phases ran on has pools that hold exactly the live nodes."""
    g, t = small_pair
    with pytest.MonkeyPatch.context() as mp:
        states = _capture_states(mp)
        _, log, _ = generate(g, t, BetaGoal(3.0, 10.0), 10, seed=11)
    assert len(states) == 1 and log.records
    state, = states
    assert (sum(len(members) for _, ids, _ in _pools_by_key(state._pools).values()
                for members in ids.values())
            == np.count_nonzero(state.live))


def test_generate_state_holds_one_int_object_per_node_id(small_pair):
    """Every node id in the adjacency sets, the pool classes and the edit log
    is the one int object the state's `ids` holds for it."""
    g, t = small_pair
    with pytest.MonkeyPatch.context() as mp:
        states = _capture_states(mp)
        _, log, _ = generate(g, t, BetaGoal(10.0, 3.0), 10, seed=11)
    state, = states
    assert state.log is log and log.records
    held = [*(k for nbrs in state.adj for k in nbrs),
            *(k for _, ids, _ in _pools_by_key(state._pools).values()
              for members in ids.values() for k in members),
            *log.us, *log.vs]
    assert all(type(k) is int for k in held) and max(held) > 256  # beyond the cached ints
    objects: dict[int, set[int]] = {}
    for k in held:
        objects.setdefault(k, set()).add(id(k))
    assert [k for k, ids in objects.items() if len(ids) > 1] == []
    assert state.ids.tolist() == list(range(g.node_count))
    assert all(k is state.ids[k] for k in held)


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
            .filter(lambda e: e[0] != e[1]), max_size=4 * n))))
@settings(max_examples=200, deadline=None)
def test_adjacency_lists_round_trip_through_a_graph(case):
    """The lists `_adjacency_lists` reads from the graph `from_edges` builds
    are the edges' neighbour sets in ascending order, and give that graph
    back."""
    n, edges = case
    want = Graph.from_edges(n, list(edges))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    ids = np.arange(n, dtype=object)
    got = _adjacency_lists(want, ids)
    assert got == [sorted(nbrs) for nbrs in adj]
    assert_same_graph(_graph_of_lists(got), want)
    assert "indices" not in vars(want)  # read from a CSR the graph does not keep


@st.composite
def _state_problems(draw):
    """A graph of 1-4 labels with unlabeled and isolated nodes. Each node may
    get no goal, a goal with direction 0, or, when it has a label and an
    edge, a moving goal: one on a grid, or its own ratio, exactly or off by
    a little, so that some goals are met from the start. The offsets put
    gap * degree on both sides of _MOVE_TOL."""
    n = draw(st.integers(1, 30))
    n_labels = draw(st.integers(1, 4))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    g = Graph.from_edges(n, sorted(edges))
    labels = np.array(draw(st.lists(st.integers(-1, n_labels - 1), min_size=n, max_size=n)))
    t = NodeTable(labels, np.zeros(n, dtype=int))
    goals = []
    for v in range(n):
        kind = draw(st.sampled_from(["none", "stay", "grid", "met"]))
        movable = g.degrees[v] > 0 and labels[v] >= 0
        if kind == "stay" or (kind != "none" and not movable):
            goals.append(NodeGoal(v, 0.5, 0.5, 0))
        elif kind != "none":
            ratio = sum(labels[int(k)] == labels[v] for k in g.neighbors(v)) / int(g.degrees[v])
            offsets = (0.0, 5e-13, -5e-13, 1e-11, -1e-11, 2e-10, -2e-10)
            h = (draw(st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0))) if kind == "grid"
                 else min(1.0, max(0.0, ratio + draw(st.sampled_from(offsets)))))
            goals.append(NodeGoal(v, ratio, h, draw(st.sampled_from((-1, 1)))))
    return g, t, goals


@given(_state_problems())
@settings(max_examples=300, deadline=None)
def test_fresh_state_matches_the_bulk_reference(problem):
    """A new _EditState, filled node by node by `_refresh`, holds what the
    bulk construction computes: live signs, the (gap, add change) key of
    every live node, and each pool's class keys and ids, and as its bound
    the least add change among them. Each live node's class handle is its
    class's id list."""
    g, t, goals = problem
    state = _new_state(g, t, goals)
    filed, live, pools = reference_edit_state(g, t, goals)
    assert state.live == live
    assert state.filed == filed
    assert state._pools == pools
    _check_pools(state, g)


def test_fresh_state_leaves_goals_met_within_tolerance_out_of_the_pools():
    """Node 0 sits within _MOVE_TOL / degree of its goal and nodes 1 and 3
    exactly on theirs, so only node 2 is live; the bulk reference agrees."""
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    t = NodeTable(np.array([0, 0, 1, 1, -1, 2]), np.zeros(6, dtype=int))
    goals = [NodeGoal(0, 0.5, 0.5 + 5e-13, 1), NodeGoal(1, 0.5, 0.5, -1),
             NodeGoal(2, 0.0, 1.0, 1), NodeGoal(3, 0.0, 0.0, 1), NodeGoal(5, 0.0, 0.2, 0)]
    state = _new_state(g, t, goals)
    filed, live, pools = reference_edit_state(g, t, goals)
    assert state.live == live == [0, 0, 1, 0, 0, 0]
    assert state.filed == filed == [None, None, (1.0, abs(1 / 3 - 1.0) - 1.0), None, None, None]
    assert state._pools == pools
    # node 2 (h 0, goal 1) would reach h 1/3 with one more same-label edge
    assert [(c_s, ids) for c_s, (_, ids, _) in _pools_by_key(pools).items() if ids] == \
        [((1, 1), {(1.0, abs(1 / 3 - 1.0) - 1.0): [2]})]


@pytest.mark.parametrize("offset, live, records", [
    (1e-10, 0, [("add", 2, 0)]),
    (3e-10, 1, [("add", 0, 1), ("add", 0, 2)]),
])
def test_a_goal_within_move_tolerance_takes_part_in_no_edit(offset, live, records):
    """Node 1 has degree 4 and a goal `offset` above its ratio 0.5. At 1e-10,
    gap * degree is under _MOVE_TOL, so its lower edge-move bound leaves no
    move: it is in no pool, and no edit touches it, although as the partner
    of the lowest gap it would pass the gate for source 0. At 3e-10 it is
    live, and source 0 takes it first."""
    labels = [0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1]
    g = Graph.from_edges(11, [(0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 9), (2, 10)])
    t = NodeTable(np.array(labels), np.zeros(11, dtype=int))
    goals = [NodeGoal(0, 0.0, 1.0, 1), NodeGoal(1, 0.5, 0.5 + offset, 1),
             NodeGoal(2, 0.5, 0.75, 1)]
    state = _new_state(g, t, goals)
    assert state.live[:3] == [1, live, 1]
    assert (state.filed[1] is not None) == any(
        1 in members for _, ids, _ in _pools_by_key(state._pools).values()
        for members in ids.values()) == bool(live)
    g_rw, log = rewire_phase(g, t, goals, seed=3)
    g_fin, log = refine_phase(g_rw, t, goals, seed=4, log=log)
    assert [(r.op, r.u, r.v) for r in log.records] == records
    checker = EditLogChecker(g, t, goals).apply(log.records)
    assert checker.edges() == tuple(map(tuple, g_fin.edge_array().tolist()))


def _check_matches_fresh_state(state, t, goals):
    """The state a phase ends in holds what a new _EditState built from its
    final graph holds: live signs, same-label counts, degrees, the (gap,
    add change) key of every live node, and pool members. Only the pools'
    bounds may differ: a phase leaves a bound anywhere at or below the least
    add change, which a fresh state's bound equals."""
    fresh = _new_state(_graph_of_lists(state.adj), t, goals)
    assert state.live == fresh.live
    assert (state.same, state.deg) == (fresh.same, fresh.deg)
    assert state.filed == fresh.filed

    def classes(pools):
        return {c_s: (keys, ids) for c_s, (keys, ids, _) in _pools_by_key(pools).items()}

    assert classes(state._pools) == classes(fresh._pools)


def _phase_states(g, t, goals, seed):
    with pytest.MonkeyPatch.context() as mp:
        states = _capture_states(mp)
        g_rw, log = rewire_phase(g, t, goals, seed=seed)
        g_fin, _ = refine_phase(g_rw, t, goals, seed=seed + 1, log=log)
    assert len(states) == 2
    # each phase returns the graph its state's neighbour lists hold
    assert [_graph_of_lists(state.adj) for state in states] == [g_rw, g_fin]
    return states


@pytest.mark.parametrize("alpha, beta", [(3.0, 10.0), (10.0, 3.0)])
def test_phase_end_state_matches_a_fresh_state(small_pair, alpha, beta):
    g, t = small_pair
    ratios = local_homophily_all(g, t)
    source = histogram(ratios[~np.isnan(ratios)], 10)
    plan = transport_plan(source, beta_goal_histogram(BetaGoal(alpha, beta), 10))
    goals = assign_node_goals(plan, ratios, 10, seed=5)
    states = _phase_states(g, t, goals, seed=21)
    assert len(states[0].log) > 0
    for state in states:
        _check_matches_fresh_state(state, t, goals)


@given(_edit_problems())
@settings(max_examples=60, deadline=None)
def test_phase_end_state_matches_a_fresh_state_on_small_graphs(problem):
    g, t, goals, seed = problem
    for state in _phase_states(g, t, goals, seed):
        _check_matches_fresh_state(state, t, goals)


# ------------------------------------------------------- phase invariants


def test_rewire_phase_preserves_edges_and_pairs_sources(small_pair, rewired):
    g, _ = small_pair
    g_rw, log = rewired
    assert g_rw.edge_count == g.edge_count
    recs = log.records
    assert recs and len(recs) % 2 == 0
    assert [r.seq for r in recs] == list(range(len(recs)))
    for k in range(0, len(recs), 2):
        rm, ad = recs[k], recs[k + 1]
        assert rm.phase == "rewire" and ad.phase == "rewire"
        assert (rm.op, ad.op) == ("remove", "add")
        assert rm.u == ad.u


def test_rewire_phase_degree_accounting(small_pair, rewired):
    # each pair conserves its source's degree, so a node's net change is
    #±1 per record in which it appears as the passive endpoint
    g, _ = small_pair
    g_rw, log = rewired
    delta = np.zeros(g.node_count, dtype=int)
    appearances = np.zeros(g.node_count, dtype=int)
    for rec in log.records:
        delta[rec.v] += 1 if rec.op == "add" else -1
        appearances[rec.v] += 1
    assert np.array_equal(g_rw.degrees - g.degrees, delta)
    assert np.all(np.abs(delta) <= appearances)


def test_refine_phase_only_adds(small_pair, small_goals, rewired):
    _, t = small_pair
    goals = small_goals[3]
    g_rw, _ = rewired
    g_fin, log = refine_phase(g_rw, t, goals, seed=22)
    assert log.records
    assert all(r.phase == "refine" and r.op == "add" for r in log.records)
    assert g_fin.edge_count == g_rw.edge_count + len(log.records)


def test_edit_log_checker_audit(small_pair, small_goals, rewired):
    """Independent replay: simplicity, per-edit potential decrease,
    direction-0 nodes untouched, and final edges in exact agreement."""
    g, t = small_pair
    goals = small_goals[3]
    g_rw, log_rw = rewired
    g_fin, log_rf = refine_phase(g_rw, t, goals, seed=22)

    checker = EditLogChecker(g, t, goals).apply(log_rw.records + log_rf.records)
    assert not checker.touched_zero_direction
    assert checker.edges() == tuple(map(tuple, g_fin.edge_array().tolist()))


def test_pipeline_reduces_emd(small_pair, small_goals, rewired):
    _, t = small_pair
    _, source, target, goals = small_goals
    g_rw, _ = rewired
    g_fin, _ = refine_phase(g_rw, t, goals, seed=22)
    final_ratios = local_homophily_all(g_fin, t)
    final = histogram(final_ratios[~np.isnan(final_ratios)], 10)
    assert emd(final, target) <= emd(source, target)
    assert emd(final, target) < 0.05


# ------------------------------------------------------------ generate()


def test_generate_reduces_emd(small_pair, gen_run):
    g, t = small_pair
    g2, _, report = gen_run
    assert report.emd_generated_goal <= 0.5 * report.emd_original_goal

    # reported figures match an independent recomputation from the graphs
    target = beta_goal_histogram(BetaGoal(3.0, 10.0), 10)
    for graph, value in ((g, report.emd_original_goal),
                         (g2, report.emd_generated_goal)):
        ratios = local_homophily_all(graph, t)
        hist = histogram(ratios[~np.isnan(ratios)], 10)
        assert emd(hist, target) == pytest.approx(value, abs=1e-12)


def test_generate_replay_matches(small_pair, gen_run):
    g, _ = small_pair
    g2, log, _ = gen_run
    assert np.array_equal(log.replay(g).edge_array(), g2.edge_array())


def test_generate_report_consistency(small_pair, gen_run):
    g, _ = small_pair
    g2, log, report = gen_run
    rewire_recs = [r for r in log.records if r.phase == "rewire"]
    refine_recs = [r for r in log.records if r.phase == "refine"]
    # phases are contiguous: all rewiring precedes all refining
    assert log.records[:len(rewire_recs)] == rewire_recs
    assert report.edits_rewire == len(rewire_recs) // 2
    assert report.edits_refine == len(refine_recs)

    deltas = (g2.degrees - g.degrees).astype(int)
    hist = {}
    for d in deltas.tolist():
        hist[d] = hist.get(d, 0) + 1
    assert report.degree_delta_histogram == hist
    assert sum(report.degree_delta_histogram.values()) == g.node_count
    n_add = sum(1 for r in log.records if r.op == "add")
    n_remove = sum(1 for r in log.records if r.op == "remove")
    assert int(deltas.sum()) == 2 * (n_add - n_remove)


def test_generate_log_holds_plain_columns(gen_run):
    """The log keeps no object per record: four lists of ints and strs."""
    _, log, report = gen_run
    assert set(vars(log)) == {"header", "phases", "ops", "us", "vs"}
    assert {type(x) for col in (log.us, log.vs) for x in col} == {int}
    assert {type(x) for col in (log.phases, log.ops) for x in col} == {str}
    assert len(log) == 2 * report.edits_rewire + report.edits_refine


def test_generate_header_and_determinism(small_pair, gen_run):
    g, t = small_pair
    g2, log, _ = gen_run
    assert log.header == {"seed": 11, "alpha": 3.0, "beta": 10.0, "bins": 10}

    g3, log3, _ = generate(g, t, BetaGoal(3.0, 10.0), 10, seed=11)
    assert np.array_equal(g3.edge_array(), g2.edge_array())
    assert log3.records == log.records


def test_matched_goal_needs_fewer_edits(small_pair, gen_run):
    # a Beta goal moment-fitted to the existing ratios asks for almost
    # nothing; a distant goal forces a full reshaping
    g, t = small_pair
    _, _, far_report = gen_run
    ratios = local_homophily_all(g, t)
    valid = ratios[~np.isnan(ratios)]
    mean, var = float(valid.mean()), float(valid.var())
    common = mean * (1 - mean) / var - 1
    fit = BetaGoal(mean * common, (1 - mean) * common)

    _, _, report = generate(g, t, fit, 10, seed=11)
    assert report.emd_original_goal < 0.05
    assert report.emd_generated_goal <= report.emd_original_goal
    fit_edits = report.edits_rewire + report.edits_refine
    far_edits = far_report.edits_rewire + far_report.edits_refine
    assert fit_edits < far_edits / 3


def _multiclass_pair():
    rng = np.random.default_rng(3)
    n = 90
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.12]
    return Graph.from_edges(n, edges), NodeTable(np.arange(n) % 3, np.zeros(n, dtype=int))


def _two_state_generate(g, t, goal, bin_count, seed):
    """generate() from the public phase functions: rewire_phase, then
    refine_phase on a state built anew from the rewired graph."""
    ratios = local_homophily_all(g, t)
    source_hist = defined_histogram(ratios, bin_count)
    goal_hist = beta_goal_histogram(goal, bin_count)
    plan = transport_plan(source_hist, goal_hist)
    seed_assign, seed_rewire, seed_refine = np.random.SeedSequence(seed).spawn(3)
    goals = assign_node_goals(plan, ratios, bin_count, seed_assign)
    log = EditLog(header={"seed": seed, "alpha": goal.alpha, "beta": goal.beta,
                          "bins": bin_count})
    g_rw, log = rewire_phase(g, t, goals, seed_rewire, log=log)
    n_rewire = len(log)
    g_fin, log = refine_phase(g_rw, t, goals, seed_refine, log=log)
    final_hist = defined_histogram(local_homophily_all(g_fin, t), bin_count)
    values, counts = np.unique(g_fin.degrees - g.degrees, return_counts=True)
    return g_fin, log, GenerationReport(
        emd_original_goal=emd(source_hist, goal_hist),
        emd_generated_goal=emd(final_hist, goal_hist),
        edits_rewire=n_rewire // 2,
        edits_refine=len(log) - n_rewire,
        degree_delta_histogram=dict(zip(values.tolist(), counts.tolist())),
    )


@pytest.mark.parametrize("alpha, beta", [(3.0, 10.0), (10.0, 3.0)])
def test_generate_matches_the_two_phase_functions(small_pair, alpha, beta):
    g, t = small_pair
    got = generate(g, t, BetaGoal(alpha, beta), 10, seed=11)
    assert got[2].edits_rewire > 0 and got[2].edits_refine > 0
    assert got == _two_state_generate(g, t, BetaGoal(alpha, beta), 10, 11)


@given(_edit_problems(), st.sampled_from([(3.0, 10.0), (10.0, 3.0), (2.0, 2.0)]))
@settings(max_examples=60, deadline=None)
def test_generate_matches_the_two_phase_functions_on_small_graphs(problem, shape):
    g, t, _, seed = problem
    goal = BetaGoal(*shape)
    assert generate(g, t, goal, 5, seed) == _two_state_generate(g, t, goal, 5, seed)


def test_generate_multiclass():
    g, t = _multiclass_pair()
    g2, log, report = generate(g, t, BetaGoal(2.0, 2.0), 5, seed=3)
    assert report.emd_generated_goal < report.emd_original_goal
    assert np.array_equal(log.replay(g).edge_array(), g2.edge_array())


# sha256 of (edit_log.jsonl, generated_edges.txt) as saved by the
# generator before its partner search was vectorised. Any change to the
# partner order, the gate arithmetic or the serialisation shows up here.
_GOLDEN_ARTIFACTS = {
    "sbm-beta-3-10": (
        "9ed798caab87d07b50d4a0387475231575166aa47702e1f33ffd80201d75e285",
        "67ad9dfdcb319abb0de790ee687ac6645b9d9e9f739175a0210a48e4951dd945"),
    "sbm-beta-10-3": (
        "d5492d0e2348fcb74058e24a6ad637d7165a420632b37f69fb7340461c9f7d7a",
        "74e9e3afe505ca1ab47c792cd202b4cee06a56a2b4312c64bfb1640420f9ac8c"),
    "multiclass": (
        "4ba44d2fb4de9654e4ef256577db313038d6525b600e1d884b59883225bf4c0a",
        "ae542beb9913eaf7eb78865899ade5f74ad009fbf17521e4f0e67b4420e771da"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_ARTIFACTS))
def test_generate_artifacts_are_pinned(tmp_path, case):
    if case == "multiclass":
        (g, t), goal, bins, seed = _multiclass_pair(), BetaGoal(2.0, 2.0), 5, 3
    else:
        alpha, beta = (3.0, 10.0) if case == "sbm-beta-3-10" else (10.0, 3.0)
        g, t = two_class_sbm(1000, 8, 0.5, seed=13)
        goal, bins, seed = BetaGoal(alpha, beta), 10, 11
    g2, log, _ = generate(g, t, goal, bins, seed=seed)
    log.save(tmp_path / "edit_log.jsonl")
    save_edge_list(g2, tmp_path / "generated_edges.txt")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("edit_log.jsonl", "generated_edges.txt"))
    assert digests == _GOLDEN_ARTIFACTS[case]


def test_generate_rejects_fully_unlabeled():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t = NodeTable(np.full(4, -1), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        generate(g, t, BetaGoal(2.0, 2.0), 5, seed=0)


def test_generate_leaves_the_collector_as_it_found_it(caller_gc, monkeypatch):
    g, t = two_class_sbm(200, 6, 0.5, seed=3)
    seen = []
    run_refine = _EditState.run_refine

    def recording_refine(self, seed):
        seen.append(gc.isenabled())
        run_refine(self, seed)

    monkeypatch.setattr(_EditState, "run_refine", recording_refine)
    generate(g, t, BetaGoal(3.0, 10.0), 10, seed=1)
    assert seen == [False] and gc.isenabled() is caller_gc
    # a refused goal, before the edit loops
    with pytest.raises(ValueError, match="bin_count must be positive"):
        generate(g, t, BetaGoal(3.0, 10.0), 0, seed=1)
    assert gc.isenabled() is caller_gc

    def failing_refine(self, seed):
        raise RuntimeError("stop")

    monkeypatch.setattr(_EditState, "run_refine", failing_refine)
    with pytest.raises(RuntimeError, match="stop"):
        generate(g, t, BetaGoal(3.0, 10.0), 10, seed=1)
    assert gc.isenabled() is caller_gc
