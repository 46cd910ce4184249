import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from homshift import (
    BetaGoal,
    Graph,
    HomophilyHistogram,
    NodeTable,
    beta_goal_histogram,
    bin_index,
    emd,
    global_homophily,
    histogram,
    homophily_histogram,
    local_homophily_all,
)
from homshift.homophily import same_label_counts

from conftest import lp_transport_cost, reference_local_homophily


def _labeled_path():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t = NodeTable(np.array([0, 0, 1, 1]), np.zeros(4, dtype=int))
    return g, t


def test_global_homophily_hand_value():
    g, t = _labeled_path()
    # edges (0,1) same, (1,2) cross, (2,3) same
    assert global_homophily(g, t) == pytest.approx(2 / 3)


def test_global_homophily_all_same_label():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = NodeTable(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    assert global_homophily(g, t) == 1.0


def test_global_homophily_invalid_labels_never_match():
    g = Graph.from_edges(2, [(0, 1)])
    t = NodeTable(np.array([-1, -1]), np.zeros(2, dtype=int))
    assert global_homophily(g, t) == 0.0


def test_global_homophily_edgeless_error():
    t = NodeTable(np.array([0]), np.array([0]))
    with pytest.raises(ValueError):
        global_homophily(Graph.from_edges(1, []), t)


def test_local_homophily_hand_values():
    g, t = _labeled_path()
    assert local_homophily_all(g, t).tolist() == [1.0, 0.5, 0.5, 1.0]


def test_local_homophily_all_nan_for_isolated_and_unlabeled():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    t = NodeTable(np.array([0, 0, -1, 0]), np.zeros(4, dtype=int))
    r = local_homophily_all(g, t)
    assert r[0] == 1.0
    assert r[1] == 0.5  # neighbor 2 has no label, so it never matches
    assert np.isnan(r[2]) and np.isnan(r[3])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_local_homophily_all_matches_scalar_path(seed):
    rng = np.random.default_rng(seed)
    n = 12
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    g = Graph.from_edges(n, pairs)
    t = NodeTable(rng.integers(-1, 3, n), np.zeros(n, dtype=int))
    same = same_label_counts(g, t)
    assert same.dtype == np.int64
    for v in range(n):
        agree = (t.labels[g.neighbors(v)] == t.labels[v]).sum() if t.labels[v] >= 0 else 0
        assert same[v] == agree
    r = local_homophily_all(g, t)
    for v in range(n):
        if g.degrees[v] == 0 or t.labels[v] < 0:
            assert np.isnan(r[v])
        else:
            # both sides are one correctly rounded int / int division
            assert r[v] == reference_local_homophily(g, t, v)


def test_histogram_matches_binned_counts():
    h = histogram(np.array([0.0, 0.5, 1.0]), 2)
    assert np.allclose(h.mass, [1 / 3, 2 / 3])


def test_histogram_last_bin_closed():
    h = histogram(np.array([1.0, 1.0]), 10)
    assert h.mass[9] == 1.0


def test_bin_index_boundary_ratios_are_exact():
    # s/d ratios that land on bin edges must not fall one bin short
    assert bin_index(np.array([0.3]), 10)[0] == 3
    assert bin_index(np.array([3 / 7]), 7)[0] == 3
    assert bin_index(np.array([0.1 + 0.2]), 10)[0] == 3
    for d in range(1, 30):
        for s in range(d + 1):
            # integer arithmetic gives the true floor; the float path must agree
            assert bin_index(np.array([s / d]), 10)[0] == min((s * 10) // d, 9)


def test_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        histogram(np.array([]), 4)
    with pytest.raises(ValueError):
        histogram(np.array([1.5]), 4)
    with pytest.raises(ValueError):
        histogram(np.array([np.nan]), 4)


def test_homophily_histogram_skips_undefined_nodes():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    t = NodeTable(np.array([0, 0, -1, 0]), np.zeros(4, dtype=int))
    h = homophily_histogram(g, t, 2)
    # ratios are 1.0 and 0.5; node 2 (unlabeled) and 3 (isolated) drop out
    assert np.allclose(h.mass, [0.0, 1.0])


def test_histogram_type_validation():
    with pytest.raises(ValueError):
        HomophilyHistogram(2, np.array([0.6, 0.3]))
    with pytest.raises(ValueError):
        HomophilyHistogram(2, np.array([1.2, -0.2]))
    for bad in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            HomophilyHistogram(2, np.array(bad))
    with pytest.raises(ValueError):
        BetaGoal(0.0, 1.0)
    for alpha, beta, name in ((np.inf, 1.0, "alpha"), (1.0, np.nan, "beta"),
                              (np.nan, 1.0, "alpha"), (2.0, -np.inf, "beta")):
        with pytest.raises(ValueError, match=f"parameter {name} must be finite and positive"):
            BetaGoal(alpha, beta)


def test_emd_hand_values():
    b2 = lambda m: HomophilyHistogram(2, np.array(m))
    assert emd(b2([1.0, 0.0]), b2([0.0, 1.0])) == pytest.approx(0.5)
    assert emd(b2([0.5, 0.5]), b2([0.0, 1.0])) == pytest.approx(0.25)
    assert emd(b2([0.3, 0.7]), b2([0.3, 0.7])) == 0.0


def test_emd_bin_count_mismatch():
    with pytest.raises(ValueError):
        emd(HomophilyHistogram(2, np.array([0.5, 0.5])),
            HomophilyHistogram(3, np.array([0.5, 0.25, 0.25])))


def _random_hist(rng, b):
    m = rng.random(b) + 1e-12
    return HomophilyHistogram(b, m / m.sum())


def test_emd_matches_lp_oracle_on_random_pairs():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        b = int(rng.integers(1, 7))
        p, q = _random_hist(rng, b), _random_hist(rng, b)
        assert emd(p, q) == pytest.approx(lp_transport_cost(p.mass, q.mass), abs=1e-9)


@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_emd_metric_axioms(seed, b):
    rng = np.random.default_rng(seed)
    p, q, r = (_random_hist(rng, b) for _ in range(3))
    assert emd(p, p) == 0.0
    assert emd(p, q) == pytest.approx(emd(q, p), abs=1e-15)
    assert emd(p, q) >= 0.0
    assert emd(p, r) <= emd(p, q) + emd(q, r) + 1e-12


def test_beta_goal_uniform_case():
    h = beta_goal_histogram(BetaGoal(1.0, 1.0), 4)
    assert np.allclose(h.mass, 0.25, atol=1e-12)


def test_beta_goal_mean_matches_distribution():
    h = beta_goal_histogram(BetaGoal(10.0, 3.0), 10)
    centers = (np.arange(10) + 0.5) / 10
    assert float(centers @ h.mass) == pytest.approx(10 / 13, abs=1e-3)


def test_beta_goal_mirror_symmetry():
    lo = beta_goal_histogram(BetaGoal(3.0, 10.0), 10)
    hi = beta_goal_histogram(BetaGoal(10.0, 3.0), 10)
    assert np.allclose(lo.mass, hi.mass[::-1], atol=1e-8)


@pytest.mark.parametrize("a,b_shape", [(2.5, 4.0), (10.0, 3.0), (0.5, 0.5), (7.0, 7.0)])
def test_beta_goal_matches_cdf_oracle(a, b_shape):
    bins = 10
    h = beta_goal_histogram(BetaGoal(a, b_shape), bins)
    edges = np.linspace(0.0, 1.0, bins + 1)
    expected = np.diff(stats.beta.cdf(edges, a, b_shape))
    assert np.allclose(h.mass, expected, atol=1e-8)


def _quad_beta_mass(a: float, b: float, bins: int) -> np.ndarray:
    """Per-bin Beta(a, b) mass by adaptive quadrature of the density, renormalized."""
    log_norm = special.betaln(a, b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return float(np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - log_norm))

    edges = np.arange(bins + 1, dtype=np.float64) / bins
    mass = np.array([integrate.quad(density, lo, hi, epsabs=1e-13, epsrel=1e-10, limit=200)[0]
                     for lo, hi in zip(edges[:-1], edges[1:])])
    return mass / mass.sum()


@pytest.mark.parametrize("bins", [2, 10])
@pytest.mark.parametrize("b_shape", [0.5, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 3.0, 10.0])
def test_beta_goal_matches_quadrature(a, b_shape, bins):
    h = beta_goal_histogram(BetaGoal(a, b_shape), bins)
    assert np.abs(h.mass - _quad_beta_mass(a, b_shape, bins)).max() <= 1e-10


def test_beta_goal_requires_two_bins():
    with pytest.raises(ValueError):
        beta_goal_histogram(BetaGoal(2.0, 2.0), 1)
