"""Two-block benchmark graphs with tunable label homophily."""

import numpy as np
import pytest

from homshift import global_homophily, two_class_sbm


def test_block_structure(sbm_pair):
    g, t = sbm_pair
    assert g.node_count == 2000
    assert np.all(t.labels[:1000] == 0) and np.all(t.labels[1000:] == 1)
    assert np.array_equal(t.sensitive, t.labels)


def test_mean_degree_and_homophily(sbm_pair):
    g, t = sbm_pair
    assert abs(g.degrees.mean() - 10.0) < 0.5
    assert abs(global_homophily(g, t) - 0.5) < 0.03


def test_high_homophily_target():
    g, t = two_class_sbm(1000, 8, 0.8, seed=3)
    assert abs(global_homophily(g, t) - 0.8) < 0.04
    assert abs(g.degrees.mean() - 8.0) < 0.5


def test_deterministic_per_seed():
    g1, _ = two_class_sbm(300, 6, 0.6, seed=5)
    g2, _ = two_class_sbm(300, 6, 0.6, seed=5)
    g3, _ = two_class_sbm(300, 6, 0.6, seed=6)
    assert g1 == g2
    assert g1 != g3


def test_parameter_validation():
    with pytest.raises(ValueError, match="at least 4"):
        two_class_sbm(3, 2, 0.5, seed=0)
    with pytest.raises(ValueError, match="too large"):
        two_class_sbm(10, 20, 1.0, seed=0)
    for mean_degree in (float("nan"), -3.0, float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"mean_degree must be finite and non-negative, "
                                             f"got {mean_degree!r}"):
            two_class_sbm(100, mean_degree, 0.5, seed=1)
