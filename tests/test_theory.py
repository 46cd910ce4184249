"""Closed-form ridge analysis and its Monte-Carlo counterpart.

The simulator follows the generative model; the closed form lands at
half the simulated gap, up to a lambda / b^2 term that the sigma = 0
identity below pins exactly. Both facts are pinned here so neither side
can drift silently. The simulator is checked against the per-node
reference sampler in conftest, and its closed-form 2 x 2 solve against the
batched LAPACK solve it replaced.
"""

import logging
import math
import re

import numpy as np
import pytest
from conftest import (
    reference_monte_carlo_gap,
    reference_simulate_gaps,
    reference_training_representations,
)

from homshift import (
    TheoryParams,
    TheoryResult,
    aggregation_coefficient,
    alpha_slope,
    expected_logit_gap,
    expected_weights,
    monte_carlo_gap,
    save_sweep,
    sweep_alpha,
)
from homshift.theory import _normal_columns, _simulate_gaps


def _params(**overrides):
    base = dict(n=1000, k=500, d=10, h=0.7, alpha_shift=0.2,
                mu_l=1.0, mu_s=1.0, sigma=0.01, lambda_reg=1e-3)
    base.update(overrides)
    return TheoryParams(**base)


# ------------------------------------------------------------ validation


def test_params_validation():
    with pytest.raises(ValueError, match="0 < k < n"):
        _params(k=0)
    with pytest.raises(ValueError, match="0 < k < n"):
        _params(k=1000)
    with pytest.raises(ValueError, match="degree"):
        _params(d=0)
    with pytest.raises(ValueError, match="h must"):
        _params(h=1.2, alpha_shift=0.0)
    with pytest.raises(ValueError, match="alpha_shift"):
        _params(h=0.9, alpha_shift=0.2)
    with pytest.raises(ValueError):
        _params(sigma=-0.1)
    with pytest.raises(ValueError):
        _params(lambda_reg=-1.0)
    for name in ("mu_l", "mu_s", "sigma", "lambda_reg"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                _params(**{name: bad})


def test_result_validation():
    with pytest.raises(ValueError):
        TheoryResult(0.1, 0.2, -0.1, 10)
    with pytest.raises(ValueError):
        TheoryResult(0.1, 0.2, 0.1, 0)


def test_aggregation_coefficient_values():
    assert aggregation_coefficient(0.5, 10) == pytest.approx(1.0, abs=1e-12)
    assert aggregation_coefficient(1.0, 4) == pytest.approx(5.0, abs=1e-12)
    assert aggregation_coefficient(0.0, 1) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- expected weights


def test_expected_weights_hand_fixture():
    # n=4, k=2, mu=(1,0), lambda=1: det = (4+1)(0+1) - 0 = 5,
    # first column -(2/15, 0), second its negation
    p = _params(n=4, k=2, d=2, h=1.0, alpha_shift=0.0,
                mu_l=1.0, mu_s=0.0, sigma=0.0, lambda_reg=1.0)
    expected = np.array([[-2 / 15, 2 / 15], [0.0, 0.0]])
    assert np.allclose(expected_weights(p), expected, atol=1e-15)


def test_expected_weights_zero_sensitive_mean_row():
    p = _params(mu_s=0.0, sigma=0.0)
    assert np.all(expected_weights(p)[1] == 0.0)


def test_expected_weights_requires_regularization():
    with pytest.raises(ValueError, match="lambda"):
        expected_weights(_params(lambda_reg=0.0))


def test_degenerate_aggregation_rejected():
    # h=0, d=1 zeroes the aggregation coefficient; nothing is identifiable
    p = _params(d=1, h=0.0, alpha_shift=0.5)
    with pytest.raises(ValueError):
        expected_weights(p)
    with pytest.raises(ValueError):
        monte_carlo_gap(p, 10, np.random.default_rng(0))


def test_expected_weights_matches_ridge_solve_at_zero_noise():
    # the closed form's penalty applies to the unscaled features, so the
    # aggregated design needs lambda * b^2 to reproduce it exactly
    p = _params(n=6, k=2, d=3, h=0.8, alpha_shift=0.0,
                mu_l=1.3, mu_s=0.7, sigma=0.0, lambda_reg=0.9)
    r, y = reference_training_representations(p, np.random.default_rng(0))
    b = aggregation_coefficient(p.h, p.d)
    w = np.linalg.solve(r.T @ r + p.lambda_reg * b * b * np.eye(2), r.T @ y)
    assert np.allclose(w, expected_weights(p), atol=1e-12)


def test_expected_weights_matches_low_noise_fit():
    # at h=0.5 the aggregation coefficient is 1 and both conventions agree;
    # sigma must be tiny because the rank-one-plus-lambda system amplifies
    # sampling noise by roughly n * mu^2 / lambda
    p = _params(n=2000, k=1000, h=0.5, alpha_shift=0.0,
                mu_l=1.3, mu_s=0.4, sigma=1e-8, lambda_reg=1e-3)
    ew = expected_weights(p)
    r, y = reference_training_representations(p, np.random.default_rng(2))
    w = np.linalg.solve(r.T @ r + p.lambda_reg * np.eye(2), r.T @ y)
    assert np.abs(w - ew).max() < 5e-3 * np.abs(ew).max()


# ----------------------------------------------------------- closed form


def test_logit_gap_canonical_value():
    assert expected_logit_gap(_params(sigma=0.0)) == pytest.approx(0.45, abs=1e-5)


def test_logit_gap_without_regularization():
    p = _params(alpha_shift=0.0, lambda_reg=0.0)
    assert expected_logit_gap(p) == pytest.approx(p.k / (2 * p.n), abs=1e-15)


def test_logit_gap_vanishes_without_sensitive_signal():
    assert expected_logit_gap(_params(mu_s=0.0)) == 0.0


def test_logit_gap_zero_at_balancing_shift():
    # alpha = -b/(2d) cancels the shifted aggregation exactly
    b = aggregation_coefficient(0.7, 10)
    p = _params(alpha_shift=-b / 20)
    assert expected_logit_gap(p) == pytest.approx(0.0, abs=1e-12)


def test_logit_gap_is_affine_in_alpha():
    base = _params(alpha_shift=0.0)
    slope = alpha_slope(base)
    g0 = expected_logit_gap(base)
    for alpha in (-0.2, -0.05, 0.1, 0.25, 0.3):
        p = _params(alpha_shift=alpha)
        assert expected_logit_gap(p) == pytest.approx(g0 + slope * alpha, abs=1e-12)


# ------------------------------------------------------------- sampling


def test_representation_rows_at_zero_noise():
    p = _params(n=4, k=2, d=2, h=1.0, alpha_shift=0.0,
                mu_l=1.0, mu_s=0.5, sigma=0.0)
    r, y = reference_training_representations(p, np.random.default_rng(0))
    assert r.shape == (4, 2) and y.shape == (4, 2)
    assert np.allclose(r[:2], [[-3.0, -1.5]] * 2, atol=1e-15)
    assert np.allclose(r[2:], [[3.0, 1.5]] * 2, atol=1e-15)
    assert np.array_equal(y, [[1, 0], [1, 0], [0, 1], [0, 1]])


def test_representation_means_concentrate():
    p = _params(n=20_000, k=10_000, alpha_shift=0.0,
                mu_l=1.2, mu_s=0.6, sigma=0.5)
    r, _ = reference_training_representations(p, np.random.default_rng(4))
    b = aggregation_coefficient(p.h, p.d)
    bound = 3 * b * p.sigma / math.sqrt(p.k)
    assert np.all(np.abs(r[:p.k].mean(axis=0) + b * np.array([1.2, 0.6])) < bound)
    assert np.all(np.abs(r[p.k:].mean(axis=0) - b * np.array([1.2, 0.6])) < bound)


# ------------------------------------------------------------ simulation


def test_monte_carlo_single_trial_shape():
    res = monte_carlo_gap(_params(), 1, np.random.default_rng(9))
    assert res.trials == 1
    assert res.mc_gap_stderr == 0.0
    assert res.closed_form_gap == expected_logit_gap(_params())
    with pytest.raises(ValueError):
        monte_carlo_gap(_params(), 0, np.random.default_rng(0))


def _zero_noise_ratio(p):
    """Exact simulated / closed ratio at sigma = 0 (theory module docstring)."""
    b = aggregation_coefficient(p.h, p.d)
    norm_sq = p.mu_l ** 2 + p.mu_s ** 2
    return 2 * (p.lambda_reg + p.n * norm_sq) / (p.lambda_reg / b ** 2 + p.n * norm_sq)


def test_simulated_gap_is_twice_the_closed_form_at_zero_noise():
    p = _params(sigma=0.0)
    res = monte_carlo_gap(p, 1, np.random.default_rng(0))
    exact = res.closed_form_gap * _zero_noise_ratio(p)
    assert res.mc_gap_mean == pytest.approx(exact, rel=1e-7)
    # the lambda / b^2 term is resolved: plain twice the closed form is off
    assert res.mc_gap_mean != pytest.approx(2 * res.closed_form_gap, rel=1e-7)


@pytest.mark.parametrize("mu_l, mu_s", [(1.0, 1.0), (1.3, 0.7), (0.3, 0.1)])
def test_zero_noise_without_regularization_is_singular(mu_l, mu_s):
    # every representation is +-b * mu, so R^T R has rank one; in floating
    # point it can miss exact singularity, which must not yield a gap
    p = _params(mu_l=mu_l, mu_s=mu_s, sigma=0.0, lambda_reg=0.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        monte_carlo_gap(p, 10, np.random.default_rng(0))


@pytest.mark.parametrize("overrides, trials", [
    ({}, 5000),
    (dict(n=50, k=10, sigma=0.1, lambda_reg=0.3), 20_000),
    (dict(n=2, k=1, sigma=0.5, lambda_reg=0.3), 20_000),
    (dict(n=3, k=2, sigma=0.5, lambda_reg=0.3), 20_000),
], ids=["canonical", "small-noisy", "n2", "n3"])
def test_sampler_matches_per_node_reference(overrides, trials):
    p = _params(**overrides)
    got = _simulate_gaps(p, trials, np.random.default_rng(21))
    ref = reference_monte_carlo_gap(p, trials, np.random.default_rng(22))

    def moments(g):
        var = g.var(ddof=1)
        var_se_sq = (((g - g.mean()) ** 4).mean() - var ** 2) / g.size
        return g.mean(), var, var / g.size, var_se_sq

    mean_a, var_a, mean_se_sq_a, var_se_sq_a = moments(got)
    mean_b, var_b, mean_se_sq_b, var_se_sq_b = moments(ref)
    assert abs(mean_a - mean_b) <= 3 * math.sqrt(mean_se_sq_a + mean_se_sq_b)
    assert abs(var_a - var_b) <= 3 * math.sqrt(var_se_sq_a + var_se_sq_b)


@pytest.mark.parametrize("overrides, trials", [
    ({}, 5000),
    (dict(sigma=0.0), 5000),
    (dict(n=50, k=10, sigma=0.1, lambda_reg=0.3), 5000),
    (dict(n=2, k=1, sigma=0.5, lambda_reg=0.3), 5000),
    (dict(n=3, k=2, sigma=0.5, lambda_reg=0.3), 5000),
], ids=["canonical", "sigma0", "small-noisy", "n2", "n3"])
def test_closed_form_solve_matches_batched_solve(overrides, trials):
    # same draws, so the two differ only in how each 2 x 2 system is solved.
    # A trial's gap is a dot product that can cancel to near 0, where a
    # relative bound means nothing: the floor is 1e-9 of the largest |gap|.
    p = _params(**overrides)
    got = _simulate_gaps(p, trials, np.random.default_rng(21))
    ref = reference_simulate_gaps(p, trials, np.random.default_rng(21))
    np.testing.assert_allclose(got, ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())


class _StubRng:
    """Hands out fixed rows for `standard_normal`; the other draws are not expected."""

    def __init__(self, *normals):
        self.normals = list(normals)

    def standard_normal(self, size):
        return np.broadcast_to(np.asarray(self.normals.pop(0), dtype=float), size)


def test_exactly_singular_gram_raises():
    # n = 2 leaves no within-group scatter, b = 1 at h = 0.5, lambda = 0, and
    # parallel group sums A = (1, 2), B = (2, 4): the Gram matrix
    # [[5, 10], [10, 20]] has a determinant of exactly 0. With k = n - k = 1,
    # sigma = 0.5 and mu = (1, 1), a sum is (1, 1) + 0.5 z, so z = 2 (sum - 1).
    p = _params(n=2, k=1, h=0.5, alpha_shift=0.0, mu_l=1.0, mu_s=1.0, sigma=0.5,
                lambda_reg=0.0)
    rng = _StubRng([0.0, 2.0], [2.0, 6.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError, match="singular in trial 0"):
        _simulate_gaps(p, 3, rng)
    # with B = (2, 3) the sums are not parallel and every trial solves
    rng = _StubRng([0.0, 2.0], [2.0, 4.0], [0.0, 0.0], [0.0, 0.0])
    assert np.isfinite(_simulate_gaps(p, 3, rng)).all()


@pytest.mark.parametrize("overrides", [
    {}, dict(sigma=0.0), dict(n=2, k=1, sigma=0.5), dict(mu_l=1e3, mu_s=-1e3),
    dict(n=10 ** 6, k=3, sigma=2.5),
], ids=["canonical", "sigma0", "n2", "large-mu", "large-n"])
def test_scaled_standard_normals_equal_generator_normal(overrides):
    # _normal_columns must reproduce Generator.normal's stream bit for bit,
    # which holds while numpy rounds loc + scale * z as two operations; a
    # build that fused the multiply-add would fail here first
    p = _params(**overrides)
    n, k, sigma = p.n, p.k, p.sigma
    means = np.array([p.mu_l, p.mu_s])
    for loc, scale in [(k * means, math.sqrt(k) * sigma),
                       ((n - k) * means, math.sqrt(n - k) * sigma),
                       (means, sigma)]:
        expected = np.random.default_rng(3).normal(loc, scale, size=(2000, 2))
        first, second = _normal_columns(np.random.default_rng(3), 2000, tuple(loc), scale)
        assert first.tobytes() == np.ascontiguousarray(expected[:, 0]).tobytes()
        assert second.tobytes() == np.ascontiguousarray(expected[:, 1]).tobytes()


@pytest.mark.parametrize("overrides", [
    dict(sigma=1e200), dict(mu_l=1e152),
], ids=["sigma", "mu"])
def test_overflowing_simulation_is_refused(overrides):
    # at mu_l = 1e152 the closed form is finite, but the group sums' squares are not
    p = _params(**overrides)
    assert math.isfinite(expected_logit_gap(p))
    with pytest.raises(ValueError, match=r"simulated gap of trial \d+ is .*overflow"):
        monte_carlo_gap(p, 50, np.random.default_rng(0))


@pytest.mark.parametrize("mu_l, mu_s", [(1e300, 1.0), (1.0, 1e300), (1e154, 1e154)])
def test_overflowing_closed_form_names_the_parameters(mu_l, mu_s):
    p = _params(mu_l=mu_l, mu_s=mu_s)
    message = f"closed form overflows at mu_l={mu_l!r}, mu_s={mu_s!r}, n=1000"
    for closed_form in (expected_logit_gap, alpha_slope):
        with pytest.raises(ValueError, match=re.escape(message)):
            closed_form(p)
    with pytest.raises(ValueError, match=re.escape(message)):
        monte_carlo_gap(p, 10, np.random.default_rng(0))


@pytest.mark.parametrize("mu_l, mu_s, lam", [(0.0, 1e-200, 0.0), (1e-170, 1e-170, 0.0)])
def test_a_zero_closed_form_denominator_names_the_parameters(mu_l, mu_s, lam):
    # mu^2 underflows to 0, and with lambda = 0 so does the denominator
    p = _params(mu_l=mu_l, mu_s=mu_s, lambda_reg=lam)
    message = (f"closed form's denominator is 0 at mu_l={mu_l!r}, mu_s={mu_s!r}, "
               f"lambda_reg={lam!r}, n=1000")
    for closed_form in (expected_logit_gap, alpha_slope):
        with pytest.raises(ValueError, match=re.escape(message)):
            closed_form(p)


@pytest.mark.parametrize("mu_l, mu_s, lam, det", [(1e300, 1.0, 1e-3, math.inf),
                                                  (1.0, 1e300, 1e-3, math.inf),
                                                  (0.0, 0.0, 1e-200, 0.0)])
def test_expected_weights_out_of_range_names_the_parameters(mu_l, mu_s, lam, det):
    # the squares overflow in the first two; the determinant lambda^2
    # underflows to 0 in the third
    p = _params(mu_l=mu_l, mu_s=mu_s, lambda_reg=lam)
    message = (f"expected weights' determinant is {det!r} at mu_l={mu_l!r}, mu_s={mu_s!r}, "
               f"lambda_reg={lam!r}, n=1000")
    with pytest.raises(ValueError, match=re.escape(message)):
        expected_weights(p)


def test_simulation_cost_does_not_grow_with_n():
    # per-node sampling would hold n x 2 features per trial; this draws O(1)
    p = _params(n=10 ** 8, k=5 * 10 ** 7)
    res = monte_carlo_gap(p, 1000, np.random.default_rng(5))
    exact = res.closed_form_gap * _zero_noise_ratio(p)
    assert 0 < res.mc_gap_stderr
    assert abs(res.mc_gap_mean - exact) <= 3 * res.mc_gap_stderr


def test_simulated_gap_concentrates_at_twice_the_closed_form():
    res = monte_carlo_gap(_params(), 4000, np.random.default_rng(1))
    assert abs(res.mc_gap_mean - 2 * res.closed_form_gap) <= 3 * res.mc_gap_stderr
    # and it is unambiguously not the closed form itself
    assert res.mc_gap_mean - res.closed_form_gap > 3 * res.mc_gap_stderr


# ----------------------------------------------------------------- sweep


def test_sweep_alpha_rows_and_skip(caplog):
    p = _params(alpha_shift=0.0)
    with caplog.at_level(logging.WARNING):
        rows = sweep_alpha(p, [0.0, 0.1, 0.2, 0.5], trials=50, seed=3)
    assert [row.alpha for row in rows] == [0.0, 0.1, 0.2]
    assert "skipping alpha" in caplog.text

    slope = alpha_slope(p)
    for row in rows:
        assert row.trials == 50
        assert row.closed_form == pytest.approx(
            rows[0].closed_form + slope * row.alpha, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_alpha_refuses_a_non_finite_shift(caplog, bad):
    with caplog.at_level(logging.WARNING), \
            pytest.raises(ValueError, match=f"alpha_grid must hold finite shifts, got {bad!r}"):
        sweep_alpha(_params(alpha_shift=0.0), [0.0, bad], trials=20, seed=3)
    assert "skipping alpha" not in caplog.text


def test_sweep_alpha_deterministic():
    p = _params(alpha_shift=0.0)
    a = sweep_alpha(p, [0.0, 0.1], trials=30, seed=5)
    b = sweep_alpha(p, [0.0, 0.1], trials=30, seed=5)
    assert a == b


def test_save_sweep_format(tmp_path):
    rows = sweep_alpha(_params(alpha_shift=0.0), [0.0, 0.1], trials=20, seed=7)
    path = tmp_path / "sweep.csv"
    save_sweep(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,closed_form,mc_mean,mc_stderr,trials"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert float(fields[0]) == rows[0].alpha
    assert float(fields[1]) == rows[0].closed_form
    assert float(fields[2]) == rows[0].mc_mean
    assert int(fields[4]) == 20
