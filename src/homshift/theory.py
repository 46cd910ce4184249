"""Closed-form and Monte-Carlo analysis of a one-layer linear GNN.

Synthetic setting: n training nodes, the first k with (y=0, s=0) and the
rest with (y=1, s=1). Node features carry a label channel with mean mu_l
and a sensitive channel with mean mu_s, both with std sigma, sign-flipped
by class. Mean aggregation over a degree-d neighborhood with local
homophily h scales a node's own feature vector by b_coef = 1 + d(2h - 1).
Ridge regression on these representations admits a closed-form expected
weight matrix and a closed-form expected logit gap between two test nodes
that share the label but differ in the sensitive attribute, evaluated at a
shifted homophily h + alpha.

How the simulator relates to the closed form. Write b = b_coef,
a = 1 + d(2(h + alpha) - 1) and mu = (mu_l, mu_s). The simulated gap is
(r_u - r_v) . W_0, where W_0 is the correct-class column of the ridge
solution W = (R^T R + lambda I)^{-1} R^T Y and r_u, r_v are the test
representations. The test pair shares the label channel's sign and
differs in the sensitive channel's, so r_u - r_v = -a [p_u - p_v, q_u + q_v];
its expectation is [0, -2 a mu_s], a sensitive-channel contrast of 2 mu_s
where the closed form has mu_s. The ridge penalty lambda acts on the
aggregated representations b * f, so relative to the unscaled features
E[W_0] carries lambda / b^2 where the closed form has lambda. At sigma = 0
both are exact:

    simulated / closed = 2 (lambda + n |mu|^2) / (lambda / b^2 + n |mu|^2),

which is twice, up to the lambda / b^2 term (2.00000096 on the canonical
parameter set). The closed form is kept as the textbook formula and the
factor is pinned by the tests.

The simulator draws only the fit's sufficient statistics per trial and
solves every trial's 2 x 2 ridge system by the explicit inverse, on 1-D
arrays over the trials; see `monte_carlo_gap`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TheoryParams:
    """Parameters of the synthetic two-group, degree-regular model."""

    n: int
    k: int
    d: int
    h: float
    alpha_shift: float
    mu_l: float
    mu_s: float
    sigma: float
    lambda_reg: float

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError("need 0 < k < n")
        if self.d < 1:
            raise ValueError("degree d must be at least 1")
        if not 0.0 <= self.h <= 1.0:
            raise ValueError("h must lie in [0, 1]")
        if not 0.0 <= self.h + self.alpha_shift <= 1.0:
            raise ValueError("h + alpha_shift must lie in [0, 1]")
        for name in ("mu_l", "mu_s", "sigma", "lambda_reg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be non-negative")


@dataclass(frozen=True)
class TheoryResult:
    closed_form_gap: float
    mc_gap_mean: float
    mc_gap_stderr: float
    trials: int

    def __post_init__(self):
        if self.mc_gap_stderr < 0:
            raise ValueError("stderr cannot be negative")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def aggregation_coefficient(h: float, d: int) -> float:
    """Self-feature multiplier 1 + d(2h - 1) after mean aggregation."""
    return 1.0 + d * (2.0 * h - 1.0)


def _check_b_coef(params: TheoryParams) -> float:
    b_coef = aggregation_coefficient(params.h, params.d)
    if abs(b_coef) < 1e-12:
        raise ValueError("aggregation coefficient 1 + d(2h - 1) is zero; "
                         "representations collapse at this (h, d)")
    return b_coef


def expected_weights(params: TheoryParams) -> np.ndarray:
    """Expected 2x2 ridge weight matrix at sigma = 0.

    Requires lambda_reg > 0: the expected Gram matrix is rank-1, so the
    unregularized solution does not exist. Raises ValueError, naming the
    parameters, when the determinant overflows or is not positive.
    """
    if params.lambda_reg <= 0:
        raise ValueError("expected_weights needs lambda_reg > 0 "
                         "(the expected Gram matrix is rank-1)")
    b_coef = _check_b_coef(params)
    n, k = params.n, params.k
    mu_l, mu_s, lam = params.mu_l, params.mu_s, params.lambda_reg
    try:
        det = (n * mu_l**2 + lam) * (n * mu_s**2 + lam) - (n * mu_l * mu_s) ** 2
    except OverflowError:
        det = math.inf
    if not 0 < det < math.inf:
        raise ValueError(f"the expected weights' determinant is {det!r} at mu_l={mu_l!r}, "
                         f"mu_s={mu_s!r}, lambda_reg={lam!r}, n={n}")
    inv_gram = np.array([[n * mu_s**2 + lam, -n * mu_l * mu_s],
                         [-n * mu_l * mu_s, n * mu_l**2 + lam]]) / det
    cross = np.array([[-k * mu_l, (n - k) * mu_l],
                      [-k * mu_s, (n - k) * mu_s]])
    return (inv_gram @ cross) / b_coef


def _gap_denominator(params: TheoryParams, b_coef: float) -> float:
    """b (lambda + (mu_l^2 + mu_s^2) n), the closed forms' shared denominator."""
    try:
        denom = b_coef * (params.lambda_reg + (params.mu_l**2 + params.mu_s**2) * params.n)
    except OverflowError:
        denom = math.inf
    if not math.isfinite(denom):
        raise ValueError(f"the closed form overflows at mu_l={params.mu_l!r}, "
                         f"mu_s={params.mu_s!r}, n={params.n}")
    if denom == 0:
        raise ValueError(f"the closed form's denominator is 0 at mu_l={params.mu_l!r}, "
                         f"mu_s={params.mu_s!r}, lambda_reg={params.lambda_reg!r}, "
                         f"n={params.n}")
    return denom


def expected_logit_gap(params: TheoryParams) -> float:
    """Expected correct-class logit difference between the two test nodes.

    gap = mu_s^2 k (1 + d(2(h+alpha) - 1)) / [(1 + d(2h-1)) (lambda + (mu_l^2 + mu_s^2) n)].
    lambda_reg = 0 is allowed here; it is the limit form.
    """
    if params.mu_s == 0.0:
        return 0.0
    b_coef = _check_b_coef(params)
    a_coef = aggregation_coefficient(params.h + params.alpha_shift, params.d)
    denom = _gap_denominator(params, b_coef)
    return params.mu_s**2 * params.k * a_coef / denom


def alpha_slope(params: TheoryParams) -> float:
    """d(gap)/d(alpha): the gap is affine in the homophily shift."""
    b_coef = _check_b_coef(params)
    denom = _gap_denominator(params, b_coef)
    return 2.0 * params.d * params.mu_s**2 * params.k / denom


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _normal_columns(rng: np.random.Generator, trials: int, loc: tuple[float, float],
                    scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of rng.normal(loc, scale, size=(trials, 2)), bit for bit.

    Generator.normal evaluates loc + scale * z on the standard normal stream,
    so drawing z and scaling each column in place gives the same values
    without broadcasting the 2-vector loc element by element.
    """
    z = rng.standard_normal((trials, 2))
    first = z[:, 0] * scale
    first += loc[0]
    second = z[:, 1] * scale
    second += loc[1]
    return first, second


def _simulate_gaps(params: TheoryParams, trials: int, rng: np.random.Generator) -> np.ndarray:
    """One simulated logit gap per trial; see `monte_carlo_gap`."""
    b_coef = _check_b_coef(params)
    a_coef = aggregation_coefficient(params.h + params.alpha_shift, params.d)
    # abs: -0.0 * z would keep a mean of -0.0 negative, where 0.0 * z makes it 0.0
    n, k, sigma = params.n, params.k, abs(params.sigma)
    mu_l, mu_s = params.mu_l, params.mu_s
    a_0, a_1 = _normal_columns(rng, trials, (k * mu_l, k * mu_s), math.sqrt(k) * sigma)
    b_0, b_1 = _normal_columns(rng, trials, ((n - k) * mu_l, (n - k) * mu_s),
                               math.sqrt(n - k) * sigma)
    # Bartlett factor L = [[c1, 0], [z, c2]] of the Wishart(n - 2) scatter;
    # chi^2 with df <= 0 is 0, and at n = 2 there is no scatter, so z is 0 too.
    c1_sq = rng.chisquare(n - 2, trials) if n > 2 else np.zeros(trials)
    c2_sq = rng.chisquare(n - 3, trials) if n > 3 else np.zeros(trials)
    z = rng.standard_normal(trials) if n > 2 else np.zeros(trials)
    # The three distinct entries of each symmetric Gram matrix
    # b^2 (sigma^2 L L^T + A A^T / k + B B^T / (n - k)) + lambda I.
    noise, bb, lam = sigma * sigma, b_coef * b_coef, params.lambda_reg
    g_00 = bb * (noise * c1_sq + a_0 * a_0 / k + b_0 * b_0 / (n - k)) + lam
    g_01 = bb * (noise * (np.sqrt(c1_sq) * z) + a_0 * a_1 / k + b_0 * b_1 / (n - k))
    g_11 = bb * (noise * (z * z + c2_sq) + a_1 * a_1 / k + b_1 * b_1 / (n - k)) + lam
    det = g_00 * g_11 - g_01 * g_01
    singular = np.flatnonzero(det == 0)
    if singular.size:
        raise np.linalg.LinAlgError(f"regularized Gram matrix is singular "
                                    f"in trial {singular[0]}")
    # W_0 = G^{-1} (-b A) by the explicit 2 x 2 inverse
    r_0, r_1 = -b_coef * a_0, -b_coef * a_1
    w_0 = (g_11 * r_0 - g_01 * r_1) / det
    w_1 = (g_00 * r_1 - g_01 * r_0) / det
    u_0, u_1 = _normal_columns(rng, trials, (mu_l, mu_s), sigma)
    v_0, v_1 = _normal_columns(rng, trials, (mu_l, mu_s), sigma)
    return -a_coef * (u_0 - v_0) * w_0 + -a_coef * (u_1 + v_1) * w_1


def monte_carlo_gap(params: TheoryParams, trials: int, rng) -> TheoryResult:
    """Simulate the logit gap by fitting ridge regression per trial.

    Each trial fits W = (R^T R + lambda I)^{-1} R^T Y on fresh training
    representations, draws the two test nodes at homophily h + alpha (same
    label, opposite sensitive value), and records the difference of their
    correct-class logits, (r_u - r_v) . W_0. Row i of R is b * s_i * f_i,
    with features f_i ~ N(mu, sigma^2 I) and s_i = -1 for the k
    (y=0, s=0) rows, +1 after; Y one-hot encodes y.

    The fit depends on the training features only through two statistics,
    so a trial draws those exactly instead of all n x 2 features and costs
    O(1) in n. The signs s_i square away: R^T R = b^2 S with
    S = sum_i f_i f_i^T, and W_0's right-hand side is -b A, with A the sum of
    group 0's features. With B the sum of group 1's,
    A ~ N(k mu, k sigma^2 I), B ~ N((n - k) mu, (n - k) sigma^2 I), and
    S = V + A A^T / k + B B^T / (n - k), where the within-group scatter
    V ~ Wishart(n - 2, sigma^2 I) is independent of A and B and is drawn by
    the 2 x 2 Bartlett decomposition. Each trial's symmetric 2 x 2 system is
    solved by its explicit inverse, on 1-D arrays over the trials. The
    normal draws (A, B and the test pair) are standard normals scaled in
    place, column by column: on the same stream, they are bit for bit the
    values Generator.normal(loc, scale, size=(trials, 2)) would return.

    At sigma = 0 the result is exact: the gap equals
    closed * 2 (lambda + n |mu|^2) / (lambda / b^2 + n |mu|^2), derived in
    the module docstring. Raises numpy.linalg.LinAlgError when a trial's
    regularized Gram matrix has a determinant of exactly 0, and ValueError
    when the parameters overflow double precision: in the closed form, or
    in any trial's simulated gap (the error names the first such trial).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if params.sigma == 0 and params.lambda_reg == 0:
        # Every representation is +-b * mu, so R^T R has rank one; rounding
        # can leave it a hair from singular, and the solver would then
        # return a finite but meaningless gap.
        raise np.linalg.LinAlgError("Gram matrix is singular: with sigma = 0 and "
                                    "lambda_reg = 0, R^T R has rank one")
    closed = expected_logit_gap(params)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = _simulate_gaps(params, trials, _as_rng(rng))
    finite = np.isfinite(gaps)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"simulated gap of trial {bad} is {float(gaps[bad])!r}: "
                         f"the parameters overflow double precision")
    mean = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return TheoryResult(
        closed_form_gap=closed,
        mc_gap_mean=mean,
        mc_gap_stderr=stderr,
        trials=trials,
    )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    closed_form: float
    mc_mean: float
    mc_stderr: float
    trials: int


def sweep_alpha(params: TheoryParams, alpha_grid, trials: int, seed) -> list[SweepRow]:
    """Closed-form and simulated gaps over a grid of homophily shifts.

    Grid points that push h + alpha outside [0, 1] are skipped with a
    warning. Each row gets an independent RNG stream spawned from `seed`,
    so results are reproducible and order-independent.
    """
    alpha_grid = list(alpha_grid)
    streams = np.random.SeedSequence(seed).spawn(len(alpha_grid))
    rows: list[SweepRow] = []
    for i, alpha in enumerate(alpha_grid):
        if not 0.0 <= params.h + alpha <= 1.0:
            logger.warning("skipping alpha=%g: h + alpha falls outside [0, 1]", alpha)
            continue
        p_alpha = replace(params, alpha_shift=float(alpha))
        result = monte_carlo_gap(p_alpha, trials, np.random.default_rng(streams[i]))
        rows.append(SweepRow(
            alpha=float(alpha),
            closed_form=result.closed_form_gap,
            mc_mean=result.mc_gap_mean,
            mc_stderr=result.mc_gap_stderr,
            trials=result.trials,
        ))
    return rows


def save_sweep(rows: list[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,closed_form,mc_mean,mc_stderr,trials\n")
        for row in rows:
            fh.write(f"{row.alpha!r},{row.closed_form!r},{row.mc_mean!r},"
                     f"{row.mc_stderr!r},{row.trials}\n")
