"""Likelihood inference on samples of shapes: location MLE, modified BIC
model selection, evidence grading, and the two-group likelihood-ratio test.

The worked inference protocol is isotropic: Sigma = sigma^2 I, Theta = I,
sigma^2 fixed in advance. The isotropic shape likelihood depends on
(mu, sigma^2) only through mu / sigma: loglik(c mu, c^2 sigma^2) =
loglik(mu, sigma^2) for every c > 0, so sigma^2 is not identified from shapes
alone and is fixed by the protocol. The likelihood depends on mu only through
mu' W_i W_i' mu and tr mu' mu, so mu is identified up to a right O(K) factor;
fits are reported with a fixed sign canonicalization and the orbit is
documented rather than resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .densities import IsotropicKind
from .errors import DomainError, NumericError, SeriesTruncationError
from .geometry import Mode, SampleOfShapes
from .models import GeneratorKind, GeneratorSpec, binomial_basis, coefficient_polynomial
from .special import chi_square_sf
from .zonal import SeriesControl, shared_sum_table, signed_logsumexp


# the Kotz shape T of each isotropic family (rate R = 1/2)
_KOTZ_SHAPE = {IsotropicKind.GAUSSIAN: 1, IsotropicKind.KOTZ_T2: 2, IsotropicKind.KOTZ_T3: 3}

# a start stops once no component of the log-likelihood gradient exceeds this
_GTOL = 1e-6
# cap on the value-and-gradient evaluations (and iterations) of one start
_MAX_EVALUATIONS = 50000
# strong-Wolfe constants of the line search: sufficient decrease, curvature
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
# trial steps one line search may evaluate before it gives up
_LINE_SEARCH_TRIALS = 40


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start BFGS settings for :func:`fit_location`."""

    n_starts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise DomainError("need at least one optimizer start")


@dataclass(frozen=True)
class FitResult:
    mu_hat: np.ndarray
    sigma2: float
    loglik: float
    n_params: int
    bic_star: float
    converged: bool
    evaluations: int


class IsotropicLikelihood:
    """Vectorized isotropic log-likelihood of a sample, as a function of mu.

    Per specimen the angle density is the shape density of
    :func:`svdshape.densities.shape_logdensities` at Sigma = sigma^2 I,
    Theta = I and R = 1/2:
    J(u_i) e^(log_norm_const) R^(-M/2) / 2 e^{-x} sum_t c_t(x) S_t(X_i) / t!
    with X_i = mu' W_i W_i' mu / (2 sigma^2), x = tr(mu' mu) / (2 sigma^2) and
    c_t(x) = Gamma(M/2 + t) P(t) for the coefficient polynomial P of the
    kind's generator at b = 2x (:func:`coefficient_polynomial`), which also
    gives dc_t/dx. Everything that does not depend on mu is precomputed, and
    log S_t is evaluated for the whole sample and every degree through
    max_degree in one pass of the shared zonal kernel. c_t can be negative
    for the Kotz kinds, so the degree sum uses a signed log-sum-exp.
    :meth:`loglik_and_grad` adds the exact gradient in mu from the same pass.
    """

    def __init__(self, sample: SampleOfShapes, kind: IsotropicKind,
                 sigma2: float, ctrl: SeriesControl | None = None):
        if sigma2 <= 0:
            raise DomainError(f"sigma2 must be positive, got {sigma2}")
        self.sample = sample
        self.kind = kind
        self.sigma2 = float(sigma2)
        self.ctrl = ctrl or SeriesControl()
        self.Nm1, self.K = sample.Nm1, sample.K
        self.M = self.Nm1 * self.K
        self._W = np.stack([sc.W for _, sc in sample.items])     # (S, N-1, K)
        # Kotz T = 1 is the Gaussian
        self._gen = GeneratorSpec(GeneratorKind.KOTZ_TYPE_I, M=self.M, T=_KOTZ_SHAPE[kind])
        mode_log = -math.log(2.0) if sample.mode is Mode.NO_REFLECTION else 0.0
        for sid, sc in sample.items:
            if not math.isfinite(sc.log_jacobian):
                raise DomainError(f"specimen {sid!r} sits at a chart pole")
        self._const = (float(np.sum([sc.log_jacobian for _, sc in sample.items]))
                       + sample.size * (self._gen.log_norm_const - math.log(2.0)
                                        - self.M / 2.0 * math.log(self._gen.R)
                                        + mode_log))
        self._table = shared_sum_table(self.K, self.ctrl.max_degree)
        tmax = self.ctrl.max_degree
        self._basis = binomial_basis(0, tmax + 1, self._gen.effective_T)
        # log Gamma(M/2 + t) / t!, the factor of c_t / t! and dc_t/dx / t!
        self._log_scale = np.array([math.lgamma(self.M / 2.0 + t) - math.lgamma(t + 1)
                                    for t in range(tmax + 1)])

    def _series(self, mu: np.ndarray):
        """(log term per specimen and degree, log of each specimen's degree
        sum, x, gradient of the log-likelihood in mu) at location mu."""
        mu = np.asarray(mu, dtype=float).reshape(self.Nm1, self.K)
        x = float(np.sum(mu * mu)) / (2.0 * self.sigma2)
        G = self._W.transpose(0, 2, 1) @ mu                      # (S, K, K)
        X = G.transpose(0, 2, 1) @ G / (2.0 * self.sigma2)
        lam, V = np.linalg.eigh(X)
        spectra = np.clip(lam, 0.0, None)
        log_s, log_ds = self._table.logsums_and_partials(spectra)  # (S, tmax+1[, K])
        delta, delta_slope = coefficient_polynomial(self._gen, 2.0 * x)
        poly = self._basis @ delta
        sb = np.sign(poly)
        with np.errstate(divide="ignore"):
            log_coef = self._log_scale + np.log(np.abs(poly))    # log |c_t(x)| / t!
        logs = log_s + log_coef[None, :]
        total_log, total_sign = signed_logsumexp(logs, np.broadcast_to(sb, logs.shape))
        if np.any(total_sign <= 0):
            bad = int(np.argmax(total_sign <= 0))
            raise NumericError(
                f"specimen {self.sample.items[bad][0]!r}: series summed to a "
                "non-positive value", row=bad)
        # L_i = log sum_t c_t(x) S_t(X_i) / t! - x. Through x: the share of
        # dc_t/dx = Gamma(M/2 + t) 2 dP/db, taken directly because c_t itself
        # can vanish for Kotz; through X_i: the spectral derivative
        # V diag(dL_i/dlambda) V' of a symmetric function
        slope = 2.0 * (self._basis @ delta_slope)
        dx = np.sum(slope * np.exp(log_s + self._log_scale - total_log[:, None]))
        dlam = np.einsum("t,stk->sk", sb, np.exp(
            log_ds + log_coef[None, :, None] - total_log[:, None, None]))
        dX = (V * dlam[:, None, :]) @ V.transpose(0, 2, 1)       # (S, K, K)
        gradient = ((dx - self.sample.size) * mu
                    + np.sum(self._W @ (G @ dX), axis=0)) / self.sigma2
        return logs, total_log, x, gradient

    def per_specimen(self, mu: np.ndarray) -> np.ndarray:
        """Log density of each specimen at location mu."""
        _, total_log, x, _ = self._series(mu)
        return total_log - x

    def loglik(self, mu: np.ndarray) -> float:
        return self._const + float(np.sum(self.per_specimen(mu)))

    def loglik_and_grad(self, mu: np.ndarray) -> tuple[float, np.ndarray]:
        """:meth:`loglik` (the same value, bit for bit) and its (N-1, K)
        gradient in mu, from one pass of the zonal kernel."""
        _, total_log, x, gradient = self._series(mu)
        return self._const + float(np.sum(total_log - x)), gradient

    def check_converged(self, mu: np.ndarray, rel_tol: float = 1e-8) -> None:
        """Raise if at mu some specimen's degree-max_degree term exceeds
        ``rel_tol`` times its truncated degree sum."""
        logs, total_log, _, _ = self._series(mu)
        tail = float(np.max(logs[:, -1] - total_log))
        if tail > math.log(rel_tol):
            raise SeriesTruncationError(
                f"degree-{self.ctrl.max_degree} truncation leaves a relative "
                f"tail of exp({tail:.3g}); raise max_degree")


def log_likelihood(sample: SampleOfShapes, mu: np.ndarray, sigma2: float,
                   kind: IsotropicKind, ctrl: SeriesControl | None = None) -> float:
    """Sum of isotropic shape log densities over the sample's specimens."""
    return IsotropicLikelihood(sample, kind, sigma2, ctrl).loglik(mu)


def bic_star(loglik: float, n_params: int, sample_size: int) -> float:
    """Modified BIC: -2 loglik + n_params (log(n + 2) - log 24)."""
    if sample_size < 1:
        raise DomainError(f"sample_size must be >= 1, got {sample_size}")
    if n_params < 0:
        raise DomainError(f"n_params must be >= 0, got {n_params}")
    return -2.0 * loglik + n_params * (math.log(sample_size + 2.0) - math.log(24.0))


class EvidenceGrade(Enum):
    WEAK = "Weak"
    POSITIVE = "Positive"
    STRONG = "Strong"
    VERY_STRONG = "VeryStrong"


def evidence_grade(delta_bic: float) -> EvidenceGrade:
    """Grade of evidence for a BIC difference; boundaries go to the lower band."""
    if delta_bic < 0:
        raise DomainError(f"delta_bic must be non-negative, got {delta_bic}")
    if delta_bic <= 2.0:
        return EvidenceGrade.WEAK
    if delta_bic <= 6.0:
        return EvidenceGrade.POSITIVE
    if delta_bic <= 10.0:
        return EvidenceGrade.STRONG
    return EvidenceGrade.VERY_STRONG


@dataclass(frozen=True)
class _Minimum:
    """Where one BFGS start stopped; ``converged`` means the gradient test
    was met there."""

    x: np.ndarray
    value: float
    converged: bool
    evaluations: int


def _minimize_bfgs(fun, x0: np.ndarray) -> _Minimum:
    """Minimize ``fun(x) -> (value, gradient)`` from x0 by BFGS.

    A dense inverse Hessian, scaled by s'y / y'y before its first update,
    and a strong-Wolfe line search (Nocedal and Wright, Numerical
    Optimization, 2nd ed., Alg. 6.1 with Alg. 3.5 and 3.6). The first trial
    step has length 1. The run stops once no gradient component exceeds
    ``_GTOL`` (converged), after ``_MAX_EVALUATIONS`` evaluations, or when a
    line search finds no acceptable step.
    """
    evaluations = 0

    def evaluate(x):
        nonlocal evaluations
        evaluations += 1
        value, grad = fun(x)
        return float(value), np.asarray(grad, dtype=float)

    x = np.asarray(x0, dtype=float).copy()
    f, g = evaluate(x)
    H = np.eye(x.size)
    first = True
    while np.max(np.abs(g)) > _GTOL and evaluations < _MAX_EVALUATIONS:
        p = -H @ g
        alpha = min(1.0, 1.0 / float(np.linalg.norm(p))) if first else 1.0
        step = _wolfe_search(evaluate, _MAX_EVALUATIONS - evaluations,
                             x, f, p, float(g @ p), alpha)
        if step is None:
            break
        x_new, f, g_new = step
        s, y = x_new - x, g_new - g
        x, g = x_new, g_new
        sy = float(s @ y)
        if sy <= 0.0:
            continue
        if first:
            H *= sy / float(y @ y)
            first = False
        rho = 1.0 / sy
        Hy = H @ y
        H += ((rho * rho * float(y @ Hy) + rho) * np.outer(s, s)
              - rho * (np.outer(Hy, s) + np.outer(s, Hy)))
    return _Minimum(x, f, bool(np.max(np.abs(g)) <= _GTOL), evaluations)


def _wolfe_search(evaluate, budget, x, f0, p, slope0, alpha):
    """(x + alpha p, value, gradient) at a step alpha meeting the strong
    Wolfe conditions along the descent direction p, or None when none is
    found within ``_LINE_SEARCH_TRIALS`` trials or ``budget`` evaluations.
    A non-finite value, or a :class:`NumericError` (a likelihood series
    that sums to a non-positive value there), counts as too long a step."""
    lo = (0.0, f0, slope0)          # (step, value, slope) of the best step so far
    hi = None                       # the bracket's other end, once there is one
    for _ in range(min(_LINE_SEARCH_TRIALS, budget)):
        if hi is not None:
            alpha = _cubic_step(lo, hi)
        xa = x + alpha * p
        try:
            value, grad = evaluate(xa)
        except NumericError:
            value, d = math.inf, math.nan
        else:
            d = float(grad @ p)
        if not value <= f0 + _WOLFE_C1 * alpha * slope0 or value >= lo[1]:
            hi = (alpha, value, d)
        elif abs(d) <= -_WOLFE_C2 * slope0:
            return xa, value, grad
        else:
            # the value rises from alpha towards the far end (while
            # extrapolating, towards +inf): the minimum lies between lo and alpha
            far = math.inf if hi is None else hi[0]
            if d * (far - lo[0]) >= 0.0:
                hi = lo
            lo = (alpha, value, d)
            if hi is None:
                alpha *= 2.0
    return None


def _cubic_step(lo, hi) -> float:
    """Minimizer of the cubic through two (step, value, slope) points,
    kept at least a tenth of the bracket from either end (bisection when
    the cubic has no usable minimizer)."""
    (a, fa, da), (b, fb, db) = lo, hi
    width = b - a
    if math.isfinite(fb) and math.isfinite(db):
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        disc = d1 * d1 - da * db
        if disc >= 0.0:
            d2 = math.copysign(math.sqrt(disc), width)
            denom = db - da + 2.0 * d2
            if denom != 0.0:
                c = b - width * (db + d2 - d1) / denom
                if 0.1 <= (c - a) / width <= 0.9:
                    return c
    return a + 0.5 * width


def _canonical_sign(mu: np.ndarray) -> np.ndarray:
    flat = mu.reshape(-1)
    nz = flat[flat != 0]
    if nz.size and nz[0] < 0:
        return -mu
    return mu


def fit_location(sample: SampleOfShapes, kind: IsotropicKind,
                 sigma2_fixed: float, opt: OptimizerConfig | None = None,
                 ctrl: SeriesControl | None = None) -> FitResult:
    """Maximum-likelihood location fit with sigma^2 fixed by protocol.

    Multi-start BFGS on the exact log-likelihood gradient
    (:meth:`IsotropicLikelihood.loglik_and_grad`); each start stops once no
    gradient component exceeds 1e-6. Start 0 is the moment seed
    mean_i(r_i W_i) (an unbiased location estimate up to the rotation orbit),
    the rest are seeded perturbations. ``evaluations`` counts the
    value-and-gradient evaluations over all starts, and ``converged`` is the
    best start's status. The fit has (N-1)K parameters: the likelihood
    depends on (mu, sigma^2) only through mu / sigma, so shapes alone do not
    identify sigma^2.
    """
    opt = opt or OptimizerConfig()
    like = IsotropicLikelihood(sample, kind, sigma2_fixed, ctrl)
    Nm1, K = sample.Nm1, sample.K
    n_loc = Nm1 * K
    seed0 = np.mean([sc.r * sc.W for _, sc in sample.items], axis=0)
    rng = np.random.Generator(np.random.Philox(opt.seed))
    scale = 0.25 * float(np.linalg.norm(seed0)) / math.sqrt(n_loc) \
        + math.sqrt(sigma2_fixed / sample.size)
    starts = [seed0.reshape(-1)]
    for _ in range(opt.n_starts - 1):
        starts.append(seed0.reshape(-1) + rng.normal(scale=scale, size=n_loc))

    def objective(theta):
        value, grad = like.loglik_and_grad(theta)
        return -value, -grad.reshape(-1)

    runs = [_minimize_bfgs(objective, x0) for x0 in starts]
    best = min(runs, key=lambda run: run.value)
    mu_hat = best.x.reshape(Nm1, K)
    like.check_converged(mu_hat)
    loglik = -best.value
    return FitResult(mu_hat=_canonical_sign(mu_hat), sigma2=sigma2_fixed,
                     loglik=loglik, n_params=n_loc,
                     bic_star=bic_star(loglik, n_loc, sample.size),
                     converged=best.converged,
                     evaluations=sum(run.evaluations for run in runs))


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    df: int
    p_value: float
    fit_pooled: FitResult
    fit_group1: FitResult
    fit_group2: FitResult


def lr_test_equal_means(sample1: SampleOfShapes, sample2: SampleOfShapes,
                        kind: IsotropicKind, sigma2_fixed: float,
                        opt: OptimizerConfig | None = None,
                        ctrl: SeriesControl | None = None) -> LrTestResult:
    """Likelihood-ratio test of equal locations across two groups.

    H0 fits one pooled mu, H1 fits each group separately; the statistic
    2 (loglik_H1 - loglik_H0) is referred to chi-square with (N-1)K degrees
    of freedom. A statistic below -1e-6 means an optimizer failure (the
    models are nested) and raises instead of returning a bogus p-value.
    """
    if (sample1.Nm1, sample1.K, sample1.mode) != (sample2.Nm1, sample2.K, sample2.mode):
        raise DomainError("groups must share N, K and mode")
    pooled = sample1.merged(sample2, f"{sample1.group_id}+{sample2.group_id}")
    fit0 = fit_location(pooled, kind, sigma2_fixed, opt, ctrl)
    fit1 = fit_location(sample1, kind, sigma2_fixed, opt, ctrl)
    fit2 = fit_location(sample2, kind, sigma2_fixed, opt, ctrl)
    stat = 2.0 * (fit1.loglik + fit2.loglik - fit0.loglik)
    if stat < -1e-6:
        raise NumericError(
            f"nested fits gave a negative LR statistic ({stat:.3g}); "
            "the pooled optimizer likely failed")
    stat = max(stat, 0.0)
    df = sample1.Nm1 * sample1.K
    return LrTestResult(statistic=stat, df=df,
                        p_value=chi_square_sf(stat, df),
                        fit_pooled=fit0, fit_group1=fit1, fit_group2=fit2)
