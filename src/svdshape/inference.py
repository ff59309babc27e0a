"""Likelihood inference on samples of shapes: location MLE, modified BIC
model selection, evidence grading, and the two-group likelihood-ratio test.

Fits are isotropic: Sigma = sigma^2 I, Theta = I and sigma^2 fixed in
advance, under any :class:`GeneratorSpec`; the paper's protocol ranks three
Kotz generators at R = 1/2 (:class:`IsotropicKind`). The likelihood
(:class:`ShapeLikelihood`) sums the exact shape densities: closed form at
K = 2, a series that raises where it does not converge at K = 3, so no fit
is truncated silently. It depends on (mu, sigma^2) only
through mu / sigma, loglik(c mu, c^2 sigma^2) = loglik(mu, sigma^2) for
c > 0, so shapes alone do not identify sigma^2 and the protocol fixes it;
and on mu only through mu' W_i W_i' mu and tr mu' mu, so mu is identified up
to a right O(K) factor, reported with a fixed sign canonicalization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .densities import _frame_terms, _shape_log_series
from .errors import DomainError, NumericError, SeriesTruncationError
from .geometry import SampleOfShapes
from .models import GeneratorSpec, IsotropicKind
from .special import chi_square_sf
from .zonal import SeriesControl

# a start stops once no component of the log-likelihood gradient exceeds this
_GTOL = 1e-6
# cap on the value-and-gradient evaluations (and iterations) of one start
_MAX_EVALUATIONS = 50000
# strong-Wolfe constants of the line search: sufficient decrease, curvature
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
# trial steps one line search may evaluate before it gives up
_LINE_SEARCH_TRIALS = 40
# relative rounding noise of a log-likelihood value: a converged start this
# close to the lowest value is preferred to an unconverged one below it
_VALUE_NOISE = 1e-10


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


class ShapeLikelihood:
    """Log-likelihood of a sample of shapes in the location mu, under a
    generator with Sigma = sigma^2 I and Theta = I: the sum of the shape log
    densities of :func:`svdshape.densities.shape_logdensities`, from the
    same series on W_i and the same assembly of a_i = tr W_i W_i' / sigma^2
    and the constant terms, fixed per sample. At K = 3 each specimen's
    series stops at its own degree, and :class:`SeriesTruncationError` names
    its ``row`` past ``ctrl.max_degree`` or the kernel's degree cap.
    """

    def __init__(self, sample: SampleOfShapes, generator: GeneratorSpec,
                 sigma2: float, ctrl: SeriesControl | None = None):
        if not 0 < sigma2 < math.inf or generator.M != sample.Nm1 * sample.K:
            raise DomainError(f"need finite sigma2 > 0 and M = (N-1)K, "
                              f"got {sigma2} and M={generator.M}")
        for sid, sc in sample.items:
            if not math.isfinite(sc.log_jacobian):
                raise DomainError(f"specimen {sid!r} sits at a chart pole")
        self.sample, self.generator = sample, generator
        self.sigma2, self.ctrl = float(sigma2), ctrl
        self._W = np.stack([sc.W for _, sc in sample.items])     # (S, N-1, K)
        self._a, const = _frame_terms(
            self._W, np.array([sc.log_jacobian for _, sc in sample.items]),
            np.eye(sample.Nm1) / self.sigma2, sample.Nm1 * math.log(self.sigma2))
        self._const = math.fsum(const)

    def _series(self, mu: np.ndarray, partials: bool):
        mu = np.asarray(mu, dtype=float).reshape(self.sample.Nm1, self.sample.K)
        G = np.einsum("nk,snj->skj", mu, self._W) / self.sigma2
        out = _shape_log_series(self.generator, G, self._a,
                                float(np.sum(mu * mu)) / self.sigma2, self.ctrl, partials)
        return mu, self._const + float(np.sum(out[0])), out[3:]

    def loglik(self, mu: np.ndarray) -> float:
        return self._series(mu, partials=False)[1]

    def loglik_and_grad(self, mu: np.ndarray) -> tuple[float, np.ndarray]:
        """:meth:`loglik` (the same value, bit for bit) and its (N-1, K)
        gradient in mu, through dG_i/dmu and db/dmu = 2 mu / sigma^2."""
        mu, value, (d_G, d_b) = self._series(mu, partials=True)
        return value, (np.einsum("skj,snj->nk", d_G, self._W)
                       + 2.0 * float(np.sum(d_b)) * mu) / self.sigma2


def log_likelihood(sample: SampleOfShapes, mu: np.ndarray, sigma2: float,
                   kind: IsotropicKind, ctrl: SeriesControl | None = None) -> float:
    """Sum of the sample's shape log densities under one of the paper's three
    generators: a shorthand for :class:`ShapeLikelihood` of ``kind.generator(M)``."""
    return ShapeLikelihood(sample, kind.generator(sample.Nm1 * sample.K),
                           sigma2, ctrl).loglik(mu)


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
    found within ``_LINE_SEARCH_TRIALS`` trials or ``budget`` evaluations,
    or once the bracket has collapsed to one step.
    A non-finite value, :class:`NumericError` or :class:`SeriesTruncationError`
    (a likelihood series that fails there) counts as too long a step."""
    lo = (0.0, f0, slope0)          # (step, value, slope) of the best step so far
    hi = None                       # the bracket's other end, once there is one
    for _ in range(min(_LINE_SEARCH_TRIALS, budget)):
        if hi is not None:
            if hi[0] == lo[0]:
                return None
            alpha = _cubic_step(lo, hi)
        xa = x + alpha * p
        try:
            value, grad = evaluate(xa)
        except (NumericError, SeriesTruncationError):
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


def fit_location(sample: SampleOfShapes, generator: GeneratorSpec,
                 sigma2_fixed: float, opt: OptimizerConfig | None = None,
                 ctrl: SeriesControl | None = None) -> FitResult:
    """Maximum-likelihood location fit under ``generator`` (of dimension
    M = (N-1)K) with sigma^2 fixed by protocol.

    Multi-start BFGS on the exact log-likelihood gradient
    (:meth:`ShapeLikelihood.loglik_and_grad`); each start stops once no
    gradient component exceeds 1e-6. Start 0 is the moment seed
    mean_i(r_i W_i) (an unbiased location estimate up to the rotation orbit),
    each other start adds N(0, scale^2) noise from ``random.Random(opt.seed)``.
    A start whose first evaluation raises :class:`NumericError` or
    :class:`SeriesTruncationError` fails; the fit raises the first start's
    error only when every start fails. ``evaluations`` counts the
    value-and-gradient evaluations over all starts, failed ones included, and
    ``converged`` is the best start's status. The best start is the lowest
    converged one within rounding noise (``_VALUE_NOISE`` relative) of the
    lowest value among the starts that ran, else the lowest. The fit has
    (N-1)K parameters: the likelihood depends on (mu, sigma^2) only through
    mu / sigma, so shapes alone do not identify sigma^2.
    """
    opt = opt or OptimizerConfig()
    Nm1, K = sample.Nm1, sample.K
    n_loc = Nm1 * K
    like = ShapeLikelihood(sample, generator, sigma2_fixed, ctrl)
    seed0 = np.mean([sc.r * sc.W for _, sc in sample.items], axis=0).reshape(-1)
    rng = random.Random(opt.seed)
    scale = 0.25 * float(np.linalg.norm(seed0)) / math.sqrt(n_loc) \
        + math.sqrt(sigma2_fixed / sample.size)
    starts = [seed0] + [seed0 + np.array([rng.gauss(0.0, scale) for _ in range(n_loc)])
                        for _ in range(opt.n_starts - 1)]

    def objective(theta):
        value, grad = like.loglik_and_grad(theta)
        return -value, -grad.reshape(-1)

    runs, failures = [], []
    for x0 in starts:
        try:
            runs.append(_minimize_bfgs(objective, x0))
        except (NumericError, SeriesTruncationError) as exc:
            failures.append(exc)        # at the start point, its one evaluation
    if not runs:
        raise failures[0]
    lowest = min(run.value for run in runs)
    near = lowest + _VALUE_NOISE * max(1.0, abs(lowest))
    best = min([run for run in runs if run.converged and run.value <= near] or runs,
               key=lambda run: run.value)
    loglik = -best.value
    return FitResult(mu_hat=_canonical_sign(best.x.reshape(Nm1, K)), sigma2=sigma2_fixed,
                     loglik=loglik, n_params=n_loc,
                     bic_star=bic_star(loglik, n_loc, sample.size),
                     converged=best.converged,
                     evaluations=sum(run.evaluations for run in runs) + len(failures))


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    df: int
    p_value: float
    fit_pooled: FitResult
    fit_group1: FitResult
    fit_group2: FitResult


def lr_test_equal_means(sample1: SampleOfShapes, sample2: SampleOfShapes,
                        generator: GeneratorSpec, sigma2_fixed: float,
                        opt: OptimizerConfig | None = None,
                        ctrl: SeriesControl | None = None) -> LrTestResult:
    """Likelihood-ratio test of equal locations across two groups, under
    one ``generator``.

    H0 fits one pooled mu, H1 fits each group separately; the statistic
    2 (loglik_H1 - loglik_H0) is referred to chi-square with (N-1)K degrees
    of freedom. A statistic below -1e-6 means an optimizer failure (the
    models are nested) and raises instead of returning a bogus p-value. The
    ``row`` of a likelihood error numbers the specimens of the pooled sample,
    group 1's first.
    """
    if (sample1.Nm1, sample1.K) != (sample2.Nm1, sample2.K):
        raise DomainError("groups must share N and K")
    pooled = sample1.merged(sample2, f"{sample1.group_id}+{sample2.group_id}")
    fit0 = fit_location(pooled, generator, sigma2_fixed, opt, ctrl)
    fit1 = fit_location(sample1, generator, sigma2_fixed, opt, ctrl)
    try:
        fit2 = fit_location(sample2, generator, sigma2_fixed, opt, ctrl)
    except (SeriesTruncationError, NumericError) as exc:
        if exc.row is not None:
            exc.row += sample1.size
        raise
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
