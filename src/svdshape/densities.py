"""Exact size-and-shape and shape densities as truncated zonal series.

Conventions. A centered, column-whitened configuration Y is (N-1) x K with
n = min(N-1, K) = K and total dimension M = (N-1)K. The shape density lives
on the box of m = M - 1 generalized polar angles (first m-1 in [0, pi], last
in [0, 2 pi)) and is the exact law of the angles of vec(Y')/||Y|| for a
configuration whose rotation H has been uniformized over O(K); it depends on
the angles only through W W', so it takes the same value on the SVD chart.
The size-and-shape density is the O(K) average of the configuration density
and lives on rotation-quotient representatives Rmat = V' D.

At K = 2 the shape density sums no series: it is e^z times a polynomial
in z, summed over two values of z (:func:`_planar_log_series`).

All series coefficients, gamma factors and prefactors are handled in log
space with sign tracking. No-reflection mode divides every density by 2 (the
excluding-reflection law keeps the same representative chart, each reflection
orbit carrying half the mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .geometry import Mode, angles_to_frame, log_polar_jacobian
from .models import ModelSpec, binomial_basis, coefficient_polynomial, h_log_value
from .special import LogSign
from .zonal import (SeriesControl, check_cancellation, signed_logsumexp, zonal_series,
                    zonal_series_batch)


class IsotropicKind(Enum):
    """Closed-bracket isotropic families with sigma^2 I covariance, R = 1/2."""

    GAUSSIAN = "gaussian"
    KOTZ_T2 = "kotz-t2"
    KOTZ_T3 = "kotz-t3"


@dataclass(frozen=True)
class DensityValue:
    """A log density plus the truncation diagnostics of its zonal series."""

    log_density: float
    degrees_used: int
    tail_bound: float
    mode: Mode

    @property
    def density(self) -> float:
        return math.exp(self.log_density)


def _mode_log_factor(mode: Mode) -> float:
    return -math.log(2.0) if mode is Mode.NO_REFLECTION else 0.0


def _noncentrality_factor(model: ModelSpec, F: np.ndarray) -> np.ndarray:
    """G = mu' Sigma^{-1} F (K x K, mu column-whitened) for each (N-1) x K
    matrix F of a (batch, N-1, K) array."""
    return np.einsum("nk,snj->skj", model.sigma_inv @ model.mu_whitened, F)


def _noncentrality_spectra(model: ModelSpec, F: np.ndarray) -> np.ndarray:
    """Eigenvalues of Omega Sigma^{-1} F F' for each (N-1) x K matrix F of a
    (batch, N-1, K) array, as the spectra of G G' with G from
    :func:`_noncentrality_factor` (same nonzero eigenvalues, real and
    non-negative)."""
    G = _noncentrality_factor(model, F)
    return np.clip(np.linalg.eigvalsh(G @ G.transpose(0, 2, 1)), 0.0, None)


def _chart(u: np.ndarray, Nm1: int, K: int, batch: bool = False):
    """(W, log J(u)) of m = (N-1) K - 1 angles, or of a (batch, m) array with
    ``batch``, after checking that they lie on the chart box."""
    u = np.asarray(u, dtype=float)
    m = Nm1 * K - 1
    if u.ndim != 1 + batch or u.shape[-1] != m:
        raise DomainError(f"expected {'(batch, m)' if batch else 'm'} angles with "
                          f"m = {m}, got shape {u.shape}")
    upper = np.full(m, math.pi)
    upper[-1] = 2 * math.pi
    if not np.all((u >= 0) & (u <= upper)):
        raise DomainError("angles must lie in [0,pi]^(m-1) x [0,2pi]")
    return angles_to_frame(u, Nm1, K), log_polar_jacobian(u)


def size_and_shape_logdensity(Rmat: np.ndarray, model: ModelSpec,
                              mode: Mode = Mode.REFLECTION,
                              ctrl: SeriesControl | None = None) -> DensityValue:
    """Log density of the size-and-shape representative Rmat = V' D ((N-1) x K).

    g(Rmat) = |Sigma|^{-K/2} sum_t h^{(2t)}(tr Sigma^{-1} Rmat Rmat'
    + tr Omega) S_t(Omega Sigma^{-1} Rmat Rmat') / t!, with
    S_t = sum_{|kappa|=t} C_kappa / (K/2)_kappa; doubled in no-reflection mode.
    """
    Rmat = np.asarray(Rmat, dtype=float)
    if Rmat.shape != (model.Nm1, model.K):
        raise DomainError(f"Rmat must be (N-1) x K = ({model.Nm1}, {model.K})")
    y0 = float(np.trace(model.sigma_inv @ Rmat @ Rmat.T)) + model.trace_omega
    gen = model.generator
    delta = coefficient_polynomial(gen, y0, radial=False)[0]

    def coeff_block(lo: int, hi: int) -> tuple[np.ndarray, ...]:
        # h^(2t)(y0) = e^(log_norm_const - R y0) R^(2t) P(t)
        return _polynomial_block(delta, lo, hi, gen.log_norm_const - gen.R * y0
                                 + 2.0 * math.log(gen.R) * np.arange(lo, hi))

    log, sign, used, tail = zonal_series_batch(
        coeff_block, _noncentrality_spectra(model, Rmat[None]), model.K / 2.0, ctrl)
    if sign[0] <= 0.0:
        raise DomainError("size-and-shape series summed to a non-positive value")
    log = (-model.K / 2.0 * model.log_det_sigma + float(log[0])
           + _mode_log_factor(mode))
    return DensityValue(log, int(used[0]), float(tail[0]), mode)


def _polynomial_block(delta: np.ndarray, lo: int, hi: int, log_factor
                      ) -> tuple[np.ndarray, ...]:
    """The coefficient block of :func:`zonal_series_batch` for
    c_t = e^log_factor P(t), t = lo..hi-1, with P(t) = sum_j delta_j binom(t, j)
    from :func:`coefficient_polynomial`: (log |c_t|, sign c_t, log m_t) with
    the magnitudes m_t = e^log_factor sum_j |delta_j| binom(t, j)."""
    basis = binomial_basis(lo, hi, len(delta))
    p = basis @ delta
    with np.errstate(divide="ignore"):
        return (log_factor + np.log(np.abs(p)), np.sign(p),
                log_factor + np.log(basis @ np.abs(delta)))


def central_size_and_shape_logdensity(Rmat: np.ndarray, model: ModelSpec,
                                      mode: Mode = Mode.REFLECTION) -> DensityValue:
    """Central (mu = 0) size-and-shape log density: |Sigma|^{-K/2} h(tr Sigma^{-1} R R')."""
    Rmat = np.asarray(Rmat, dtype=float)
    if Rmat.shape != (model.Nm1, model.K):
        raise DomainError(f"Rmat must be (N-1) x K = ({model.Nm1}, {model.K})")
    y0 = float(np.trace(model.sigma_inv @ (Rmat @ Rmat.T)))
    h = h_log_value(model.generator, y0)
    if h.sign <= 0.0:
        raise DomainError("generator vanished at the evaluation point")
    log = -model.K / 2.0 * model.log_det_sigma + h.log + _mode_log_factor(mode)
    return DensityValue(log, 0, 0.0, mode)


def shape_logdensity(u: np.ndarray, model: ModelSpec,
                     mode: Mode = Mode.REFLECTION,
                     ctrl: SeriesControl | None = None) -> DensityValue:
    """Log shape density at the angle vector u (length M - 1): the batch of
    one of :func:`shape_logdensities`, whose formula and errors it shares."""
    if np.ndim(u) != 1:
        raise DomainError(f"expected one vector of m = M - 1 angles, got shape {np.shape(u)}")
    log, used, tail = shape_logdensities(np.reshape(u, (1, -1)), model, mode, ctrl)
    return DensityValue(float(log[0]), int(used[0]), float(tail[0]), mode)


def shape_logdensities(U: np.ndarray, model: ModelSpec,
                       mode: Mode = Mode.REFLECTION, ctrl: SeriesControl | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log shape density at each row of a (batch, M - 1) angle array, with the
    truncation diagnostics of its series: (log density, degrees used, tail
    bound), each (batch,).

    f(u) = J(u) |Sigma|^{-K/2} sum_t [S_t(Omega Sigma^{-1} W W') / t!]
    int_0^inf r^{M+2t-1} h^{(2t)}(r^2 a + b) dr with
    S_t = sum_{|kappa|=t} C_kappa / (K/2)_kappa, a = tr Sigma^{-1} W W' and
    b = tr Omega. The exact scaling int r^{q-1} h^{(2t)}(a r^2 + b) dr
    = a^{-q/2} int s^{q-1} h^{(2t)}(s^2 + b) ds leaves one polynomial P(t)
    of degree at most T - 1 for the whole batch
    (:func:`coefficient_polynomial`), and every row's series is summed by one
    :func:`zonal_series_batch` call, which raises
    :class:`SeriesTruncationError` with the ``row`` that did not converge
    and :class:`NumericError` with the ``row`` whose signed Kotz series lost
    too many digits to cancellation. At K = 2 the series has a closed form
    (:func:`_planar_log_series`): no degree is summed, and every row reports
    0 degrees and tail bound 0.
    """
    K, M = model.K, model.M
    W, log_j = _chart(U, model.Nm1, K, batch=True)
    a = np.einsum("ab,sak,sbk->s", model.sigma_inv, W, W)
    if K == 2:
        log = _planar_log_series(model, W, a)
        used, tail = np.zeros(len(log), dtype=int), np.zeros(len(log))
    else:
        gen, b = model.generator, model.trace_omega
        delta = coefficient_polynomial(gen, b)[0]
        log_r, log_a = math.log(gen.R), np.log(a)[:, None]
        base = gen.log_norm_const - gen.R * b - M / 2.0 * log_r - math.log(2.0)

        def coeff_block(lo: int, hi: int) -> tuple[np.ndarray, ...]:
            # e^(log_norm_const - R b) R^(t - M/2) Gamma(M/2 + t) P(t) / 2,
            # times a^(-M/2 - t)
            t = np.arange(lo, hi)
            log_gamma = np.array([math.lgamma(M / 2.0 + i) for i in range(lo, hi)])
            return _polynomial_block(delta, lo, hi, base + t * log_r + log_gamma
                                     - (M / 2.0 + t) * log_a)

        log, sign, used, tail = zonal_series_batch(
            coeff_block, _noncentrality_spectra(model, W), K / 2.0, ctrl)
        if np.any(sign <= 0):
            raise DomainError("shape series summed to a non-positive value")
    return (log_j - K / 2.0 * model.log_det_sigma + log + _mode_log_factor(mode),
            used, tail)


def _planar_log_series(model: ModelSpec, W: np.ndarray, a: np.ndarray) -> np.ndarray:
    """log sum_t S_t(Omega Sigma^{-1} W W') / t! int_0^inf r^{M+2t-1}
    h^{(2t)}(r^2 a + b) dr at K = 2 for each (N-1) x 2 frame W of a batch,
    in closed form; ``a`` holds tr Sigma^{-1} W W' per frame.

    With n = M/2 = N - 1 (an integer), S_t = [s+^{2t} + s-^{2t}] / (2 t!)
    for s+ and s- the sum and the difference of the singular values of
    G = mu' Sigma^{-1} W (James, Ann. Math. Statist. 35, 1964):
    s+^2 = (g11 + g22)^2 + (g21 - g12)^2, s-^2 = (g11 - g22)^2 + (g12 + g21)^2
    (swapped when det G < 0, which the sum over both ignores). With the
    radial integrals of :func:`coefficient_polynomial` the series is
    e^{log_norm_const - R b} R^{-n} a^{-n} / 2 times
    (1/2) sum_+- sum_t Gamma(n + t) P(t) z^t / (t!)^2 at z = R s+-^2 / a, and
    P(t) = sum_j delta_j binom(t, j). Kummer's transformation and the
    Laguerre form of 1F1 (DLMF 13.2.39, 18.5.12) give
    sum_t Gamma(n + t) binom(t, j) z^t / (t!)^2
    = e^z Gamma(n + j) / j!^2 z^j sum_{k<n} C(n - 1, k) z^k / (j + 1)_k,
    so each +- term is e^z Q(z) for one polynomial Q of degree n + T - 2 with
    q_m = sum_{j+k=m} delta_j Gamma(n + j) C(n - 1, k) / (j! m!). Each Q(z)
    is summed in log space, so no power or coefficient overflows or
    underflows at any N, and z is added to its log only then: each log term
    carries a rounding error of eps times its size, which cancellation
    multiplies, so the terms leave z out. Raises
    :class:`DomainError` where the sum is not positive. For Kotz the q_m
    alternate in sign: the sum over |delta_j| over the sum gives the digits
    lost to cancellation, and too many raise :class:`NumericError`
    (:func:`check_cancellation`).
    """
    gen = model.generator
    n, R, b = model.Nm1, gen.R, model.trace_omega
    deltas = coefficient_polynomial(gen, b)[0]
    T = len(deltas)
    degree = n + T - 2
    lf = np.array([math.lgamma(i + 1.0) for i in range(degree + 2)])   # log i!
    j = np.arange(T)[:, None]
    m = np.arange(degree + 1)[None, :]
    k = np.clip(m - j, 0, n - 1)
    logs = lf[n + j - 1] + lf[n - 1] - lf[k] - lf[n - 1 - k] - lf[j] - lf[m]
    with np.errstate(divide="ignore"):
        logs = np.where((m - j >= 0) & (m - j < n), logs + np.log(np.abs(deltas))[:, None],
                        -np.inf)
    signs = np.broadcast_to(np.sign(deltas)[:, None], logs.shape)
    log_q, sign_q = signed_logsumexp(logs, signs, axis=0)

    G = _noncentrality_factor(model, W)
    g11, g12, g21, g22 = G[:, 0, 0], G[:, 0, 1], G[:, 1, 0], G[:, 1, 1]
    z = (R / a)[:, None] * np.stack([(g11 + g22) ** 2 + (g21 - g12) ** 2,
                                     (g11 - g22) ** 2 + (g12 + g21) ** 2], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_zm = np.where(m > 0, m * np.log(z)[:, :, None], 0.0)     # log z^m, z^0 = 1 at 0
    log_Q, sign_Q = signed_logsumexp(log_zm + log_q, sign_q, axis=2)
    log, sign = signed_logsumexp(z + log_Q, sign_Q, axis=1)
    if np.any(sign <= 0):
        raise DomainError("shape series summed to a non-positive value")
    if np.any(deltas < 0):
        # the same sum over |delta_j|, over the sum: the digits that the
        # alternating terms cancel
        log_abs_q = signed_logsumexp(logs, np.abs(signs), axis=0)[0]
        log_abs = signed_logsumexp((z[:, :, None] + log_zm + log_abs_q).reshape(len(z), -1),
                                   1.0, axis=1)[0]
        check_cancellation(log_abs, log)
    return (gen.log_norm_const - R * b - n * math.log(R) - 2.0 * math.log(2.0)
            - n * np.log(a) + log)


def central_shape_logdensity(u: np.ndarray, model: ModelSpec,
                             mode: Mode = Mode.REFLECTION) -> DensityValue:
    """Central shape log density; generator-free.

    f(u) = J(u) |Sigma|^{-K/2} a^{-M/2} Gamma(M/2) / (2 pi^{M/2}); for
    Sigma = sigma^2 I this is the uniform law on the angle box.
    """
    W, log_j = _chart(u, model.Nm1, model.K)
    a = float(np.trace(model.sigma_inv @ (W @ W.T)))
    M = model.M
    log = (log_j - model.K / 2.0 * model.log_det_sigma
           - M / 2.0 * math.log(a) + math.lgamma(M / 2.0)
           - math.log(2.0) - M / 2.0 * math.log(math.pi)
           + _mode_log_factor(mode))
    return DensityValue(log, 0, 0.0, mode)


def gaussian_shape_logdensity(u: np.ndarray, model: ModelSpec,
                              mode: Mode = Mode.REFLECTION,
                              ctrl: SeriesControl | None = None) -> DensityValue:
    """Gaussian shape log density with the radial integrals in closed form.

    f(u) = J(u) |Sigma|^{-K/2} (2 pi^{M/2})^{-1} e^{-R tr Omega}
    sum_t Gamma(M/2 + t) a^{-M/2-t} S_t(R Omega Sigma^{-1} W W') / t!.
    Requires a Gaussian generator (or Kotz with T = 1).
    """
    if model.generator.effective_T != 1:
        raise DomainError("gaussian_shape_logdensity needs a Gaussian-type generator")
    W, log_j = _chart(u, model.Nm1, model.K)
    a = float(np.trace(model.sigma_inv @ W @ W.T))
    b = model.trace_omega
    R = model.generator.R
    eigs = R * _noncentrality_spectra(model, W[None])[0]
    M = model.M
    log_a = math.log(a)

    def coeff(t: int) -> LogSign:
        return LogSign(math.lgamma(M / 2.0 + t) - (M / 2.0 + t) * log_a, 1.0)

    series = zonal_series(coeff, eigs, model.K / 2.0, ctrl)
    log = (log_j - model.K / 2.0 * model.log_det_sigma
           - math.log(2.0) - M / 2.0 * math.log(math.pi)
           - R * b + series.log + _mode_log_factor(mode))
    return DensityValue(log, series.degrees_used, series.tail_bound, mode)


def isotropic_shape_logdensity(u: np.ndarray, mu: np.ndarray, sigma2: float,
                               kind: IsotropicKind,
                               mode: Mode = Mode.REFLECTION,
                               ctrl: SeriesControl | None = None) -> DensityValue:
    """Shape log density under Sigma = sigma^2 I, Theta = I, R = 1/2.

    Single-series closed brackets with Q = M/2 + t and
    x = tr(mu' mu) / (2 sigma^2), X = mu' W W' mu / (2 sigma^2):
      Gaussian:  pref 1,            B = Gamma(Q)
      Kotz T=2:  pref 2/M,          B = Gamma(Q) (M/2 + x - t)
      Kotz T=3:  pref 4/(M(M+2)),   B = Gamma(Q) [(M/2 + x - t)^2 + M/2 - t]
    f = J(u) (2 pi^{M/2})^{-1} pref e^{-x} sum_t B(t,x) S_t(X) / t!.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2:
        raise DomainError("mu must be an (N-1) x K matrix")
    if sigma2 <= 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    Nm1, K = mu.shape
    M = Nm1 * K
    W, log_j = _chart(u, Nm1, K)
    X = (mu.T @ W) @ (W.T @ mu) / (2.0 * sigma2)
    eigs = np.clip(np.linalg.eigvalsh(0.5 * (X + X.T)), 0.0, None)
    x = float(np.sum(mu * mu)) / (2.0 * sigma2)
    ctrl = ctrl or SeriesControl()
    log_pref, log_b, sign_b = _isotropic_bracket(kind, M, x, ctrl.max_degree)
    series = zonal_series(lambda t: LogSign(log_b[t], sign_b[t]), eigs, K / 2.0, ctrl)
    if series.sign <= 0.0:
        raise DomainError("isotropic shape series summed to a non-positive value")
    log = (log_j - math.log(2.0) - M / 2.0 * math.log(math.pi)
           + log_pref - x + series.log + _mode_log_factor(mode))
    return DensityValue(log, series.degrees_used, series.tail_bound, mode)


def batch_shape_logdensity(U: np.ndarray, model: ModelSpec,
                           mode: Mode = Mode.REFLECTION,
                           ctrl: SeriesControl | None = None) -> np.ndarray:
    """Shape log density at many angle vectors at once; returns (batch,).
    The log densities of :func:`shape_logdensities`, the same values as
    :func:`shape_logdensity` row by row."""
    return shape_logdensities(U, model, mode, ctrl)[0]


def _isotropic_bracket(kind: IsotropicKind, M: int, x: float, tmax: int):
    """(log prefactor, log |B(t, x)|, sign B(t, x)) of the closed brackets,
    the last two as arrays over t = 0..tmax.

    B(t, x) = Gamma(M/2 + t) p_t(x) with p_t = 1 (Gaussian), M/2 + x - t
    (Kotz T=2) or (M/2 + x - t)^2 + M/2 - t (Kotz T=3)."""
    ts = np.arange(tmax + 1, dtype=float)
    lg = np.array([math.lgamma(M / 2.0 + t) for t in range(tmax + 1)])
    if kind is IsotropicKind.GAUSSIAN:
        return 0.0, lg, np.ones_like(ts)
    if kind is IsotropicKind.KOTZ_T2:
        log_pref, poly = math.log(2.0 / M), M / 2.0 + x - ts
    elif kind is IsotropicKind.KOTZ_T3:
        log_pref = math.log(4.0 / (M * (M + 2.0)))
        poly = (M / 2.0 + x - ts) ** 2 + (M / 2.0 - ts)
    else:
        raise DomainError(f"unknown isotropic kind {kind!r}")
    return log_pref, lg + np.log(np.abs(np.where(poly == 0, 1.0, poly))), np.sign(poly)
