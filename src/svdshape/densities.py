"""Exact size-and-shape and shape densities as truncated zonal series.

Conventions. A centered, column-whitened configuration Y is (N-1) x K with
K >= 2, N-1 >= K and total dimension M = (N-1)K. The shape density lives
on the box of m = M - 1 generalized polar angles (first m-1 in [0, pi], last
in [0, 2 pi)) and is the exact law of the angles of vec(Y')/||Y|| for a
configuration whose rotation H has been uniformized over O(K); it depends on
the angles only through W W', so it takes the same value on the SVD chart.
The size-and-shape density is the O(K) average of the configuration density
and lives on rotation-quotient representatives Rmat = V' D.

At K = 2 the shape density sums no series: it is e^z times a polynomial
in z, summed over two values of z (:func:`_planar_log_series`). At a zero
mu no density sums one, at any K: the central law is its t = 0 term.

All series coefficients, gamma factors and prefactors are handled in log
space with sign tracking. Every density is that of the reflection shape: the
no-reflection law gives each reflection orbit half the mass, so its log
density is the reflection one minus log 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .geometry import angles_to_frame, check_shape_size, log_polar_jacobian
from .models import (GeneratorSpec, ModelSpec, _centered_table, binomial_basis,
                     coefficient_polynomial, h_log_value)
from .zonal import (SeriesControl, _log_factorials, check_cancellation, degree_cap,
                    log_partials, logsums, zonal_series_batch)


@dataclass(frozen=True)
class DensityValue:
    """A log density plus the truncation diagnostics of its zonal series."""

    log_density: float
    degrees_used: int
    tail_bound: float

    @property
    def density(self) -> float:
        return math.exp(self.log_density)


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
    ``batch``, after checking the size and that they lie on the chart box."""
    u = np.asarray(u, dtype=float)
    check_shape_size(Nm1, K)
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
                              ctrl: SeriesControl | None = None) -> DensityValue:
    """Log density of the size-and-shape representative Rmat = V' D ((N-1) x K).

    g(Rmat) = |Sigma|^{-K/2} sum_t h^{(2t)}(tr Sigma^{-1} Rmat Rmat'
    + tr Omega) S_t(Omega Sigma^{-1} Rmat Rmat') / t!, with
    S_t = sum_{|kappa|=t} C_kappa / (K/2)_kappa.
    At a zero mu only S_0 = 1 is left: |Sigma|^{-K/2} h(y0) with 0 degrees,
    for any K, and :class:`DomainError` where h(y0) = 0.
    """
    Rmat = np.asarray(Rmat, dtype=float)
    if Rmat.shape != (model.Nm1, model.K):
        raise DomainError(f"Rmat must be (N-1) x K = ({model.Nm1}, {model.K})")
    y0 = float(np.trace(model.sigma_inv @ Rmat @ Rmat.T)) + model.trace_omega
    gen = model.generator
    if not np.any(model.mu):
        log, used, tail = h_log_value(gen, y0), 0, 0.0
        if log == -math.inf:
            raise DomainError("generator vanished at the evaluation point")
    else:
        delta = coefficient_polynomial(gen, y0, radial=False)[0]
        # h^(2t)(y0) = e^(log_norm_const - R y0) R^(2t) P(t)
        log_factor = (gen.log_norm_const - gen.R * y0
                      + 2.0 * math.log(gen.R) * np.arange(degree_cap(model.K, ctrl) + 1))
        log, sign, used, tail = zonal_series_batch(
            _polynomial_coeffs(delta, log_factor), _noncentrality_spectra(model, Rmat[None]), ctrl)
        _check_positive(sign)
        log, used, tail = float(log[0]), int(used[0]), float(tail[0])
    return DensityValue(-model.K / 2.0 * model.log_det_sigma + log, used, tail)


def _polynomial_coeffs(delta: np.ndarray, log_factor: np.ndarray) -> tuple[np.ndarray, ...]:
    """The coefficients of :func:`zonal_series_batch` for c_t = e^log_factor
    P(t) over the degrees t of ``log_factor``, with P(t) = sum_j delta_j
    binom(t, j) from :func:`coefficient_polynomial`: (log |c_t|, sign c_t,
    log m_t) with the magnitudes m_t = e^log_factor sum_j |delta_j| binom(t, j)."""
    basis = binomial_basis(len(log_factor) - 1, len(delta))
    p = basis @ delta
    with np.errstate(divide="ignore"):
        return (log_factor + np.log(np.abs(p)), np.sign(p),
                log_factor + np.log(basis @ np.abs(delta)))


def _check_positive(sums: np.ndarray) -> None:
    """:class:`NumericError` for the first row whose density sum is not
    positive (NaN included): the density is, so cancellation took the sum's
    digits or an overflow its value."""
    bad = np.flatnonzero(~(sums > 0))
    if len(bad):
        raise NumericError(f"the sum at row {bad[0]} came out non-positive or NaN: cancellation "
                           "lost its digits or an overflow its value", row=int(bad[0]))


def shape_logdensity(u: np.ndarray, model: ModelSpec,
                     ctrl: SeriesControl | None = None) -> DensityValue:
    """Log shape density at the angle vector u (length M - 1): the batch of
    one of :func:`shape_logdensities`, whose formula and errors it shares."""
    if np.ndim(u) != 1:
        raise DomainError(f"expected one vector of m = M - 1 angles, got shape {np.shape(u)}")
    log, used, tail = shape_logdensities(np.reshape(u, (1, -1)), model, ctrl)
    return DensityValue(float(log[0]), int(used[0]), float(tail[0]))


def shape_logdensities(U: np.ndarray, model: ModelSpec, ctrl: SeriesControl | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log shape density at each row of a (batch, M - 1) angle array, with the
    truncation diagnostics of its series: (log density, degrees used, tail
    bound), each (batch,).

    f(u) = J(u) |Sigma|^{-K/2} sum_t [S_t(Omega Sigma^{-1} W W') / t!]
    int_0^inf r^{M+2t-1} h^{(2t)}(r^2 a + b) dr with
    S_t = sum_{|kappa|=t} C_kappa / (K/2)_kappa, a = tr Sigma^{-1} W W' and
    b = tr Omega; the sum is :func:`_shape_log_series` of the frames W. At a
    zero mu only t = 0 is left, and for any K and generator
    f(u) = J(u) |Sigma|^{-K/2} a^{-M/2} Gamma(M/2) / (2 pi^{M/2}), with 0
    degrees and tail bound 0; for Sigma = sigma^2 I this is the uniform law
    on the sphere in the angle chart.
    """
    W, log_j = _chart(U, model.Nm1, model.K, batch=True)
    a, const = _frame_terms(W, log_j, model.sigma_inv, model.log_det_sigma)
    if not np.any(model.mu):
        M = model.M
        return (const - M / 2.0 * np.log(a) + (math.lgamma(M / 2.0) - math.log(2.0)
                                                - M / 2.0 * math.log(math.pi)),
                np.zeros(len(a), dtype=int), np.zeros(len(a)))
    log, used, tail = _shape_log_series(model.generator, _noncentrality_factor(model, W),
                                        a, model.trace_omega, ctrl)
    return const + log, used, tail


def _frame_terms(W: np.ndarray, log_j: np.ndarray, sigma_inv: np.ndarray,
                 log_det_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(a, const), each (batch,), of the frames W (batch, N-1, K) with chart
    log Jacobians ``log_j``: a_i = tr Sigma^{-1} W_i W_i' and the part of
    every shape log density outside its series, log J(u_i) - (K/2)
    log |Sigma|."""
    a = np.einsum("ab,sak,sbk->s", sigma_inv, W, W)
    return a, log_j - W.shape[2] / 2.0 * log_det_sigma


def _shape_log_series(gen: GeneratorSpec, G: np.ndarray, a: np.ndarray, b: float,
                      ctrl: SeriesControl | None = None, partials: bool = False):
    """(log series, degrees used, tail bound), each (batch,), of the sum
    over t of :func:`shape_logdensities` for frames with G = mu' Sigma^{-1} W
    (batch, K, K), a = tr Sigma^{-1} W W' (batch,) and b = tr Omega; with
    ``partials``, also its derivatives in G and in b.

    The scaling int r^{q-1} h^{(2t)}(a r^2 + b) dr = a^{-q/2}
    int s^{q-1} h^{(2t)}(s^2 + b) ds leaves a_i^{-M/2-t} on row i, and
    S_t(lambda) a^{-t} = S_t(lambda / a) moves a_i^{-t} into its spectrum,
    so one polynomial P(t) (:func:`coefficient_polynomial`) and one c_t
    serve the batch: one :func:`zonal_series_batch` call on the spectra of
    G G' / a_i sums every row, raising :class:`SeriesTruncationError` or
    :class:`NumericError` with the ``row``. The partials sum each row to its
    own degree, with one :func:`log_partials` call whose partials, 1/a_i
    times those at lambda / a_i, map to G by V diag(d/dlambda) V'. At K = 2
    a closed form (:func:`_planar_log_series`) sums no degree, and every row
    reports 0 degrees and tail bound 0.
    """
    K, M = G.shape[1], gen.M
    if K == 2:
        log, *rest = _planar_log_series(gen, G, a, b, partials)
        return (log, np.zeros(len(a), dtype=int), np.zeros(len(a)), *rest)
    delta, slope = coefficient_polynomial(gen, b)
    # e^(log_norm_const - R b) R^(t - M/2) Gamma(M/2 + t) / 2, the factor of P(t)
    t = np.arange(degree_cap(K, ctrl) + 1)
    log_factor = (gen.log_norm_const - gen.R * b - M / 2.0 * math.log(gen.R) - math.log(2.0)
                  + t * math.log(gen.R) + np.array([math.lgamma(M / 2.0 + i) for i in t]))
    lam, V = np.linalg.eigh(G @ G.transpose(0, 2, 1))
    spectra = np.clip(lam, 0.0, None) / a[:, None]
    log, sign, used, tail = zonal_series_batch(
        _polynomial_coeffs(delta, log_factor), spectra, ctrl)
    _check_positive(sign)
    out = log - M / 2.0 * np.log(a)
    if not partials:
        return out, used, tail
    tmax = int(used.max())
    # each term over the row's sum, zero past the row's own degree
    scale = np.where(t[:tmax + 1] <= used[:, None],
                     log_factor[:tmax + 1] - _log_factorials(tmax + 1) - log[:, None], -np.inf)
    p = binomial_basis(tmax, len(delta))
    d_lam = np.einsum("t,stk->sk", p @ delta,
                      np.exp(scale[:, :, None] + log_partials(spectra, tmax))) / a[:, None]
    d_b = -gen.R + np.sum((p @ slope) * np.exp(scale + logsums(spectra, tmax)), axis=1)
    # d tr(D G G') / dG = 2 D G
    d_G = 2.0 * (V * d_lam[:, None, :]) @ V.transpose(0, 2, 1) @ G
    return out, used, tail, d_G, d_b


# an overflow (a far mu at a tiny sigma^2) turns the sum NaN, which _check_positive refuses
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _planar_log_series(gen: GeneratorSpec, G: np.ndarray, a: np.ndarray, b: float,
                       partials: bool = False):
    """The K = 2 log series of :func:`_shape_log_series` in closed form,
    with its derivatives in G and b if ``partials``.

    S_t = [s+^{2t} + s-^{2t}] / (2 t!), s+- the sum and the difference of
    G's singular values (James, Ann. Math. Statist. 35, 1964), so with
    n = M/2 the series is e^{log_norm_const - R b} (R a)^{-n} / 4 times
    sum_+- E[P(t)]: E[f] = sum_t f(t) Gamma(n + t) z^t / (t!)^2 at
    z = R s+-^2 / a, P of :func:`coefficient_polynomial`. By Kummer (DLMF
    13.2.39) E[1] = Gamma(n) e^z h(z), h(z) = sum_{k<n} C(n - 1, k) z^k / k!,
    and as t z^t = z d/dz z^t, E[(t - z)^k] = Gamma(n) e^z (B^k g)_0 with
    g_i = h^(i)(z) / i!, (B g)_i = g_(i-1) + i g_i + z (i + 1) g_(i+1): sums
    of positive terms. Taken in R b - t and t (:func:`_planar_tables`),
    P(z + d) = sum_k pi_k d^k has no large pi_k at any separation.
    :class:`NumericError` where the sum is not positive or lost too many
    digits against sum |pi_k| (B^k g)_0. In z,
    dE[P]/dz = E[t P(t)] / z = E[P] + sum_k pi_k Gamma(n) e^z (B^k g)_1.
    """
    n, R, T = gen.M // 2, gen.R, gen.T
    adjugate = G[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])     # adj(G)'
    A = np.stack([G + adjugate, G - adjugate], axis=1)      # |G +- adj(G)'|^2 = 2 s+-^2
    z = (R / (2.0 * a))[:, None] * np.sum(A * A, axis=(2, 3))
    pi_table, slope_table, log_coef, exponent, moment_table = _planar_tables(T, gen.M, R)
    # log g_i, i <= min(T, n - 1), from h's terms k >= i; the largest is finite
    logs = log_coef + np.where(exponent > 0, exponent * np.log(z)[..., None, None], 0.0)
    top = logs.max(axis=3, keepdims=True)
    log_g = top[..., 0] + np.log(np.sum(np.exp(logs - top), axis=3))
    powers = z[..., None] ** np.arange(T)
    scaled = np.exp(log_g - log_g[..., :1])[..., :, None] * powers[..., None, :]
    moments = scaled.reshape(z.shape + (-1,)) @ moment_table      # (B^k g)_0, _1 over g_0
    v_powers = (R * b - z)[..., None] ** np.arange(T)
    vz = (v_powers[..., :, None] * powers[..., None, :]).reshape(z.shape + (-1,))   # v^p z^q
    pi = vz @ pi_table
    value = np.sum(pi * moments[0], axis=2)
    base = z + log_g[..., 0]                        # log e^z h(z) = log E[1] - lgamma(n)
    peak = base.max(axis=1, keepdims=True)
    weight = np.exp(base - peak)
    total = np.sum(weight * value, axis=1)
    _check_positive(total)
    log = peak[:, 0] + np.log(total)
    check_cancellation(np.log(np.sum(weight * np.sum(np.abs(pi) * moments[0], axis=2), axis=1))
                       + peak[:, 0], log)
    out = (gen.log_norm_const - R * b - n * math.log(R) - 2.0 * math.log(2.0) + math.lgamma(n)
           - n * np.log(a) + log)
    if not partials:
        return (out,)
    share = weight / total[:, None]                 # E[1] over the sum of both
    dz = share * (value + np.sum(pi * moments[1], axis=2)) * (2.0 * R / a)[:, None]
    slope = vz @ slope_table
    d_b = -R + np.sum(share * np.sum(slope * moments[0], axis=2), axis=1)
    # ds+-^2/dG = 2 (G +- adj(G)')
    return out, np.einsum("sx,sxij->sij", dz, A), d_b


@functools.lru_cache(maxsize=64)
def _planar_tables(T: int, M: int, R: float) -> tuple[np.ndarray, ...]:
    """(C, D, L, E, B), read-only: P(z + d) and dP/db(z + d) are sum
    C[p T + q, m] v^p z^q d^m and the same with D at v = R b - z
    (:func:`_centered_table`); e^(L[i, k]) z^(E[i, k]) are the terms of g_i,
    i <= min(T, n - 1); and (B^j g)_r = sum B[r, 0, i T + q, j] g_i z^q."""
    table = _centered_table(T, M) * R ** (1 - T)
    C, D = np.zeros((T, T, T)), np.zeros((T, T, T))
    for i, k in zip(*np.nonzero(table)):
        # (v - d)^i (z + d)^k, and d/db (v - d)^i = R i (v - d)^(i-1)
        for a, c in itertools.product(range(i + 1), range(k + 1)):
            w = table[i, k] * (-1) ** a * math.comb(k, c)
            C[i - a, k - c, a + c] += w * math.comb(i, a)
            if a < i:
                D[i - 1 - a, k - c, a + c] += w * R * i * math.comb(i - 1, a)
    n, lf = M // 2, _log_factorials(M // 2)
    i, k = np.arange(min(T, n - 1) + 1)[:, None], np.arange(n)
    L = np.where(k >= i, lf[n - 1] - lf[k] - lf[n - 1 - k] - lf[i] - lf[abs(k - i)], -np.inf)
    # B^j as [row, i, q], the coefficient of g_i z^q; rows 0 and 1 for j < T
    power, rows = np.eye(T + 1)[:, :, None] * (np.arange(T) == 0), np.arange(T + 1)[:, None, None]
    moments = np.empty((2, T + 1, T, T))
    for j in range(T):
        moments[..., j] = power[:2]
        step = rows * power
        step[1:] += power[:-1]
        step[:-1, :, 1:] += rows[1:] * power[1:, :, :-1]
        power = step
    out = (C.reshape(T * T, T), D.reshape(T * T, T), L, np.maximum(k - i, 0).astype(float),
           moments[:, :len(L)].reshape(2, 1, -1, T))
    for array in out:
        array.flags.writeable = False
    return out


def batch_shape_logdensity(U: np.ndarray, model: ModelSpec,
                           ctrl: SeriesControl | None = None) -> np.ndarray:
    """Shape log density at many angle vectors at once; returns (batch,).
    The log densities of :func:`shape_logdensities`, the same values as
    :func:`shape_logdensity` row by row."""
    return shape_logdensities(U, model, ctrl)[0]
