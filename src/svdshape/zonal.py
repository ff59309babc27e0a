"""Zonal series on symmetric-matrix spectra.

Every series here is sum_t c_t S_t(X) / t! with S_t(X) = sum_{|kappa|=t}
C_kappa(X) / (a)_kappa, a = K/2, and X entering only through its spectrum,
whose width is K. One evaluator, :func:`zonal_series_batch`, sums it for a
batch of spectra and one coefficient vector c_t in blocks of degrees under
one stop rule, with the table-free log S_t kernel of K = 2 or 3
(:func:`logsums`). Their oracles live in :mod:`svdshape.oracle`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, SeriesTruncationError


# consecutive terms below the tolerance that end a series
_TAIL_WINDOW = 3


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for every zonal series in the package.

    Convergence is declared once _TAIL_WINDOW (3) consecutive terms each
    contribute less than ``rel_tol`` times the accumulated magnitude.
    """

    max_degree: int = 60
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.max_degree < 1:
            raise DomainError("max_degree must be >= 1")
        if not 0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")


# degrees added per kernel call by zonal_series_batch
_DEGREE_BLOCK = 8


def zonal_series_batch(coeffs, spectra,
                       ctrl: SeriesControl | None = None) -> tuple[np.ndarray, ...]:
    """Evaluate sum_t c_t S_t(X) / t! for every row X of ``spectra`` (batch, K);
    returns (log |sum|, sign, degrees used, tail bound), each (batch,).

    ``spectra`` are those of :func:`logsums` (else :class:`DomainError`), and
    their width K sets a = K/2: a caller with fewer than K eigenvalues pads
    them with zeros. ``coeffs`` is (log |c_t|, sign c_t), each a scalar or an
    array over at least t = 0..:func:`degree_cap`, of which no later degree
    is read, one c_t for every row: a row's own factor x^t belongs in its
    spectrum, as S_t(x X) = x^t S_t(X). It may add log m_t, the sum of the
    magnitudes that c_t was computed from: then m_t S_t / t! is summed to
    the same degree, and :func:`check_cancellation` raises
    :class:`NumericError` for a ``row`` that lost too many digits in and
    across the c_t. The degrees grow in blocks of _DEGREE_BLOCK up to
    :func:`degree_cap`, each one :func:`logsums` call for the rows still
    unconverged. A row stops at the first degree completing _TAIL_WINDOW
    consecutive terms below ``ctrl.rel_tol`` times its running total, and
    its tail bound is its last term relative to the sum;
    :class:`SeriesTruncationError` for the first ``row`` that does not stop
    within :func:`degree_cap`.
    """
    ctrl = ctrl or SeriesControl()
    spectra = _check_spectra(spectra)
    tmax = degree_cap(spectra.shape[1], ctrl)
    batch = len(spectra)
    coeffs = [np.broadcast_to(x, max(np.size(x), tmax + 1))[:tmax + 1] for x in coeffs]
    out = np.empty((4, batch))                      # log, sign, degrees used, tail
    # per unconverged row: its running total acc * exp(peak), peak its largest
    # term, the log of its running sum over magnitudes, and whether its last
    # _TAIL_WINDOW - 1 terms were quiet
    rows = np.arange(batch)
    peak, acc = np.full((batch, 1), -np.inf), np.zeros((batch, 1))
    log_m_acc = np.full((batch, 1), -np.inf)
    quiet = np.zeros((batch, _TAIL_WINDOW - 1), dtype=bool)
    lo = 0
    while len(rows):
        hi = min(lo + _DEGREE_BLOCK, tmax + 1)
        log_c, sign_c, *log_m = (x[lo:hi] for x in coeffs)
        log_s = logsums(spectra[rows], hi - 1)
        terms = np.where(sign_c != 0.0, log_c + log_s[:, lo:] - _log_factorials(hi)[lo:], -np.inf)
        top = np.maximum(peak, terms.max(axis=1, keepdims=True))
        safe = np.where(np.isfinite(top), top, 0.0)
        sums = acc * np.exp(peak - safe) + np.cumsum(sign_c * np.exp(terms - safe), axis=1)
        with np.errstate(divide="ignore"):
            running = safe + np.log(np.abs(sums))
        flags = np.concatenate([quiet, terms <= running + math.log(ctrl.rel_tol)], axis=1)
        flags[:, _TAIL_WINDOW - 1] &= lo > 0            # degree 0 is never quiet
        # window j: the flags of the degrees lo + j - _TAIL_WINDOW + 1 .. lo + j
        window = np.all([flags[:, k:k + hi - lo] for k in range(_TAIL_WINDOW)], axis=0)
        done = window.any(axis=1)
        stop = window[done].argmax(axis=1)
        pick = (np.flatnonzero(done), stop)
        total, total_sign = running[pick], np.sign(sums[pick])
        out[:, rows[done]] = (total, total_sign, lo + stop,
                              np.exp(terms[pick] - np.where(total_sign != 0.0, total, 0.0)))
        if log_m:
            log_m_run = np.logaddexp.accumulate(np.concatenate(
                [log_m_acc, log_m[0] + log_s[:, lo:] - _log_factorials(hi)[lo:]], axis=1),
                axis=1)[:, 1:]
            check_cancellation(log_m_run[pick], total, rows[done])
            log_m_acc = log_m_run[~done, -1:]
        if hi > tmax and not done.all():
            i = int(np.argmin(done))                    # the first unconverged row
            raise SeriesTruncationError(
                f"zonal series did not converge within degree {tmax} "
                f"(last term log-magnitude {terms[i, -1]:.3g})", row=int(rows[i]),
                partial_log=float(running[i, -1]), partial_sign=float(np.sign(sums[i, -1])),
                tail_estimate=float(terms[i, -1]))
        rows, peak, acc = rows[~done], top[~done], sums[~done, -1:]
        quiet = flags[~done, 1 - _TAIL_WINDOW:]
        lo = hi
    log, sign, used, tail = out
    return log, sign, used.astype(int), tail


# decimal digits that a signed sum may lose to cancellation before
# check_cancellation raises NumericError
_MAX_DIGITS_LOST = 6.0


def check_cancellation(log_magnitudes: np.ndarray, log_sums: np.ndarray,
                       rows: np.ndarray | None = None) -> None:
    """Raise :class:`NumericError` for the row that lost most if a sum, of log
    magnitude ``log_sums``, lost over _MAX_DIGITS_LOST decimal digits to
    cancellation against ``log_magnitudes``, the same sum over the magnitudes
    of its terms. ``rows`` numbers the entries (default: their index)."""
    with np.errstate(invalid="ignore"):             # -inf - -inf: no terms at all
        lost = (np.asarray(log_magnitudes) - log_sums) / math.log(10.0)
    if np.any(lost > _MAX_DIGITS_LOST):
        i = int(np.nanargmax(lost))
        row = i if rows is None else int(rows[i])
        raise NumericError(f"the sum at row {row} lost {lost[i]:.1f} digits to "
                           f"cancellation (limit {_MAX_DIGITS_LOST:g})", row=row)


# bytes of one (spectra, degrees, nodes) float64 temporary of the K = 3
# kernel, which holds a few at once, so its memory stays bounded for any batch
_LOGSUMS_CHUNK_BYTES = 4 << 20

# above this degree the scaled terms of the K = 3 kernel can leave float64's
# normal range (a scan of degrees 100-500 met the first non-finite at 500)
_SPATIAL_MAX_DEGREE = 300


def logsums(spectra, tmax: int) -> np.ndarray:
    """log S_t, t = 0..tmax, for each row of (batch, K) non-negative finite
    ``spectra``: (batch, tmax + 1), by the table-free kernel of K in {2, 3}
    and a = K/2. S_t is homogeneous of degree t:
    S_t(c lambda) = c^t S_t(lambda)."""
    spectra = _check_spectra(spectra, tmax)
    return _KERNELS[spectra.shape[1]][0](spectra, tmax)


def log_partials(spectra, tmax: int) -> np.ndarray:
    """log dS_t/dlambda_k, (batch, tmax + 1, 3), for the K = 3 spectra of
    :func:`logsums`, exact also at zero eigenvalues."""
    spectra = _check_spectra(spectra, tmax)
    if spectra.shape[1] != 3:
        raise DomainError(f"no partials of S_t for K = {spectra.shape[1]}")
    return _spatial_log_partials(spectra, tmax)


def degree_cap(K: int, ctrl: SeriesControl | None = None) -> int:
    """The last degree that :func:`zonal_series_batch` sums for spectra of
    width K: ``ctrl.max_degree`` or the kernel's own cap, whichever is
    lower."""
    if K not in _KERNELS:
        raise DomainError(f"{_SUPPORTED}, got K = {K}")
    return min((ctrl or SeriesControl()).max_degree, _KERNELS[K][1])


def _planar_logsums(spectra: np.ndarray, tmax: int) -> np.ndarray:
    """The K = 2, a = 1 kernel in closed form, with no partials, which the
    closed-form K = 2 likelihood does not ask for.

    O(2) is two circles, so the degree-t part of 0F1(1; D^2/4) is exact:
    S_t(lambda) = [(d1 + d2)^(2t) + (d1 - d2)^(2t)] / (2 t!) with
    d = sqrt(lambda). With s = d1 + d2 and q = |d1 - d2| / s in [0, 1],
    log S_t = 2t log s + log1p(q^(2t)) - log 2 - log t!, and every term
    is positive.
    """
    d = np.sqrt(np.sort(spectra, axis=1))
    t = np.arange(tmax + 1, dtype=float)
    s = d[:, 1:] + d[:, :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (2.0 * t * np.log(s) + np.log1p(((d[:, 1:] - d[:, :1]) / s) ** (2.0 * t))
               - math.log(2.0) - _log_factorials(tmax + 1))
    out[s[:, 0] == 0.0] = np.where(t == 0, 0.0, -np.inf)       # S_t(0) = 0, t >= 1
    return out


def _spatial_logsums(spectra: np.ndarray, tmax: int, partial: bool = False) -> np.ndarray:
    """The K = 3, a = 3/2 kernel by exact quadrature over O(3): log S_t, or
    log dS_t/dlambda_3 if ``partial``, for t = 0..tmax.

    S_t(lambda) = 4^t t! / (2t)! E_H[(tr DH)^(2t)] with D = diag(sqrt(lambda))
    and H Haar on O(3) (James, Ann. Math. Statist. 35, 1964). In ZYZ Euler
    angles (alpha, beta, gamma), tr(DH) = A cos(phi) + B cos(psi) + C, where
    c = cos(beta) is uniform on [-1, 1], phi = alpha + gamma and
    psi = alpha - gamma are independent uniform angles, d = sqrt(lambda),
    A = (d1 + d2)(1 + c)/2, B = (d1 - d2)(c - 1)/2 and C = d3 c. Averaging
    phi and psi leaves
    S_t = 4^t t! (1/2) int_{-1}^{1} sum_{i+j+k=t}
          (A^2/4)^i/i!^2 (B^2/4)^j/j!^2 C^(2k)/(2k)! dc,
    a polynomial of degree 2t in c with no negative term, which the
    (tmax + 1)-point Gauss-Legendre rule integrates exactly. dS_t/dlambda_3
    replaces C^(2k)/(2k)! by k lambda_3^(k-1) c^(2k)/(2k)!, which needs no
    1/sqrt(lambda) and so stays exact at zero eigenvalues.

    Degree t sums the integrand's terms of sequence degree u = t - partial
    (the power of lambda). Each row is scaled by the largest of A^2/4,
    B^2/4 and C^2 over the nodes, and each term of sequence degree u by
    tilt^u, so that the terms stay in float64's range through
    _SPATIAL_MAX_DEGREE. Rows go in chunks of _LOGSUMS_CHUNK_BYTES per
    temporary, which does not change the values.
    """
    out = np.full((len(spectra), tmax + 1), -np.inf)
    length = tmax + 1 - partial                     # sequence degrees 0..length-1
    if length == 0:                                 # dS_0 = 0
        return out
    c, w = _gauss_legendre(tmax + 1)
    tilt = max(1.0, tmax * tmax / 9.0)
    u = np.arange(length)
    log_fact = _log_factorials(2 * tmax + 1)
    if partial:                                     # k lambda_3^(k-1) c^(2k)/(2k)!, k = u+1
        log_coef = np.log(u + 1.0) - log_fact[2 * u + 2]
        weights = w * c * c
    else:
        log_coef = -log_fact[2 * u]
        weights = w
    coef = np.exp(log_coef + u * math.log(tilt))[:, None, None] * weights  # (length, 1, nodes)
    t = u + partial
    log_const = t * math.log(4.0) + log_fact[t] - math.log(2.0)
    step = max(1, _LOGSUMS_CHUNK_BYTES // (8 * len(c) * length))
    for lo in range(0, len(spectra), step):
        lam = spectra[lo:lo + step]
        d = np.sqrt(lam)
        x = ((d[:, :1] + d[:, 1:2]) * (1.0 + c) / 4.0) ** 2     # A^2/4, (chunk, nodes)
        y = ((d[:, :1] - d[:, 1:2]) * (1.0 - c) / 4.0) ** 2     # B^2/4
        g = lam[:, 2:] * c * c                                  # C^2
        scale = np.max(np.maximum(np.maximum(x, y), g), axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0                               # the zero spectrum
        pairs = _pair_sums(x / scale, y / scale, length, tilt)  # (length, chunk, nodes)
        singles = (g / scale) ** u[:, None, None]
        singles *= coef
        # cross[k, j] sums singles_k pairs_j over the nodes; sequence
        # degree u is its antidiagonal k + j = u
        cross = singles.transpose(1, 0, 2) @ pairs.transpose(1, 2, 0)
        sums = _antidiagonal_sums(cross)
        with np.errstate(divide="ignore"):
            out[lo:lo + step, t] = np.log(sums) + log_const + u * np.log(scale / tilt)
    # S_0 = 1 and dS_1 = 1/a (S_1 = tr(lambda)/a) exactly, free of the
    # rounding in the sums of the weights
    if partial:
        out[:, 1] = -math.log(1.5)
    else:
        out[:, 0] = 0.0
    return out


def _spatial_log_partials(spectra: np.ndarray, tmax: int) -> np.ndarray:
    """S_t is symmetric, so dS_t/dlambda_k is dS_t/dlambda_3 of
    :func:`_spatial_logsums` at lambda with entries k and 3 swapped."""
    swapped = np.concatenate([spectra[:, [2, 1, 0]], spectra[:, [0, 2, 1]], spectra])
    log_ds = _spatial_logsums(swapped, tmax, partial=True).reshape(3, len(spectra), -1)
    return np.moveaxis(log_ds, 0, -1)


def _antidiagonal_sums(cross: np.ndarray) -> np.ndarray:
    """sum_{k+j=u} cross[:, k, j] for u < L, of an (n, L, L) array; (n, L).

    One gather puts the entries k <= u of antidiagonal u (flat index
    k L + u - k) in a run of u + 1, and one segmented sum adds each run; the
    entries with k + j >= L are never read.
    """
    n, L = cross.shape[:2]
    u, k = np.tril_indices(L)                       # u ascending, then k
    runs = np.take(cross.reshape(n, L * L), u + k * (L - 1), axis=1)
    first = np.arange(L)
    return np.add.reduceat(runs, first * (first + 1) // 2, axis=1)


def _pair_sums(alpha: np.ndarray, beta: np.ndarray, length: int, tilt: float) -> np.ndarray:
    """tilt^n sum_{i+j=n} alpha^i beta^j / (i!^2 j!^2) for n < length, as a
    (length,) + alpha.shape array.

    n!^2 times the sum is f_n = sum_i C(n, i)^2 alpha^i beta^(n-i), a Legendre
    polynomial at an argument of at least 1, where the forward recurrence
    (n+1) f_{n+1} = (2n+1)(alpha+beta) f_n - n (alpha-beta)^2 f_(n-1) is stable.
    """
    out = np.empty((length,) + alpha.shape)
    total = tilt * (alpha + beta)
    gap = (tilt * (alpha - beta)) ** 2
    out[0] = 1.0
    if length > 1:
        out[1] = total
    for n in range(1, length - 1):
        out[n + 1] = ((2 * n + 1) * total * out[n] - gap * out[n - 1] / n) / (n + 1) ** 3
    return out


@functools.lru_cache(maxsize=_SPATIAL_MAX_DEGREE + 1)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], exact
    for polynomials of degree 2n - 1; read-only.

    Newton's method on the three-term recurrence for P_n from the cosine
    initial guesses, mirrored about 0. numpy's ``leggauss`` leaves relative
    errors near 1e-12 in the high moments at n = 100; these are at rounding.
    """
    half = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(math.pi * (half - 0.25) / (n + 0.5))
    for _ in range(6):          # quadratic convergence: four steps reach rounding
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    if n % 2:
        x[-1] = 0.0
    nodes = np.concatenate([-x, x[::-1][n % 2:]])
    weights = np.concatenate([w, w[::-1][n % 2:]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=64)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k < n; read-only."""
    out = np.array([math.lgamma(k + 1.0) for k in range(n)])
    out.flags.writeable = False
    return out


def _check_spectra(spectra, tmax: int = 0) -> np.ndarray:
    """``spectra`` as a (batch, K) float array with K in {2, 3}; DomainError
    if it is not one, has a negative or non-finite entry, or ``tmax`` is
    outside 0 to the K kernel's cap."""
    spectra = np.asarray(spectra, dtype=float)
    if spectra.ndim != 2 or spectra.shape[1] not in _KERNELS:
        raise DomainError(f"{_SUPPORTED}: spectra must be (batch, K), got shape {spectra.shape}")
    if not np.all(np.isfinite(spectra) & (spectra >= 0)):
        raise DomainError("spectra must be finite and non-negative")
    K = spectra.shape[1]
    if not 0 <= tmax <= _KERNELS[K][1]:
        raise DomainError(f"need 0 <= tmax <= {_KERNELS[K][1]} for K = {K}")
    return spectra


# log S_t and the largest tmax, by K
_KERNELS = {2: (_planar_logsums, math.inf), 3: (_spatial_logsums, _SPATIAL_MAX_DEGREE)}
_SUPPORTED = "zonal series support K in {2, 3}"
