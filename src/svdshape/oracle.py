"""The tests' oracles; no runtime module imports this.

- Zonal polynomial coefficients in the monomial basis by the classical
  recursion (the alpha = 2 Jack family), summed by :func:`zonal_poly` and,
  collapsed over kappa for any K and a, by :class:`ZonalSumTable`.
- The generator derivative h^(k)(y) (:func:`h_derivative_log`,
  :func:`h_derivative`) and the radial integral (:func:`radial_integral`),
  one degree at a time as Leibniz and binomial sums of log terms
  (:func:`_sum_signed_log_terms`), with a 60-digit mpmath recomputation
  (:func:`_kotz_radial_exact`) where a Kotz sum cancels: the references of
  :func:`svdshape.models.coefficient_polynomial`.
- The radial integral by adaptive quadrature (:func:`radial_integral_quad`,
  the only user of scipy in the package).
- The isotropic shape density (:func:`isotropic_shape_logdensity`) from its
  closed brackets, and the Gaussian one (:func:`gaussian_shape_logdensity`)
  with its radial integrals in closed form: references of the K = 2 closed
  form. The shape density summed through its series at any mu, a zero one
  included (:func:`series_shape_logdensities`): the reference of the
  closed central density.
- Monte Carlo integrals over Haar-uniform frames
  (:func:`stiefel_mc_integral`), the reference of the frame-integral series.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .densities import (DensityValue, Mode, _chart, _frame_terms, _mode_log_factor,
                        _noncentrality_factor, _noncentrality_spectra, _shape_log_series)
from .errors import DomainError, NumericError
from .models import GeneratorSpec, IsotropicKind, ModelSpec, h_log_value
from .special import LogSign
from .zonal import (_LOGSUMS_CHUNK_BYTES, SeriesControl, _check_spectra, log_stiefel_volume,
                    zonal_series_batch)


@dataclass(frozen=True)
class Partition:
    """An integer partition: positive, non-increasing parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise DomainError(f"partition parts must be positive, got {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise DomainError(f"partition parts must be non-increasing, got {self.parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


@functools.lru_cache(maxsize=None)
def enumerate_partitions(weight: int, max_parts: int) -> tuple[Partition, ...]:
    """All partitions of ``weight`` with at most ``max_parts`` parts.

    Ordered reverse-lexicographically, so (weight,) comes first and the
    ordering is deterministic across runs. Weight 0 yields the single empty
    partition.
    """
    if weight < 0:
        raise DomainError(f"weight must be non-negative, got {weight}")
    if max_parts < 1:
        raise DomainError(f"max_parts must be positive, got {max_parts}")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int], slots: int):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if slots == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix, slots - 1)
            prefix.pop()

    rec(weight, weight if weight else 1, [], max_parts)
    return tuple(out)


def gen_pochhammer(a: float, kappa: Partition) -> float:
    """Generalized Pochhammer symbol (a)_kappa = prod_i (a - (i-1)/2)_{k_i}.

    Uses the rising factorial (x)_f = x(x+1)...(x+f-1); the empty partition
    gives 1. Zero factors are legitimate and give 0.
    """
    result = 1.0
    for i, k in enumerate(kappa):
        base = a - i / 2.0
        for j in range(k):
            result *= base + j
    return result


def gen_pochhammer_log(a: float, kappa: Partition) -> LogSign:
    """Log-sign form of :func:`gen_pochhammer`, safe against overflow."""
    log = 0.0
    sign = 1.0
    for i, k in enumerate(kappa):
        base = a - i / 2.0
        for j in range(k):
            factor = base + j
            if factor == 0.0:
                return LogSign.zero()
            log += math.log(abs(factor))
            sign *= math.copysign(1.0, factor)
    return LogSign(log, sign)


def _dominates(kappa: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """True if kappa >= lam in the dominance order (equal weights assumed)."""
    acc_k = acc_l = 0
    for i in range(max(len(kappa), len(lam))):
        acc_k += kappa[i] if i < len(kappa) else 0
        acc_l += lam[i] if i < len(lam) else 0
        if acc_k < acc_l:
            return False
    return True


def _rho(kappa: tuple[int, ...]) -> int:
    return sum(k * (k - (i + 1)) for i, k in enumerate(kappa))


def _leading_coefficient(kappa: tuple[int, ...]) -> float:
    """Coefficient of the monomial m_kappa in C_kappa: 2^f f! / prod(upper hooks)."""
    f = sum(kappa)
    conj = [0] * (kappa[0] if kappa else 0)
    for k in kappa:
        for j in range(k):
            conj[j] += 1
    log_upper = 0.0
    for i, k in enumerate(kappa):  # cell (i+1, j+1), arm a, leg l
        for j in range(k):
            arm = k - (j + 1)
            leg = conj[j] - (i + 1)
            log_upper += math.log(2 * (arm + 1) + leg)
    return math.exp(f * math.log(2.0) + math.lgamma(f + 1) - log_upper) if f else 1.0


# guards _table_cache
_table_lock = threading.Lock()
_table_cache: dict[tuple[int, int], dict[tuple[int, ...], dict[tuple[int, ...], float]]] = {}


def _zonal_table(weight: int, max_parts: int) -> dict[tuple[int, ...], dict[tuple[int, ...], float]]:
    """Monomial-basis coefficients c[kappa][lam] of C_kappa for all kappa of
    ``weight`` with at most ``max_parts`` parts (lam restricted likewise)."""
    key = (weight, max_parts)
    cached = _table_cache.get(key)
    if cached is not None:
        return cached
    with _table_lock:
        cached = _table_cache.get(key)
        if cached is not None:
            return cached
        parts_list = [p.parts for p in enumerate_partitions(weight, max_parts)]
        table: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        for kappa in parts_list:
            coeffs: dict[tuple[int, ...], float] = {kappa: _leading_coefficient(kappa)}
            rho_k = _rho(kappa)
            # reverse-lex order refines dominance downwards, so every mu
            # needed below is already filled when lam is processed
            for lam in parts_list:
                if lam == kappa or not _dominates(kappa, lam):
                    continue
                total = 0.0
                lam_l = list(lam)
                p = len(lam_l)
                for s in range(1, p):
                    for r in range(s):
                        for t in range(1, lam_l[s] + 1):
                            mu = lam_l.copy()
                            mu[r] += t
                            mu[s] -= t
                            coef = mu[r] - mu[s]
                            # moving t to an earlier part adds no part, and
                            # every key of coeffs is dominated by kappa
                            mu_sorted = tuple(sorted((x for x in mu if x > 0), reverse=True))
                            c_mu = coeffs.get(mu_sorted)
                            if c_mu is not None:
                                total += coef * c_mu
                denom = rho_k - _rho(lam)
                if total != 0.0:
                    coeffs[lam] = total / denom
            table[kappa] = coeffs
        _table_cache[key] = table
        return table


def _monomial(lam: tuple[int, ...], eigs: tuple[float, ...]) -> float:
    """Monomial symmetric function m_lam at the given values."""
    d = len(eigs)
    padded = lam + (0,) * (d - len(lam))
    total = 0.0
    for perm in set(itertools.permutations(padded)):
        prod = 1.0
        for x, e in zip(eigs, perm):
            if e:
                prod *= x**e
        total += prod
    return total


def zonal_poly(kappa: Partition, eigenvalues) -> float:
    """Zonal polynomial C_kappa at the spectrum ``eigenvalues``.

    Exactly 0 when kappa has more parts than there are nonzero eigenvalues.
    The tests' independent oracle for the series kernels.
    """
    eigs = tuple(sorted(float(x) for x in eigenvalues))
    if not eigs:
        raise DomainError("eigenvalue list must be non-empty")
    if len(kappa) == 0:
        return 1.0
    nonzero = tuple(x for x in eigs if x != 0.0)
    if len(kappa.parts) > len(nonzero):
        return 0.0
    table = _zonal_table(kappa.weight, len(nonzero))
    coeffs = table[kappa.parts]
    return math.fsum(c * _monomial(lam, nonzero) for lam, c in coeffs.items())


class ZonalSumTable:
    """The table kernel: log S_t(X) = log sum_{|kappa|=t} C_kappa(X) / (a)_kappa
    for batches of K-point spectra X through degree ``tmax``, for every (K, a):
    the oracle of :func:`svdshape.zonal.logsums` and
    :func:`svdshape.zonal.log_partials`.

    Holds, for every degree t <= tmax, the monomial expansion of S_t collapsed
    to coefficients d_{t,lam} = sum_kappa c_{kappa,lam} / (a)_kappa > 0: the
    concatenated degree blocks of :func:`_monomial_block`, which are memoized,
    so a second table for the same (K, a) only copies rows. Its domain is
    non-negative spectra and (a)_kappa > 0 for every kappa of at most K parts
    (else :class:`DomainError`).
    """

    def __init__(self, K: int, tmax: int, denominator_a: float | None = None):
        if K < 1 or tmax < 0:
            raise DomainError("need K >= 1 and tmax >= 0")
        self.K = K
        self.tmax = tmax
        self.a = K / 2.0 if denominator_a is None else float(denominator_a)
        blocks = [_monomial_block(t, K, self.a) for t in range(tmax + 1)]
        self._exps = np.concatenate([exps for exps, _ in blocks])      # (NT, K)
        self._logd = np.concatenate([logd for _, logd in blocks])      # (NT,)
        # degree t: rows [b[t], b[t+1])
        self._bounds = [0] + list(itertools.accumulate(len(logd) for _, logd in blocks))

    def logsums(self, spectra: np.ndarray) -> np.ndarray:
        """log S_t for each row of ``spectra``; returns (batch, tmax + 1).

        Spectra must be non-negative; zero eigenvalues are handled (their
        monomials vanish exactly). Rows go in chunks of _LOGSUMS_CHUNK_BYTES
        per temporary, which does not change the values.
        """
        loge, empty = self._log_spectra(spectra)
        out = _block_logsumexp(loge, self._exps, self._logd, self._bounds)
        out[empty, 1:] = -np.inf                        # S_t(0) = 0, t >= 1
        return out

    def logsums_and_partials(self, spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log S_t, log dS_t/dlambda_k) for each row of ``spectra``:
        (batch, tmax + 1) equal to :meth:`logsums`, and (batch, tmax + 1, K).

        d log S_t / dlambda_k = exp(log dS_t/dlambda_k - log S_t). Each
        partial sums the exponent-shifted rows d e_k lambda^(e - 1_k) over
        the rows with e_k >= 1, so it stays exact at a zero eigenvalue
        (where lambda_k d log S_t / dlambda_k = 0 says nothing) and at an
        all-zero spectrum, where S_t = 0 for t >= 1 but dS_1 > 0. Each k is
        one pass of the size of :meth:`logsums`.
        """
        loge, empty = self._log_spectra(spectra)
        log_s = _block_logsumexp(loge, self._exps, self._logd, self._bounds)
        log_s[empty, 1:] = -np.inf                      # S_t(0) = 0, t >= 1
        with np.errstate(divide="ignore"):              # -inf where e_k = 0
            logc = self._logd + np.log(self._exps.T)    # (K, rows)
        shifted = self._exps - np.eye(self.K)[:, None, :]   # (K, rows, K)
        log_ds = np.stack([_block_logsumexp(loge, shifted[k], logc[k], self._bounds)
                           for k in range(self.K)], axis=-1)
        log_ds[empty, 2:] = -np.inf                     # dS_t(0) = 0, t >= 2
        return log_s, log_ds

    def _log_spectra(self, spectra) -> tuple[np.ndarray, np.ndarray]:
        """(log spectra with a stand-in for log 0, mask of all-zero rows)."""
        spectra = _check_spectra(spectra, self.K)
        # zero eigenvalues: a large negative stand-in for log 0 keeps the
        # segment reductions finite (exp underflows to 0 exactly)
        loge = np.where(spectra > 0.0, np.log(np.where(spectra > 0, spectra, 1.0)), -1e12)
        return loge, ~np.any(spectra > 0, axis=1)


@functools.lru_cache(maxsize=None)
def _monomial_block(t: int, K: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Degree t of :class:`ZonalSumTable`: the exponent rows (rows, K) of every
    monomial lambda^e with |e| = t and d_{t,lam} > 0, and their log d_{t,lam}
    (rows,); read-only. :class:`DomainError` if some (a)_kappa is not positive.
    """
    lam_coeffs: dict[tuple[int, ...], float] = {}
    if t == 0:
        lam_coeffs[(0,) * K] = 1.0
    else:
        table = _zonal_table(t, K)
        for kappa in enumerate_partitions(t, K):
            poch = gen_pochhammer_log(a, kappa)
            if poch.sign <= 0.0:
                raise DomainError(f"denominator ({a})_{kappa.parts} is not positive")
            inv = math.exp(-poch.log)
            for lam, c in table[kappa.parts].items():
                padded = lam + (0,) * (K - len(lam))
                lam_coeffs[padded] = lam_coeffs.get(padded, 0.0) + c * inv
    exps: list[tuple[int, ...]] = []
    logd: list[float] = []
    for lam, d in sorted(lam_coeffs.items()):
        if d <= 0.0:
            continue
        for perm in sorted(set(itertools.permutations(lam))):
            exps.append(perm)
            logd.append(math.log(d))
    exps_arr = np.asarray(exps, dtype=float).reshape(-1, K)
    logd_arr = np.asarray(logd, dtype=float)
    exps_arr.flags.writeable = logd_arr.flags.writeable = False
    return exps_arr, logd_arr


def _block_logsumexp(loge: np.ndarray, exps: np.ndarray, logc: np.ndarray,
                     bounds: list[int]) -> np.ndarray:
    """log sum_r exp(logc_r + exps_r . loge) over each row block
    [bounds[j], bounds[j+1]) of ``exps``, for every row of ``loge``;
    (batch, len(bounds) - 1). A block whose terms are all -inf gives -inf.
    Chunked by _LOGSUMS_CHUNK_BYTES, which does not change the values."""
    starts = np.asarray(bounds[:-1], dtype=np.intp)
    step = max(1, _LOGSUMS_CHUNK_BYTES // (8 * len(logc)))
    out = np.empty((len(loge), len(starts)))
    for lo in range(0, len(loge), step):
        lm = loge[lo:lo + step] @ exps.T + logc          # (chunk, rows)
        peak = np.maximum.reduceat(lm, starts, axis=1)
        peak[np.isneginf(peak)] = 0.0                    # a block of -inf terms
        expanded = np.repeat(peak, np.diff(bounds), axis=1)
        sums = np.add.reduceat(np.exp(lm - expanded), starts, axis=1)
        with np.errstate(divide="ignore"):
            out[lo:lo + step] = peak + np.log(sums)
    return out


def _poly_fall(T: int, j: int) -> float:
    """prod_{i=0}^{j-1} (T - 1 - i); vanishes for j >= T."""
    out = 1.0
    for i in range(j):
        out *= T - 1 - i
    return out


def _sum_signed_log_terms(terms: list[tuple[float, float]], exact=None) -> LogSign:
    """Sum of terms given as (log magnitude, sign), watching for cancellation.

    Sums with fsum after scaling by the largest magnitude. If more than ~10
    digits cancel and an ``exact`` recomputation callback is given, defer to
    it (the finite Kotz sums can cancel exactly to zero, which double
    arithmetic cannot distinguish from noise).
    """
    finite = [(lg, sg) for lg, sg in terms if math.isfinite(lg) and sg != 0.0]
    if not finite:
        return LogSign.zero()
    shift = max(lg for lg, _ in finite)
    total = math.fsum(sg * math.exp(lg - shift) for lg, sg in finite)
    if abs(total) < 1e-10 and exact is not None:
        return exact()
    return LogSign.of(total).scale(shift)


def h_derivative_log(gen: GeneratorSpec, k: int, y: float) -> LogSign:
    """k-th derivative of h at y, in log-sign form.

    Uses the Leibniz expansion of d^k/dy^k [y^{T-1} e^{-Ry}], which is finite
    for integer T and regular at y = 0 (the printed 1/y factors of the
    product-rule form are removable).
    """
    if k < 0:
        raise DomainError(f"derivative order must be non-negative, got {k}")
    if y < 0:
        raise DomainError(f"generator argument must be non-negative, got {y}")
    T, R = gen.T, gen.R
    if T == 1:
        base = h_log_value(gen, y)
        sign = -1.0 if k % 2 else 1.0
        return base.mul(LogSign(k * math.log(R), sign))
    terms = []
    for j in range(min(k, T - 1) + 1):
        p = _poly_fall(T, j)
        if p == 0.0:
            continue
        expo = T - 1 - j
        if y == 0.0 and expo > 0:
            continue
        log_y_pow = 0.0 if expo == 0 else expo * math.log(y)
        sign = (1.0 if (k - j) % 2 == 0 else -1.0) * math.copysign(1.0, p)
        log_mag = (math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
                   + math.log(abs(p)) + (k - j) * math.log(R) + log_y_pow)
        terms.append((log_mag, sign))
    # near a sign change of h^(k) the bracket cancels; absolute accuracy there
    # is eps times the leading term, which is all downstream sums need
    return _sum_signed_log_terms(terms).scale(gen.log_norm_const - R * y)


def h_derivative(gen: GeneratorSpec, k: int, y: float) -> float:
    return h_derivative_log(gen, k, y).value


def radial_integral(gen: GeneratorSpec, t: int, a: float, b: float,
                    m: int, n: int) -> LogSign:
    """Closed form of int_0^inf r^(m+n+2t-1) h^(2t)(r^2 a + b) dr.

    Gaussian: R^{M/2-(m+n)/2+t} / (2 pi^{M/2}) e^{-Rb} a^{-(m+n)/2-t}
    Gamma((m+n)/2 + t). Kotz integer T: the finite double sum obtained by
    expanding the Leibniz derivative and the binomial (r^2 a + b)^j; both are
    cross-validated against the quadrature oracle.
    """
    if t < 0:
        raise DomainError(f"series degree t must be non-negative, got {t}")
    if a <= 0:
        raise DomainError(f"radial scale a must be positive, got {a}")
    if b < 0:
        raise DomainError(f"noncentrality b must be non-negative, got {b}")
    if m + n < 1:
        raise DomainError(f"need m + n >= 1, got m={m}, n={n}")
    T, R, M = gen.T, gen.R, gen.M
    q = m + n + 2 * t
    if T == 1:
        log = ((M / 2.0 - (m + n) / 2.0 + t) * math.log(R) - math.log(2.0)
               - M / 2.0 * math.log(math.pi) - R * b
               - ((m + n) / 2.0 + t) * math.log(a) + math.lgamma((m + n) / 2.0 + t))
        return LogSign(log, 1.0)
    k = 2 * t
    terms = []
    log_b = math.log(b) if b > 0 else -math.inf
    for j in range(min(k, T - 1) + 1):
        p = _poly_fall(T, j)
        if p == 0.0:
            continue
        jj = T - 1 - j
        sign_j = (1.0 if (k - j) % 2 == 0 else -1.0) * math.copysign(1.0, p)
        log_cj = (math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
                  + math.log(abs(p)) + (k - j) * math.log(R))
        for l in range(jj + 1):
            if b == 0.0 and l < jj:
                continue
            log_binom = math.lgamma(jj + 1) - math.lgamma(l + 1) - math.lgamma(jj - l + 1)
            log_term = (log_cj + log_binom + l * math.log(a)
                        + (jj - l) * (log_b if jj - l else 0.0)
                        - math.log(2.0) - (q / 2.0 + l) * (math.log(R) + math.log(a))
                        + math.lgamma(q / 2.0 + l))
            terms.append((log_term, sign_j))
    out = _sum_signed_log_terms(
        terms, exact=lambda: _kotz_radial_exact(T, R, t, a, b, q))
    return out.scale(gen.log_norm_const - R * b)


def _kotz_radial_exact(T: int, R: float, t: int, a: float, b: float, q: int) -> LogSign:
    """60-digit recomputation of the Kotz sum, for near-total cancellation."""
    import mpmath as mp
    k = 2 * t
    with mp.workdps(60):
        Rm, am, bm = mp.mpf(R), mp.mpf(a), mp.mpf(b)
        total = mp.mpf(0)
        for j in range(min(k, T - 1) + 1):
            p = _poly_fall(T, j)
            if p == 0.0:
                continue
            jj = T - 1 - j
            cj = mp.binomial(k, j) * p * (-Rm) ** (k - j)
            for l in range(jj + 1):
                if b == 0.0 and l < jj:
                    continue
                total += (cj * mp.binomial(jj, l) * am**l
                          * (bm ** (jj - l) if jj - l else 1)
                          * mp.mpf("0.5") * (Rm * am) ** (-(mp.mpf(q) / 2 + l))
                          * mp.gamma(mp.mpf(q) / 2 + l))
        if total == 0 or mp.fabs(total) < mp.mpf(10) ** -45 * mp.gamma(mp.mpf(q) / 2):
            return LogSign.zero()
        return LogSign(float(mp.log(mp.fabs(total))), 1.0 if total > 0 else -1.0)


def radial_integral_quad(gen: GeneratorSpec, t: int, a: float, b: float,
                         m: int, n: int) -> LogSign:
    """Adaptive-quadrature oracle for :func:`radial_integral`."""
    from scipy import integrate

    if a <= 0:
        raise DomainError(f"radial scale a must be positive, got {a}")
    q = m + n + 2 * t
    R = gen.R

    def log_integrand(r: float) -> tuple[float, float]:
        h = h_derivative_log(gen, 2 * t, a * r * r + b)
        if h.sign == 0.0 or r <= 0.0:
            return -math.inf, 0.0
        return (q - 1) * math.log(r) + h.log, h.sign

    # locate the peak magnitude to choose a scale and an integration window
    r_peak = math.sqrt(max(q - 1, 1) / (2 * R * a))
    grid = np.geomspace(r_peak * 1e-3, r_peak * 30, 400)
    logs = np.array([log_integrand(r)[0] for r in grid])
    scale = float(logs.max())
    if not math.isfinite(scale):
        return LogSign.zero()
    above = grid[logs > scale - 40]
    lo, hi = float(above.min()), float(above.max())

    def f(r):
        lg, sg = log_integrand(r)
        return sg * math.exp(lg - scale) if math.isfinite(lg) else 0.0

    val, err = integrate.quad(f, lo, hi, limit=300)
    if abs(err) > 1e-7 * max(abs(val), 1.0):
        raise NumericError(f"radial quadrature did not converge (value {val}, error {err})")
    if val == 0.0:
        return LogSign.zero()
    return LogSign(scale + math.log(abs(val)), math.copysign(1.0, val))


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
    log_sum, sign, used, tail = zonal_series_batch((log_b, sign_b), [eigs], K / 2.0, ctrl)
    if sign[0] <= 0.0:
        raise DomainError("isotropic shape series summed to a non-positive value")
    log = (log_j - math.log(2.0) - M / 2.0 * math.log(math.pi)
           + log_pref - x + float(log_sum[0]) + _mode_log_factor(mode))
    return DensityValue(log, int(used[0]), float(tail[0]), mode)


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


def gaussian_shape_logdensity(u: np.ndarray, model: ModelSpec,
                              mode: Mode = Mode.REFLECTION,
                              ctrl: SeriesControl | None = None) -> DensityValue:
    """Gaussian shape log density with the radial integrals in closed form.

    f(u) = J(u) |Sigma|^{-K/2} (2 pi^{M/2})^{-1} e^{-R tr Omega}
    sum_t Gamma(M/2 + t) a^{-M/2-t} S_t(R Omega Sigma^{-1} W W') / t!.
    Requires a Gaussian generator (or Kotz with T = 1).
    """
    if model.generator.T != 1:
        raise DomainError("gaussian_shape_logdensity needs a Gaussian-type generator")
    W, log_j = _chart(u, model.Nm1, model.K)
    a = float(np.trace(model.sigma_inv @ W @ W.T))
    b = model.trace_omega
    R = model.generator.R
    M = model.M
    log_a = math.log(a)
    log_c = [math.lgamma(M / 2.0 + t) - (M / 2.0 + t) * log_a
             for t in range((ctrl or SeriesControl()).max_degree + 1)]
    log_sum, _, used, tail = zonal_series_batch(
        (log_c, 1.0), R * _noncentrality_spectra(model, W[None]), model.K / 2.0, ctrl)
    log = (log_j - model.K / 2.0 * model.log_det_sigma
           - math.log(2.0) - M / 2.0 * math.log(math.pi)
           - R * b + float(log_sum[0]) + _mode_log_factor(mode))
    return DensityValue(log, int(used[0]), float(tail[0]), mode)


def series_shape_logdensities(U: np.ndarray, model: ModelSpec, mode: Mode = Mode.REFLECTION,
                              ctrl: SeriesControl | None = None) -> np.ndarray:
    """The log densities of :func:`svdshape.densities.shape_logdensities`
    from :func:`svdshape.densities._shape_log_series` at every mu: at a zero
    mu, where the runtime takes the closed central form, the series at
    G = 0 and b = 0 (K = 1, 2 or 3)."""
    W, log_j = _chart(U, model.Nm1, model.K, batch=True)
    a, const = _frame_terms(W, log_j, model.sigma_inv, model.log_det_sigma, mode)
    return const + _shape_log_series(model.generator, _noncentrality_factor(model, W), a,
                                     model.trace_omega, ctrl)[0]


# frames drawn per batch by stiefel_mc_integral
_STIEFEL_MC_CHUNK = 65536
# largest entry of F F' - I that a frame F of stiefel_mc_integral may have
_FRAME_TOL = 1e-12


def stiefel_mc_integral(integrand, n: int, K: int, samples: int,
                        seed: int) -> tuple[float, float]:
    """Monte Carlo integral of ``integrand`` over Haar-uniform n x K frames,
    scaled by the frame-manifold volume.

    ``integrand`` receives a (batch, n, K) array of frames and must return a
    (batch,) array. Deterministic for a fixed seed (counter-based generator,
    fixed chunking).
    """
    if n > K:
        raise DomainError(f"frame rows n={n} cannot exceed columns K={K}")
    if samples < 100:
        raise DomainError("samples must be >= 100")
    rng = np.random.Generator(np.random.Philox(seed))
    vol = math.exp(log_stiefel_volume(n, K))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(_STIEFEL_MC_CHUNK, samples - done)
        frames = _polar_factor(rng.standard_normal((b, n, K)))
        vals = np.asarray(integrand(frames), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    se = math.sqrt(var / samples)
    return vol * mean, vol * se


def _polar_factor(g: np.ndarray) -> np.ndarray:
    """The polar factor (g g')^(-1/2) g of each n x K matrix (n <= K) of a
    batch, from eigh of the n x n Gram matrix, whose rounding grows with the
    square of g's condition number, then one Newton-Schulz step
    F <- (3 F - F F' F) / 2, which squares a small departure from orthonormal
    rows. A frame still off by more than _FRAME_TOL, or singular, takes the
    SVD's. Transposes are copied: batched matmul is slower on strided views.
    """
    def gram(A):
        return A @ np.ascontiguousarray(A.transpose(0, 2, 1))

    w, V = np.linalg.eigh(gram(g))
    with np.errstate(divide="ignore", invalid="ignore"):
        F = ((V / np.sqrt(w)[:, None, :]) @ np.ascontiguousarray(V.transpose(0, 2, 1))) @ g
        F = 1.5 * F - 0.5 * gram(F) @ F
        off = np.abs(gram(F) - np.eye(g.shape[1])).max(axis=(1, 2))
    bad = ~(off <= _FRAME_TOL)                      # NaN: a singular draw
    if bad.any():
        u, _, vt = np.linalg.svd(g[bad], full_matrices=False)
        F[bad] = u @ vt
    return F
