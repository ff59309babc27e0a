"""Zonal polynomials on symmetric-matrix spectra and truncated zonal series.

Zonal polynomial values are always computed from eigenvalues, never from
matrix entries: every argument that appears in the densities enters only
through its spectrum, so orthogonal invariance is structural.

Every series here is sum_t c_t S_t(X) / t! with S_t(X) = sum_{|kappa|=t}
C_kappa(X) / (a)_kappa, and one evaluator, :func:`zonal_series_batch`, sums
it for a batch of spectra in blocks of degrees under one stop rule. Its log
S_t kernel comes from :func:`shared_sum_table`: the closed-form
:class:`PlanarZonalSums` (K = 2, a = 1), the Euler-angle quadrature
:class:`SpatialZonalSums` (K = 3, a = 3/2), which build nothing, or else
:class:`ZonalSumTable`, the memoized degree blocks of the monomial
expansion, whose coefficients come from the classical recursion for C_kappa
in the monomial basis (the alpha = 2 Jack family). :func:`zonal_poly` sums
the same coefficients by direct monomial enumeration: the tests' independent
oracle, as is the table for the K = 2 and K = 3 kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesTruncationError
from .special import LogSign, Partition, enumerate_partitions, gen_pochhammer_log, multivariate_gamma


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
        if self.rel_tol <= 0:
            raise DomainError("rel_tol must be positive")


@dataclass
class SeriesResult:
    """Converged series value in log-sign form plus convergence diagnostics."""

    log: float
    sign: float
    degrees_used: int
    tail_bound: float

    @property
    def value(self) -> float:
        if self.sign == 0.0:
            return 0.0
        return self.sign * math.exp(self.log)


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
    The tests' independent oracle for the series kernel: no route calls it.
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


def zonal_series(coeff, argument_eigenvalues, denominator_a: float,
                 ctrl: SeriesControl | None = None) -> SeriesResult:
    """Evaluate sum_t coeff(t) S_t(arg) / t!, S_t = sum_{|kappa|=t} C_kappa(arg) / (a)_kappa,
    as the batch of one of :func:`zonal_series_batch`, whose stop rule,
    errors and kernel domain it shares. ``coeff(t)`` returns a
    :class:`LogSign` and is called once for each degree that a block reaches.
    """
    def block(lo: int, hi: int) -> np.ndarray:
        return np.array([(c.log, c.sign) for c in map(coeff, range(lo, hi))]).T

    eigs = np.asarray(argument_eigenvalues, dtype=float).reshape(1, -1)
    log, sign, used, tail = zonal_series_batch(block, eigs, denominator_a, ctrl)
    return SeriesResult(float(log[0]), float(sign[0]), int(used[0]), float(tail[0]))


# degrees added per kernel call by zonal_series_batch
_DEGREE_BLOCK = 8


def zonal_series_batch(coeff_block, spectra, denominator_a: float,
                       ctrl: SeriesControl | None = None) -> tuple[np.ndarray, ...]:
    """Evaluate sum_t c_t S_t(X) / t! for every row X of ``spectra`` (batch, K);
    returns (log |sum|, sign, degrees used, tail bound), each (batch,).

    ``coeff_block(lo, hi)`` gives (log |c_t|, sign c_t) for t = lo..hi-1,
    each broadcastable to (batch, hi - lo). The degrees grow in blocks of
    _DEGREE_BLOCK, capped at ``ctrl.max_degree``, each one kernel call (see
    :func:`shared_sum_table`) for the rows still unconverged. A row stops at
    the first degree completing _TAIL_WINDOW consecutive terms below
    ``ctrl.rel_tol`` times its running total, and its tail bound is its last
    term relative to the sum; :class:`SeriesTruncationError` for the first
    ``row`` that does not stop within ``ctrl.max_degree``.
    """
    ctrl = ctrl or SeriesControl()
    spectra = np.asarray(spectra, dtype=float)
    batch = len(spectra)
    out = np.empty((4, batch))                      # log, sign, degrees used, tail
    # per unconverged row: its running total acc * exp(peak), peak its largest
    # term, and whether its last _TAIL_WINDOW - 1 terms were quiet
    rows = np.arange(batch)
    peak, acc = np.full((batch, 1), -np.inf), np.zeros((batch, 1))
    quiet = np.zeros((batch, _TAIL_WINDOW - 1), dtype=bool)
    lo = 0
    while len(rows):
        hi = min(lo + _DEGREE_BLOCK, ctrl.max_degree + 1)
        log_c, sign_c = (np.broadcast_to(x, (batch, hi - lo))[rows] for x in coeff_block(lo, hi))
        log_s = shared_sum_table(spectra.shape[1], hi - 1, denominator_a).logsums(spectra[rows])
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
        if hi > ctrl.max_degree and not done.all():
            i = int(np.argmin(done))                    # the first unconverged row
            raise SeriesTruncationError(
                f"zonal series did not converge within degree {ctrl.max_degree} "
                f"(last term log-magnitude {terms[i, -1]:.3g})", row=int(rows[i]),
                partial_log=float(running[i, -1]), partial_sign=float(np.sign(sums[i, -1])),
                tail_estimate=float(terms[i, -1]))
        rows, peak, acc = rows[~done], top[~done], sums[~done, -1:]
        quiet = flags[~done, 1 - _TAIL_WINDOW:]
        lo = hi
    log, sign, used, tail = out
    return log, sign, used.astype(int), tail


def hypergeom_0F1(b: float, matrix_eigenvalues, ctrl: SeriesControl | None = None) -> float:
    """Hypergeometric 0F1(b; X) of matrix argument, from the spectrum of X,
    by :func:`zonal_series`, whose domain (X >= 0, (b)_kappa > 0) and
    kernels it shares."""
    return zonal_series(lambda t: LogSign.one(), matrix_eigenvalues, b, ctrl).value


def _falling_factorial_log(p: float, k: int) -> LogSign:
    out = LogSign.one()
    for i in range(k):
        out = out.mul(LogSign.of(p - i))
        if out.sign == 0.0:
            return out
    return out


def _real_power_log(base: float, exponent: float) -> LogSign:
    if base > 0.0:
        return LogSign(exponent * math.log(base), 1.0)
    if base == 0.0:
        return LogSign.one() if exponent == 0.0 else LogSign.zero()
    if exponent != round(exponent):
        raise DomainError(f"negative base {base} with non-integer exponent {exponent}")
    sign = -1.0 if round(exponent) % 2 else 1.0
    return LogSign(exponent * math.log(-base), sign)


def log_stiefel_volume(n: int, K: int) -> float:
    """Log volume of the manifold of n x K frames with orthonormal rows."""
    if n > K:
        raise DomainError(f"frame rows n={n} cannot exceed columns K={K}")
    return n * math.log(2.0) + K * n / 2.0 * math.log(math.pi) - multivariate_gamma(n, K / 2.0).log


def power_trace_integral_series(p: float, Y_trace: float, X_gram_eigenvalues,
                                K: int, n: int, ctrl: SeriesControl | None = None) -> float:
    """Frame integral of [tr(Y + XH)]^p over n x K frames, as a zonal series.

    Equals Vol * sum_f sum_lam fall(p, 2f) (tr Y)^(p-2f) C_lam(XX'/4)
    / ((K/2)_lam f!), where fall is the falling factorial (the binomial-series
    coefficient; the rising-factorial reading fails the Monte Carlo
    cross-check). Requires tr Y != 0.
    """
    if Y_trace == 0.0:
        raise DomainError("tr Y must be nonzero for the power-trace series")

    def coeff(f: int) -> LogSign:
        fall = _falling_factorial_log(p, 2 * f)
        if fall.sign == 0.0:
            return fall
        return fall.mul(_real_power_log(Y_trace, p - 2 * f))

    quarter = [x / 4.0 for x in X_gram_eigenvalues]
    series = zonal_series(coeff, quarter, K / 2.0, ctrl)
    return series.value * math.exp(log_stiefel_volume(n, K))


def exp_trace_integral_series(Y_trace: float, X_gram_eigenvalues, K: int, n: int,
                              r: float, ctrl: SeriesControl | None = None) -> float:
    """Frame integral of tr(Y+XH) etr{r(Y+XH)} over n x K frames.

    Evaluates Vol * etr(rY) * [tr Y 0F1(K/2; r^2/4 XX')
    + sum_f 2f r^(2f-1) C_lam(XX'/4) / ((K/2)_lam f!)]; the second summand is
    d/dr of the 0F1 series, which is the reading consistent with the Monte
    Carlo oracle.
    """
    quarter = [x / 4.0 for x in X_gram_eigenvalues]
    scaled = [r * r * q for q in quarter]
    f01 = hypergeom_0F1(K / 2.0, scaled, ctrl)

    def deriv_coeff(f: int) -> LogSign:
        if f == 0:
            return LogSign.zero()
        return _real_power_log(r, 2 * f - 1).mul(LogSign.of(2.0 * f))

    deriv = zonal_series(deriv_coeff, quarter, K / 2.0, ctrl).value
    vol = math.exp(log_stiefel_volume(n, K))
    return vol * math.exp(r * Y_trace) * (Y_trace * f01 + deriv)


# bytes of one (spectra, table rows) float64 temporary in ZonalSumTable.logsums,
# which holds about four at once: its memory stays near 16 MB for any batch
_LOGSUMS_CHUNK_BYTES = 4 << 20


class ZonalSumTable:
    """The table kernel: log S_t(X) = log sum_{|kappa|=t} C_kappa(X) / (a)_kappa
    for batches of K-point spectra X through degree ``tmax``, for every (K, a)
    but K = 2, a = 1 (:class:`PlanarZonalSums`) and K = 3, a = 3/2
    (:class:`SpatialZonalSums`), for which it is the oracle.

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


class PlanarZonalSums:
    """The K = 2, a = 1 kernel in closed form, with :class:`ZonalSumTable`'s
    interface and domain: no table, any degree.

    O(2) is two circles, so the degree-t part of 0F1(1; D^2/4) is exact:
    S_t(lambda) = [(d1 + d2)^(2t) + (d1 - d2)^(2t)] / (2 t!) with
    d = sqrt(lambda). With s = d1 + d2 and q = |d1 - d2| / s in [0, 1],
    log S_t = 2t log s + log1p(q^(2t)) - log 2 - log t!, and every term
    is positive.
    """

    K = 2
    a = 1.0

    def __init__(self, tmax: int):
        if tmax < 0:
            raise DomainError("need tmax >= 0")
        self.tmax = tmax

    def logsums(self, spectra: np.ndarray) -> np.ndarray:
        """log S_t for each row of ``spectra``; returns (batch, tmax + 1)."""
        return self._terms(spectra, partials=False)[0]

    def logsums_and_partials(self, spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log S_t, log dS_t/dlambda_k), as :meth:`ZonalSumTable.logsums_and_partials`.

        With n = 2t - 1, the larger root d_b has dS_t/dlambda_b =
        t (s^n + (q s)^n) / (2 d_b t!), and the smaller has
        t s^(n-1) (1 - q^n) / (1 - q) / t!, a geometric sum in [1, n] taken
        through expm1 and log1p with 1 - q = 2 d_small / s, so nothing
        cancels; at a zero root it is the limit n.
        """
        return self._terms(spectra, partials=True)

    def _terms(self, spectra, partials: bool):
        spectra = _check_spectra(spectra, self.K)
        t = np.arange(self.tmax + 1, dtype=float)
        log_fact = _log_factorials(self.tmax + 1)
        big = np.argmax(spectra, axis=1)                # ties: either root
        rows = np.arange(len(spectra))
        d_big = np.sqrt(spectra[rows, big])[:, None]
        d_small = np.sqrt(spectra[rows, 1 - big])[:, None]
        empty = d_big[:, 0] == 0.0
        s = d_big + d_small
        with np.errstate(divide="ignore", invalid="ignore"):
            c = 2.0 * d_small / s                       # 1 - q
            q = (d_big - d_small) / s
            log_s = np.log(s)
            out = 2.0 * t * log_s + np.log1p(q ** (2.0 * t)) - math.log(2.0) - log_fact
            out[empty] = np.where(t == 0, 0.0, -np.inf)     # S_t(0) = 0, t >= 1
            if not partials:
                return out, None
            n = 2.0 * t - 1.0
            log_t = np.log(t)
            ds_big = (log_t + n * log_s + np.log1p(q ** n) - math.log(2.0)
                      - np.log(d_big) - log_fact)
            geometric = np.where(
                c > 0.0, np.log(-np.expm1(n * np.log1p(-c))) - np.log(c), np.log(n))
            ds_small = log_t + (n - 1.0) * log_s + geometric - log_fact
        log_ds = np.empty(out.shape + (2,))
        log_ds[rows, :, big] = ds_big
        log_ds[rows, :, 1 - big] = ds_small
        log_ds[:, t == 0] = -np.inf                     # S_0 = 1
        log_ds[empty] = np.where(t == 1, 0.0, -np.inf)[:, None]   # dS_1(0) = 1
        return out, log_ds


# above this degree the scaled terms of SpatialZonalSums can leave float64's
# normal range (a scan of degrees 100-500 met the first non-finite at 500)
_SPATIAL_MAX_DEGREE = 300


class SpatialZonalSums:
    """The K = 3, a = 3/2 kernel by exact quadrature over O(3), with
    :class:`ZonalSumTable`'s interface and domain: no table, degrees up to
    _SPATIAL_MAX_DEGREE.

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
    (tmax + 1)-point Gauss-Legendre rule integrates exactly.
    """

    K = 3
    a = 1.5

    def __init__(self, tmax: int):
        if not 0 <= tmax <= _SPATIAL_MAX_DEGREE:
            raise DomainError(f"need 0 <= tmax <= {_SPATIAL_MAX_DEGREE} for K = 3")
        self.tmax = tmax

    def logsums(self, spectra: np.ndarray) -> np.ndarray:
        """log S_t for each row of ``spectra``; returns (batch, tmax + 1).
        Rows go in chunks of _LOGSUMS_CHUNK_BYTES per temporary, which does not
        change the values."""
        return self._terms(_check_spectra(spectra, self.K), partial=False)

    def logsums_and_partials(self, spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log S_t, log dS_t/dlambda_k), as :meth:`ZonalSumTable.logsums_and_partials`.

        dS_t/dlambda_3 replaces C^(2k)/(2k)! in the integrand by
        k lambda_3^(k-1) c^(2k)/(2k)!, which needs no 1/sqrt(lambda) and so
        stays exact at zero eigenvalues. S_t is symmetric, so dS_t/dlambda_k
        is dS_t/dlambda_3 at lambda with entries k and 3 swapped.
        """
        spectra = _check_spectra(spectra, self.K)
        swapped = np.concatenate([spectra[:, [2, 1, 0]], spectra[:, [0, 2, 1]], spectra])
        log_ds = self._terms(swapped, partial=True).reshape(3, len(spectra), -1)
        return self._terms(spectra, partial=False), np.moveaxis(log_ds, 0, -1)

    def _terms(self, spectra: np.ndarray, partial: bool) -> np.ndarray:
        """log S_t, or log dS_t/dlambda_3 if ``partial``, for t = 0..tmax.

        Degree t sums the integrand's terms of sequence degree u = t - partial
        (the power of lambda). Each row is scaled by the largest of A^2/4,
        B^2/4 and C^2 over the nodes, and each term of sequence degree u by
        tilt^u, so that the terms stay in float64's range through
        _SPATIAL_MAX_DEGREE."""
        tmax = self.tmax
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
            out[:, 1] = -math.log(self.a)
        else:
            out[:, 0] = 0.0
        return out


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


def _check_spectra(spectra, K: int) -> np.ndarray:
    """``spectra`` as a (batch, K) float array; DomainError if it is not one
    or has a negative entry."""
    spectra = np.asarray(spectra, dtype=float)
    if spectra.ndim != 2 or spectra.shape[1] != K:
        raise DomainError(f"spectra must be (batch, {K})")
    if np.any(spectra < 0):
        raise DomainError("spectra must be non-negative")
    return spectra


def shared_sum_table(K: int, tmax: int, denominator_a: float | None = None
                     ) -> ZonalSumTable | PlanarZonalSums | SpatialZonalSums:
    """A new kernel for (K, a = K/2 by default) through exactly degree ``tmax``.

    For K = 2, a = 1 this is :class:`PlanarZonalSums` and for K = 3, a = 3/2
    :class:`SpatialZonalSums`; neither builds anything. Any other (K, a) gets
    a :class:`ZonalSumTable`, whose degree blocks are memoized, so only the
    first kernel to reach a degree pays for its block.
    """
    a = K / 2.0 if denominator_a is None else float(denominator_a)
    if (K, a) == (2, 1.0):
        return PlanarZonalSums(tmax)
    if (K, a) == (3, 1.5):
        return SpatialZonalSums(tmax)
    return ZonalSumTable(K, tmax, a)


def signed_logsumexp(logs: np.ndarray, signs: np.ndarray, axis: int = -1):
    """(log |sum|, sign) of sum_i signs_i exp(logs_i) along ``axis``."""
    logs = np.asarray(logs, dtype=float)
    signs = np.asarray(signs, dtype=float)
    peak = logs.max(axis=axis, keepdims=True)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    total = (signs * np.exp(logs - safe)).sum(axis=axis)
    sign = np.sign(total)
    with np.errstate(divide="ignore"):
        log = np.squeeze(safe, axis=axis) + np.log(np.abs(np.where(total == 0, 1.0, total)))
    log = np.where(sign == 0, -np.inf, log)
    return log, sign


# frames drawn per batch by stiefel_mc_integral
_STIEFEL_MC_CHUNK = 65536


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
        g = rng.standard_normal((b, n, K))
        u, _, vt = np.linalg.svd(g, full_matrices=False)
        frames = u @ vt
        vals = np.asarray(integrand(frames), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    se = math.sqrt(var / samples)
    return vol * mean, vol * se
