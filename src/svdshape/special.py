"""The scalar special functions used by every series term.

All gamma-bearing quantities are computed in log space with explicit sign
tracking (:class:`LogSign`), because the density prefactors combine ratios of
multivariate gamma functions and powers of pi that overflow in linear space
for moderate dimensions and series degrees.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError


class LogSign(NamedTuple):
    """A real number stored as (log magnitude, sign in {-1, 0, +1})."""

    log: float
    sign: float

    @staticmethod
    def of(x: float) -> "LogSign":
        if x == 0.0:
            return LogSign(-math.inf, 0.0)
        return LogSign(math.log(abs(x)), math.copysign(1.0, x))

    @staticmethod
    def zero() -> "LogSign":
        return LogSign(-math.inf, 0.0)

    def mul(self, other: "LogSign") -> "LogSign":
        s = self.sign * other.sign
        if s == 0.0:
            return LogSign.zero()
        return LogSign(self.log + other.log, s)

    def scale(self, log_factor: float) -> "LogSign":
        if self.sign == 0.0:
            return self
        return LogSign(self.log + log_factor, self.sign)

    @property
    def value(self) -> float:
        if self.sign == 0.0:
            return 0.0
        return self.sign * math.exp(self.log)


def multivariate_gamma(n: int, a: float) -> LogSign:
    """Log of the multivariate gamma Gamma_n[a] = pi^{n(n-1)/4} prod Gamma(a-(i-1)/2).

    Negative non-integer arguments are allowed (finite gamma values, sign
    tracked); a pole of any factor raises :class:`DomainError` naming it.
    """
    if n < 1:
        raise DomainError(f"dimension n must be positive, got {n}")
    log = n * (n - 1) / 4.0 * math.log(math.pi)
    sign = 1.0
    for i in range(1, n + 1):
        x = a - (i - 1) / 2.0
        if x <= 0.0 and x == math.floor(x):
            raise DomainError(
                f"multivariate_gamma({n}, {a}): factor Gamma({x}) (i={i}) is a pole"
            )
        log += math.lgamma(x)
        # lgamma gives log|Gamma|; Gamma(x) < 0 exactly on (-2k-1, -2k), k >= 0.
        if x < 0.0 and math.floor(x) % 2 == 1:
            sign = -sign
    return LogSign(log, sign)


def chi_square_sf(x: float, df: int) -> float:
    """Survival function of the chi-square law with an integer number ``df``
    of degrees of freedom, in closed form.

    With y = x/2, Q = e^-y sum_{j<m} y^j / j! for df = 2m, and
    Q = erfc(sqrt y) + e^-y sum_{j<m} y^(j+1/2) / Gamma(j+3/2) for
    df = 2m+1. The terms are summed in log space, shifted by the largest.
    """
    if df != math.floor(df):
        raise DomainError(f"degrees of freedom must be an integer, got {df}")
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    if x < 0:
        raise DomainError(f"chi-square statistic must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    m, odd = divmod(int(df), 2)
    y = x / 2.0
    log_y = math.log(y)
    offset = 0.5 if odd else 0.0
    logs = [(j + offset) * log_y - y - math.lgamma(j + offset + 1.0)
            for j in range(m)]
    top = max(logs, default=0.0)
    total = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    return total + math.erfc(math.sqrt(y)) if odd else total
