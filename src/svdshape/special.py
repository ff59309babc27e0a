"""The chi-square survival function of the likelihood-ratio test and the
simulation check."""

from __future__ import annotations

import math

from .errors import DomainError


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
