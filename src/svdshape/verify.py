"""Simulation oracles: forward sampling, Monte Carlo normalization mass, and
simulated-versus-analytic density agreement.

These are test infrastructure with a hard contract: disagreement beyond the
stated tolerances is a build failure, not advice. All sampling uses a
counter-based generator, so results repeat for a fixed seed. The box draws
also depend on _MC_CHUNK: each chunk draws its rows' first m - 1 angles,
then their last ones, so the chunk size changes which uniforms a row gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import batch_shape_logdensity
from .errors import DomainError
from .geometry import LandmarkSet, frame_to_angles, helmert_submatrix, theta_inv_sqrt
from .models import ModelSpec
from .special import chi_square_sf
from .zonal import SeriesControl


def _matrix_sqrt(A: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(A)
    if evals.min() <= 0:
        raise DomainError("matrix is not positive definite")
    return (evecs * np.sqrt(evals)) @ evecs.T


def _sample_centred(model: ModelSpec, count: int, seed: int) -> np.ndarray:
    """(count, N-1, K) centred configurations Y = L X drawn from the model
    (see :func:`sample_landmarks`), on the Philox stream of ``seed``."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    gen = model.generator
    Nm1, K, M = model.Nm1, model.K, model.M
    rng = np.random.Generator(np.random.Philox(seed))
    Z = rng.standard_normal((count, Nm1, K))
    norms = np.linalg.norm(Z.reshape(count, -1), axis=1)
    U = Z / norms[:, None, None]
    r2 = rng.gamma(shape=M / 2.0 + gen.T - 1, scale=1.0 / gen.R, size=count)
    sig_half = _matrix_sqrt(model.Sigma)
    th_half = _matrix_sqrt(model.Theta)
    return model.mu[None] + np.sqrt(r2)[:, None, None] * (sig_half @ U @ th_half)


def sample_landmarks(model: ModelSpec, count: int, seed: int) -> list[LandmarkSet]:
    """Draw landmark sets X (N x K) whose centered Y = L X follows the model.

    The elliptical law is a scale mixture: a Frobenius-uniform direction
    times the radial law r^2 ~ Gamma(M/2 + T - 1, rate R) (T = 1 recovers the
    Gaussian), colored by Sigma^{1/2} and Theta^{1/2} around mu. The lift to
    N landmarks prepends the zero Helmert component, so preprocessing
    recovers Y exactly.
    """
    Y = _sample_centred(model, count, seed)
    lift = helmert_submatrix(model.Nm1 + 1).T  # N x (N-1), exact left inverse of L
    return [LandmarkSet(id=f"sim-{i:05d}", coords=lift @ y) for i, y in enumerate(Y)]


# angle-box draws per batch_shape_logdensity call in the Monte Carlo oracles
_MC_CHUNK = 20000


def _box_draws(model: ModelSpec, ctrl: SeriesControl | None, samples: int, seed: int):
    """Yield (U, density) for chunks of at most _MC_CHUNK of ``samples``
    angle vectors u drawn uniformly on [0, pi]^(m-1) x [0, 2 pi] from the
    Philox stream of ``seed``, with the shape density at each."""
    m = model.M - 1
    rng = np.random.Generator(np.random.Philox(seed))
    for done in range(0, samples, _MC_CHUNK):
        b = min(_MC_CHUNK, samples - done)
        U = np.empty((b, m))
        U[:, :-1] = rng.uniform(0.0, math.pi, size=(b, m - 1))
        U[:, -1] = rng.uniform(0.0, 2.0 * math.pi, size=b)
        yield U, np.exp(batch_shape_logdensity(U, model, ctrl=ctrl))


def mc_normalization(model: ModelSpec, ctrl: SeriesControl | None = None,
                     mc_samples: int = 50000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mass of the reflection shape density over the angle box,
    and its standard error.

    Draws u uniformly on [0, pi]^(m-1) x [0, 2 pi] and averages
    exp(shape_logdensity) times the box volume; a correctly normalized
    density returns (1, small SE). This is the one-bin case of the marginal
    bin masses of :func:`simulation_vs_density`. The no-reflection density
    is exactly half of the reflection one.
    """
    if mc_samples < 100:
        raise DomainError("mc_samples must be >= 100")
    # one bin that holds every draw of angle 0
    masses, variances = _mc_bin_masses(model, ctrl, [np.array([0.0, 2.0 * math.pi])],
                                       mc_samples, seed)
    return float(masses[0][0]), math.sqrt(variances[0][0])


@dataclass(frozen=True)
class MarginalReport:
    angle_index: int
    chi2: float
    dof: int
    critical_99: float
    passed: bool
    observed: np.ndarray
    expected: np.ndarray


@dataclass(frozen=True)
class SimulationReport:
    sim_count: int
    bins: int
    marginals: tuple[MarginalReport, ...]

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.marginals)


def _chi2_critical_99(dof: int) -> float:
    # invert the survival function by bisection; dof is small. Once the
    # midpoint is no longer strictly inside, further steps change nothing
    lo, hi = 0.0, 10.0 * dof + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if chi_square_sf(mid, dof) > 0.01:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sine_power_integrals(p: int, edges: np.ndarray) -> np.ndarray:
    """int sin^p x dx over each interval [edges[i], edges[i+1]], exactly, by
    I_p = [-sin^(p-1) x cos x / p] + (p-1)/p I_(p-2), I_0 = b - a and
    I_1 = cos a - cos b.

    Each integral carries an absolute rounding error of a few ulps of
    b - a; an interval on which sin^p is tiny (near 0 or pi at large p) is
    therefore exact in absolute terms only.
    """
    if p < 0:
        raise DomainError(f"power must be non-negative, got {p}")
    a, b = edges[:-1], edges[1:]
    sin_a, cos_a, sin_b, cos_b = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
    I = [b - a, cos_a - cos_b]
    for q in range(2, p + 1):
        I.append((sin_a ** (q - 1) * cos_a - sin_b ** (q - 1) * cos_b) / q
                 + (q - 1) / q * I[q - 2])
    return I[p]


def check_sim_count(sim_count: int) -> None:
    """:class:`DomainError` unless ``sim_count`` reaches the 1000 specimens
    that :func:`simulation_vs_density` needs at least."""
    if sim_count < 1000:
        raise DomainError("sim_count must be >= 1000")


def simulation_vs_density(model: ModelSpec, ctrl: SeriesControl | None = None,
                          sim_count: int = 100000, seed: int = 0,
                          density_samples: int | None = None) -> SimulationReport:
    """Compare simulated shape angles against the analytic reflection
    density, 1-D marginal by marginal.

    The analytic angle density is the law of the polar angles of
    vec(Y H)/||Y|| with H Haar-uniform on O(K) (the density depends on u only
    through W W', i.e. it is the rotation-uniformized pre-shape law), so each
    simulated configuration gets an independent Haar right rotation before
    its angles are read off the free spherical chart.

    Expected bin masses are exact (:func:`sine_power_integrals`) when the
    model is central with isotropic Sigma (the density is then uniform on the
    box times the chart Jacobian), and come from a larger importance-sampling
    run otherwise.
    Each marginal is scored by Pearson chi-square against its 99% critical
    value.
    """
    Nm1, K, m = model.Nm1, model.K, model.M - 1
    check_sim_count(sim_count)
    Y = _sample_centred(model, sim_count, seed) @ theta_inv_sqrt(model.Theta)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    q, r = np.linalg.qr(rng.standard_normal((sim_count, K, K)))
    H = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]   # Haar on O(K)
    angles = frame_to_angles(Y @ H)
    bins = math.ceil(sim_count ** (1.0 / 3.0))
    central_iso = (model.trace_omega < 1e-12
                   and np.allclose(model.Sigma, model.Sigma[0, 0] * np.eye(Nm1)))
    edges_list = [np.linspace(0.0, math.pi if j < m - 1 else 2.0 * math.pi, bins + 1)
                  for j in range(m)]
    if not central_iso:
        mc_expected = _mc_bin_masses(model, ctrl, edges_list,
                                     density_samples or 10 * sim_count, seed + 2)
    reports = []
    for j in range(m):
        edges = edges_list[j]
        observed, _ = np.histogram(angles[:, j], bins=edges)
        if central_iso:
            if j < m - 1:
                # marginal density proportional to sin^p; the bins cover [0, pi]
                masses = sine_power_integrals(m - 1 - j, edges)
                expected = masses / masses.sum()
            else:
                expected = np.full(bins, 1.0 / bins)
            expected_var = np.zeros(bins)
        else:
            expected, expected_var = mc_expected[0][j], mc_expected[1][j]
        expected = expected * sim_count
        # denominator carries both the multinomial variance of the observed
        # counts and the Monte Carlo variance of the expected counts
        denom = expected + sim_count ** 2 * expected_var
        mask = expected > 5.0
        chi2 = float(np.sum((observed[mask] - expected[mask]) ** 2 / denom[mask]))
        dof = int(mask.sum()) - 1
        crit = _chi2_critical_99(dof)
        reports.append(MarginalReport(angle_index=j, chi2=chi2, dof=dof,
                                      critical_99=crit, passed=chi2 < crit,
                                      observed=observed, expected=expected))
    return SimulationReport(sim_count=sim_count, bins=bins,
                            marginals=tuple(reports))


def _mc_bin_masses(model: ModelSpec, ctrl: SeriesControl | None,
                   edges_list: list[np.ndarray], samples: int,
                   seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Expected marginal bin masses of the analytic density, by box MC.

    ``edges_list[j]`` bins angle j, and one shared importance sample serves
    every marginal. Returns the bin
    masses and the variance of each mass estimate (variance of the mean),
    so callers can fold the estimation noise into their test statistics.
    """
    vol = math.pi ** (model.M - 2) * 2.0 * math.pi
    sums = [np.zeros(len(edges) - 1) for edges in edges_list]
    sums_sq = [np.zeros(len(edges) - 1) for edges in edges_list]
    for U, w in _box_draws(model, ctrl, samples, seed):
        for j, edges in enumerate(edges_list):
            idx = np.clip(np.digitize(U[:, j], edges) - 1, 0, len(sums[j]) - 1)
            np.add.at(sums[j], idx, w)
            np.add.at(sums_sq[j], idx, w * w)
    masses = [s * vol / samples for s in sums]
    variances = [np.maximum(sq * vol * vol / samples - mass * mass, 0.0) / samples
                 for sq, mass in zip(sums_sq, masses)]
    return masses, variances
