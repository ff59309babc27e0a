"""Acceptance gate.

Each test covers one release criterion at its stated tolerance and prints a
single pass/fail line directly to the terminal (bypassing capture), so a
full run reads as a checklist.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from svdshape.densities import shape_logdensity
from svdshape.geometry import preprocess, svd_shape
from svdshape import inference
from svdshape.inference import (EvidenceGrade, SampleOfShapes, bic_star, evidence_grade,
                                fit_location, lr_test_equal_means)
from svdshape.io import ingest_landmarks
from svdshape.models import GeneratorSpec, IsotropicKind, gaussian_model, h_value, kotz_model
from svdshape.oracle import (enumerate_partitions, exp_trace_integral_series,
                             gaussian_shape_logdensity, h_derivative,
                             isotropic_shape_logdensity, power_trace_integral_series,
                             radial_integral, series_shape_logdensities, stiefel_mc_integral,
                             zonal_poly)
from svdshape.verify import mc_normalization, simulation_vs_density
from svdshape.zonal import SeriesControl

CTRL = SeriesControl(max_degree=60)


@pytest.fixture
def report(capsys):
    def _report(ok: bool, label: str, detail: str = ""):
        with capsys.disabled():
            tail = f"  ({detail})" if detail else ""
            print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{tail}")
        assert ok, f"{label}: {detail}"
    return _report


def test_zonal_identity_suite(report):
    """Sum rule, homogeneity and permutation invariance of the zonal basis."""
    start = time.time()
    rng = np.random.default_rng(0)
    worst_sum, worst_hom, worst_perm = 0.0, 0.0, 0.0
    for dim in (2, 3):
        for _ in range(3):
            # symmetric positive definite keeps (tr X)^8 well conditioned;
            # negative spectra are exercised by homogeneity with c < 0
            B = rng.normal(size=(dim, dim))
            eigs = np.linalg.eigvalsh(B @ B.T + 0.1 * np.eye(dim))
            tr = float(eigs.sum())
            for f in range(1, 9):
                parts = enumerate_partitions(f, dim)
                total = sum(zonal_poly(k, eigs) for k in parts)
                worst_sum = max(worst_sum,
                                abs(total - tr ** f) / abs(tr) ** f)
                for kappa in parts:
                    base = zonal_poly(kappa, eigs)
                    scaled = zonal_poly(kappa, -1.7 * eigs)
                    worst_hom = max(worst_hom,
                                    abs(scaled - (-1.7) ** f * base)
                                    / max(abs(scaled), 1e-300))
                    permuted = zonal_poly(kappa, eigs[::-1])
                    worst_perm = max(worst_perm,
                                     abs(permuted - base)
                                     / max(abs(base), 1e-300))
    elapsed = time.time() - start
    ok = worst_sum < 1e-9 and worst_hom < 1e-12 and worst_perm < 1e-12 \
        and elapsed < 10.0
    report(ok, "zonal identity suite",
           f"sum rule {worst_sum:.1e}, homogeneity {worst_hom:.1e}, "
           f"permutation {worst_perm:.1e}, {elapsed:.1f}s")


def test_frame_integral_oracle(report):
    """Power-trace and exponential-trace frame integrals vs Haar Monte Carlo."""
    start = time.time()
    rng = np.random.default_rng(1)
    samples = 10 ** 6
    fails = []
    # part 1: integral of [tr(Y + X H)]^p over 2x2 orthogonal H
    cases = [(p, i) for p in (1, 2, 3) for i in range(2)]
    for idx, (p, _) in enumerate(cases):
        X = rng.normal(size=(2, 2)) * 0.6
        Y = rng.normal(size=(2, 2)) + np.eye(2) * 1.5   # keeps tr Y away from 0
        gram = np.linalg.eigvalsh(X @ X.T)
        series = power_trace_integral_series(p, float(np.trace(Y)), gram, 2, 2)
        mc, se = stiefel_mc_integral(
            lambda H: np.trace(Y[None] + X[None] @ H, axis1=1, axis2=2) ** p,
            2, 2, samples, seed=100 + idx)
        if abs(series - mc) > 3.0 * se:
            fails.append(f"power p={p}: {series:.6f} vs {mc:.6f}±{se:.1e}")
    # part 2: integral of tr(Y + X H) etr{r (Y + X H)}
    for idx in range(5):
        X = rng.normal(size=(2, 2)) * 0.5
        Y = rng.normal(size=(2, 2)) * 0.5
        r = 0.3 + 0.1 * idx
        gram = np.linalg.eigvalsh(X @ X.T)
        series = exp_trace_integral_series(float(np.trace(Y)), gram, 2, 2, r)

        def integrand(H, X=X, Y=Y, r=r):
            t = np.trace(Y[None] + X[None] @ H, axis1=1, axis2=2)
            return t * np.exp(r * t)

        mc, se = stiefel_mc_integral(integrand, 2, 2, samples, seed=200 + idx)
        if abs(series - mc) > 3.0 * se:
            fails.append(f"exp r={r}: {series:.6f} vs {mc:.6f}±{se:.1e}")
    elapsed = time.time() - start
    ok = not fails and elapsed < 120.0
    report(ok, "frame integral series vs Monte Carlo oracle",
           f"11 instances x 1e6 Haar samples within 3 SE, {elapsed:.1f}s"
           + ("; " + "; ".join(fails) if fails else ""))


def test_generator_suite(report):
    """Kotz T=1 degenerates to the Gaussian; derivatives and radial mass."""
    details = []
    g = IsotropicKind.GAUSSIAN.generator(6)
    k1 = GeneratorSpec(M=6, T=1)
    worst = 0.0
    for y in (0.0, 0.4, 2.0, 9.0):
        worst = max(worst, abs(h_value(g, y) - h_value(k1, y))
                    / max(h_value(g, y), 1e-300))
        for order in range(9):
            a, b = h_derivative(g, order, y), h_derivative(k1, order, y)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    for t in (0, 1, 3):
        a = radial_integral(g, t, 1.3, 0.4, 5, 1).value
        b = radial_integral(k1, t, 1.3, 0.4, 5, 1).value
        worst = max(worst, abs(a - b) / abs(a))
    rng = np.random.default_rng(2)
    mu = rng.normal(size=(3, 2)) * 0.5
    sc = svd_shape(rng.normal(size=(3, 2)))
    Sigma, Theta = np.eye(3) * 0.8, np.eye(2)
    da = shape_logdensity(sc.u, gaussian_model(Sigma, Theta, mu), ctrl=CTRL)
    db = shape_logdensity(sc.u, kotz_model(Sigma, Theta, mu, T=1), ctrl=CTRL)
    worst = max(worst, abs(da.log_density - db.log_density))
    ok = worst < 1e-10
    details.append(f"T=1 vs Gaussian {worst:.1e}")

    worst_fd = 0.0
    eps = 1e-5
    for T in (2, 3):
        gen = GeneratorSpec(M=8, T=T)
        for y in (0.5, 2.0, 7.0):
            fd = (h_value(gen, y + eps) - h_value(gen, y - eps)) / (2 * eps)
            # h' vanishes at y = (T-1)/R, so scale by h there instead
            scale = max(abs(fd), h_value(gen, y))
            worst_fd = max(worst_fd,
                           abs(h_derivative(gen, 1, y) - fd) / scale)
    ok = ok and worst_fd < 1e-6
    details.append(f"finite differences {worst_fd:.1e}")

    worst_mass = 0.0
    for M in (4, 10):
        for T in (1, 2, 3):
            gen = GeneratorSpec(M=M, T=T, R=0.6)
            surf = 2 * math.pi ** (M / 2.0) / math.gamma(M / 2.0)
            mass = radial_integral(gen, 0, 1.0, 0.0, M - 1, 1).value * surf
            worst_mass = max(worst_mass, abs(mass - 1.0))
    ok = ok and worst_mass < 1e-8
    details.append(f"radial mass {worst_mass:.1e}")
    report(ok, "generator suite", ", ".join(details))


def test_density_reduction_chain(report):
    """Every special-case route through the density agrees with the general one."""
    rng = np.random.default_rng(3)
    Sigma = np.array([[1.0, 0.3, 0.0], [0.3, 0.7, 0.1], [0.0, 0.1, 1.2]])
    Theta = np.array([[1.0, 0.15], [0.15, 0.9]])
    mu = rng.normal(size=(3, 2)) * 0.7
    sc = svd_shape(rng.normal(size=(3, 2)))

    model = gaussian_model(Sigma, Theta, mu)
    generic = shape_logdensity(sc.u, model, ctrl=CTRL).log_density
    closed = gaussian_shape_logdensity(sc.u, model, ctrl=CTRL).log_density
    d_closed = abs(generic - closed)

    sigma2 = 0.8
    iso_model = gaussian_model(sigma2 * np.eye(3), np.eye(2), mu)
    a = gaussian_shape_logdensity(sc.u, iso_model, ctrl=CTRL).log_density
    b = isotropic_shape_logdensity(sc.u, mu, sigma2, IsotropicKind.GAUSSIAN,
                                   ctrl=CTRL).log_density
    d_iso = abs(a - b)

    central_model = gaussian_model(Sigma, Theta, np.zeros((3, 2)))
    d_central = abs(shape_logdensity(sc.u, central_model).log_density
                    - series_shape_logdensities(sc.u[None], central_model, ctrl=CTRL)[0])

    vals = [shape_logdensity(sc.u, m, ctrl=CTRL).log_density
            for m in (central_model,
                      kotz_model(Sigma, Theta, np.zeros((3, 2)), T=2),
                      kotz_model(Sigma, Theta, np.zeros((3, 2)), T=3, R=0.8))]
    d_gen = max(vals) - min(vals)

    ok = d_closed < 1e-10 and d_iso < 1e-10 and d_central < 1e-12 \
        and d_gen < 1e-12
    report(ok, "density reduction chain",
           f"generic vs closed {d_closed:.1e}, closed vs isotropic {d_iso:.1e}, "
           f"central collapse {d_central:.1e}, "
           f"generator invariance {d_gen:.1e}")


def test_normalization_mass(report):
    """The shape density integrates to 1 over the angle chart."""
    start = time.time()
    cases = []
    for N in (3, 4):
        Nm1 = N - 1
        mu = 0.3 * np.arange(1, 2 * Nm1 + 1, dtype=float).reshape(Nm1, 2)
        for label, m in ((f"central N={N}",
                          gaussian_model(np.eye(Nm1), np.eye(2),
                                         np.zeros((Nm1, 2)))),
                         (f"noncentral N={N}",
                          gaussian_model(np.eye(Nm1), np.eye(2), mu))):
            cases.append((label, m))
    fails, summaries = [], []
    for i, (label, m) in enumerate(cases):
        mass, se = mc_normalization(m, mc_samples=300000, seed=40 + i)
        summaries.append(f"{label} {mass:.4f}±{se:.4f}")
        if abs(mass - 1.0) > 0.02 or abs(mass - 1.0) > 3.0 * se + 1e-3:
            fails.append(label)
    elapsed = time.time() - start
    ok = not fails and elapsed < 300.0
    # the naive radial exponent M+n+2t-1 (instead of M+2t-1) would scale the
    # central N=3 mass by 2^{n/2} Gamma((M+n)/2) / Gamma(M/2) = 4, so the
    # corrected exponent is the one consistent with unit mass
    report(ok, "normalization mass",
           "; ".join(summaries) + f"; naive-exponent variant would give central mass 4.0; "
           f"{elapsed:.0f}s")


def test_simulation_agreement(report):
    """1e5 simulated configurations match the analytic density marginal by marginal."""
    model = gaussian_model(np.eye(2), np.eye(2), np.zeros((2, 2)))
    rep = simulation_vs_density(model, sim_count=100000, seed=50)
    detail = ", ".join(f"angle {mr.angle_index}: chi2 {mr.chi2:.1f} "
                       f"< {mr.critical_99:.1f}" for mr in rep.marginals)
    report(rep.passed, "simulation vs analytic density (99% level)", detail)


def _synthetic_sample(gid, mu, sigma2, count, seed):
    rng = np.random.default_rng(seed)
    items = tuple(
        (f"{gid}-{i:03d}",
         svd_shape(mu + math.sqrt(sigma2) * rng.normal(size=mu.shape)))
        for i in range(count))
    return SampleOfShapes(gid, items)


def test_inference_protocol(report, monkeypatch):
    """Null p-values of the equal-means test are uniform; BIC* arithmetic exact."""
    start = time.time()
    sigma2 = 50.0
    mu_star = np.random.default_rng(42).normal(size=(5, 2)) * 8.0
    monkeypatch.setattr(inference, "_N_STARTS", 2)
    pvals, min_stat = [], np.inf
    for s in range(20):
        g1 = _synthetic_sample("g1", mu_star, sigma2, 23, seed=1000 + s)
        g2 = _synthetic_sample("g2", mu_star, sigma2, 23, seed=2000 + s)
        res = lr_test_equal_means(g1, g2, IsotropicKind.GAUSSIAN.generator(10), sigma2,
                                  CTRL)
        pvals.append(res.p_value)
        min_stat = min(min_stat, res.statistic)
    ks = stats.kstest(pvals, stats.uniform.cdf)
    bic_err = max(
        abs(bic_star(ll, k, n) - (-2 * ll + k * (math.log(n + 2) - math.log(24))))
        for ll in (-310.4, 0.0, 55.2) for k in (0, 10) for n in (5, 23, 46))
    elapsed = time.time() - start
    ok = ks.pvalue > 0.05 and min_stat >= -1e-6 and bic_err < 1e-12
    report(ok, "inference protocol (20 null replicates)",
           f"KS p={ks.pvalue:.3f}, min statistic {min_stat:.2e}, "
           f"BIC* arithmetic {bic_err:.1e}, {elapsed:.0f}s")


def _reference_dataset_paths():
    env1, env2 = (os.environ.get("SVDSHAPE_GROUP1"),
                  os.environ.get("SVDSHAPE_GROUP2"))
    if env1 and env2 and os.path.exists(env1) and os.path.exists(env2):
        return env1, env2
    here = os.path.dirname(__file__)
    p1 = os.path.join(here, "data", "group1.txt")
    p2 = os.path.join(here, "data", "group2.txt")
    if os.path.exists(p1) and os.path.exists(p2):
        return p1, p2
    return None


def test_reference_dataset_reproduction(report, capsys):
    """With the classical two-group vertebra landmarks supplied, model
    selection must prefer Kotz T=3 over Gaussian with a very strong grade and
    the equal-means test must not reject under the sigma2=50 protocol."""
    paths = _reference_dataset_paths()
    if paths is None:
        with capsys.disabled():
            print("\n[SKIP] reference dataset reproduction  (no landmark files: "
                  "set SVDSHAPE_GROUP1/SVDSHAPE_GROUP2 or add "
                  "tests/data/group{1,2}.txt)")
        pytest.skip("reference landmark files not supplied")
    sigma2 = 50.0
    samples = []
    for gid, path in zip(("group1", "group2"), paths):
        specimens = ingest_landmarks(path)
        samples.append(SampleOfShapes(
            gid, tuple((sp.id, svd_shape(preprocess(sp)))
                       for sp in specimens)))
    small = min(samples, key=lambda s: s.size)
    M = small.Nm1 * small.K
    fits = {kind: fit_location(small, kind.generator(M), sigma2, CTRL)
            for kind in (IsotropicKind.GAUSSIAN, IsotropicKind.KOTZ_T3)}
    delta = (fits[IsotropicKind.GAUSSIAN].bic_star
             - fits[IsotropicKind.KOTZ_T3].bic_star)
    res = lr_test_equal_means(samples[0], samples[1], IsotropicKind.KOTZ_T3.generator(M),
                              sigma2, CTRL)
    ok = delta > 0 and evidence_grade(delta) is EvidenceGrade.VERY_STRONG \
        and res.p_value > 0.05
    report(ok, "reference dataset reproduction",
           f"BIC* delta {delta:.2f} ({evidence_grade(max(delta, 0.0)).value}), "
           f"equal-means p={res.p_value:.3f}")
