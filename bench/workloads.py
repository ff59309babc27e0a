"""The benchmark's workloads: seeded inputs, CLI arguments and correctness gates.

Each workload turns the benchmark seed into input files, names the
``svdshape`` command line that consumes them, and checks the command's JSON
output. The program under test sees only the files.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

FIT_SIGMA2 = 50.0
# N=4 and 12 specimens rather than the protocol's N=6 and 23: a protocol-size
# fit takes 15-20 s, too long to repeat within one run, while this one (about
# 2,400 evaluations) takes about 3 s with the interpreter start
FIT_SPECIMENS = 12
FIT_LANDMARKS = 4
# Frobenius norm of the centred mean configuration: the typical norm of a
# 4x2 mean with N(0, 8^2) entries. A random norm can put a group past the
# degree-60 series limit of the fitted likelihood, which the CLI rightly
# reports as a numeric failure (exit 3).
FIT_MEAN_NORM = 20.0
DENSITY_SIGMA2 = 0.5
# |mu Theta^-1 mu'| scale of the density workload; with DENSITY_SIGMA2 and the
# spectra below it puts the per-specimen series at degrees 26-31
DENSITY_MU_SCALE = 1.2
DENSITY_SPECIMENS = 6
# Singular values of each density specimen's whitened configuration, the same
# for every seed. With mu Theta^-1 mu' = c^2 I the noncentrality eigenvalues
# depend on a specimen only through these, so every seed runs the series to
# the same degrees and the seed cannot change the amount of work.
DENSITY_SPECTRA_SEED = 12345
VERIFY_MU_NORM = 1.5
# One 10,000-row batch each for the mass and for the importance sample (10 x
# the simulation count), half the 20,000-row chunk of the default counts: the
# (batch, table rows) temporary still sets peak RSS, and a command takes about
# 3.5 s instead of 18-20 s. The simulation count also sets the per-specimen
# geometry loop and the bins.
VERIFY_MC_SAMPLES = 10000
VERIFY_SIM_COUNT = 1000
# The CLI judges verify at 99% per marginal and 3 standard errors for the
# mass, so a correct program fails about one seed in twenty (p-values
# measured uniform, KS p=0.24 over 50 marginals). The gate re-judges the same
# statistics at a false-alarm rate near 1e-5 per run; a wrong density still
# drives a chi-square far past it.
VERIFY_MARGINAL_P = 1e-6
VERIFY_MASS_SE = 5.0

DENSITY_TOL = 1e-9          # absolute, on each log density
LOGLIK_REL_TOL = 1e-9       # re-evaluated loglik versus the reported one
LOGLIK_FLOOR_TOL = 1e-6     # reported loglik versus the recorded reference


class GateError(Exception):
    """A workload output failed its correctness gate."""


def _rng(seed: int, case: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) * 31 ** i for i, c in enumerate(workload)) % (2 ** 32)
    return np.random.default_rng([seed, case, tag])


def write_landmarks(path: str, X: np.ndarray) -> None:
    """Landmark text file: header ``N K S`` then one block per specimen.

    Written here, not with ``svdshape.io.emit_landmarks``, so that the inputs
    do not depend on the program under test."""
    S, N, K = X.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{N} {K} {S}\n")
        for i in range(S):
            fh.write(f"# s{i:03d}\n")
            for row in X[i]:
                fh.write(" ".join(format(x, ".17g") for x in row) + "\n")


def write_matrix(path: str, A: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in A:
            fh.write(" ".join(format(x, ".17g") for x in row) + "\n")


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))[None, :]


def _sym_sqrt(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(A)
    return (V * np.sqrt(w)) @ V.T


def _helmert(n: int) -> np.ndarray:
    """(n-1) x n matrix with orthonormal rows orthogonal to the ones vector."""
    L = np.zeros((n - 1, n))
    for j in range(1, n):
        L[j - 1, :j] = -1.0 / math.sqrt(j * (j + 1))
        L[j - 1, j] = j / math.sqrt(j * (j + 1))
    return L


# --- input generators: (seed, case, workdir, out_path) -> CLI arguments ----

def fit_protocol_inputs(seed: int, case: int, workdir: str, out: str) -> list[str]:
    """One group of N=4, K=2, 12 specimens, sigma2=50 around a seeded mean
    configuration of fixed size."""
    rng = _rng(seed, case, "fit-protocol")
    mean = rng.normal(size=(FIT_LANDMARKS, 2))
    mean -= mean.mean(axis=0)
    mean *= FIT_MEAN_NORM / np.linalg.norm(mean)
    X = mean + math.sqrt(FIT_SIGMA2) * rng.normal(size=(FIT_SPECIMENS, FIT_LANDMARKS, 2))
    data = os.path.join(workdir, "group.txt")
    write_landmarks(data, X)
    return ["fit", data, "--model", "kotz", "--kotz-T", "3",
            "--sigma2", repr(FIT_SIGMA2), "--out", out]


def density_spectra() -> np.ndarray:
    """Unit-norm singular values, one row per density specimen, largest first."""
    s = np.abs(np.random.default_rng(DENSITY_SPECTRA_SEED).normal(
        size=(DENSITY_SPECIMENS, 3)))
    s = -np.sort(-s, axis=1)
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def density_k3_inputs(seed: int, case: int, workdir: str, out: str) -> list[str]:
    """Specimens with N=4, K=3 under a seeded Theta and a seeded non-central
    mu whose scale mu Theta^-1 mu' = c^2 I is fixed.

    Specimen i is Q diag(s_i) R' with seeded rotations Q, R and the fixed
    spectrum s_i of ``density_spectra``, mapped back through the Helmert
    matrix and Theta^(1/2), then scaled and translated at random."""
    rng = _rng(seed, case, "density-k3")
    A = rng.normal(size=(3, 3))
    theta = A @ A.T / 3.0 + np.eye(3)
    root = _sym_sqrt(theta)
    mu = DENSITY_MU_SCALE * _random_rotation(rng, 3) @ root
    L = _helmert(4)
    X = np.array([
        math.exp(rng.normal()) * (L.T @ _random_rotation(rng, 3) @ np.diag(s)
                                  @ _random_rotation(rng, 3).T @ root)
        + rng.normal(size=3)[None, :]
        for s in density_spectra()])
    paths = {name: os.path.join(workdir, f"{name}.txt")
             for name in ("specimens", "mu", "theta")}
    write_landmarks(paths["specimens"], X)
    write_matrix(paths["mu"], mu)
    write_matrix(paths["theta"], theta)
    return ["density", paths["specimens"], "--model", "kotz", "--kotz-T", "2",
            "--sigma2", repr(DENSITY_SIGMA2), "--mu", paths["mu"],
            "--theta", paths["theta"], "--out", out]


def verify_noncentral_inputs(seed: int, case: int, workdir: str, out: str) -> list[str]:
    """The built-in N=4, K=2 verification model with a seeded 3x2 mu of
    fixed Frobenius norm."""
    rng = _rng(seed, case, "verify-noncentral")
    mu = rng.normal(size=(3, 2))
    mu *= VERIFY_MU_NORM / np.linalg.norm(mu)
    path = os.path.join(workdir, "mu.txt")
    write_matrix(path, mu)
    return ["verify", "--landmarks", "4", "--mu", path,
            "--mc-samples", str(VERIFY_MC_SAMPLES),
            "--sim-count", str(VERIFY_SIM_COUNT),
            "--seed", str(seed + case), "--out", out]


# --- correctness gates: raise GateError on a bad output ---------------------

def _load_output(out: str) -> dict:
    try:
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise GateError(f"no readable JSON output: {exc}") from exc


def gate_fit(out: str, args: list[str], reference: dict | None) -> None:
    """Converged, the reported loglik re-evaluates at mu_hat to 1e-9
    relative, and it is no lower than the recorded reference."""
    from svdshape import (IsotropicKind, SampleOfShapes, ingest_landmarks,
                          log_likelihood, preprocess, svd_shape)
    res = _load_output(out)
    if res.get("converged") is not True:
        raise GateError("fit did not report converged")
    loglik = float(res["loglik"])
    specimens = ingest_landmarks(args[1])
    sample = SampleOfShapes("bench", tuple((sp.id, svd_shape(preprocess(sp)))
                                           for sp in specimens))
    again = log_likelihood(sample, np.asarray(res["mu_hat"]), FIT_SIGMA2,
                           IsotropicKind.KOTZ_T3)
    if not abs(again - loglik) <= LOGLIK_REL_TOL * abs(loglik):
        raise GateError(f"loglik {loglik!r} re-evaluates to {again!r} at mu_hat")
    if reference is not None and loglik < reference["loglik"] - LOGLIK_FLOOR_TOL:
        raise GateError(f"loglik {loglik!r} is below the recorded "
                        f"{reference['loglik']!r}")


def density_oracle(args: list[str], res: dict) -> np.ndarray:
    """The same log densities through the batch route (ZonalSumTable), an
    evaluation path independent of zonal_series and zonal_poly, truncated at
    the highest degree the reported series used."""
    degree = max(int(r.get("series_degrees_used", 60)) for r in res["specimens"])
    return np.array(_batch_route(tuple(args), max(degree, 1)))


@functools.lru_cache(maxsize=4)   # a traced run gates the same input twice
def _batch_route(args: tuple[str, ...], degree: int) -> tuple[float, ...]:
    from svdshape import (SeriesControl, SvdShapeError, batch_shape_logdensity,
                          ingest_landmarks, kotz_model, preprocess,
                          read_matrix, svd_shape)
    theta = read_matrix(args[args.index("--theta") + 1])
    mu = read_matrix(args[args.index("--mu") + 1])
    U = np.array([svd_shape(preprocess(sp, theta)).u
                  for sp in ingest_landmarks(args[1])])
    model = kotz_model(DENSITY_SIGMA2 * np.eye(3), theta, mu, T=2)
    try:
        values = batch_shape_logdensity(U, model,
                                        ctrl=SeriesControl(max_degree=degree))
    except SvdShapeError as exc:
        raise GateError(f"batch-route oracle failed: {exc}") from exc
    return tuple(values)


def gate_density(out: str, args: list[str], reference: dict | None) -> None:
    """Every specimen has a finite log density within 1e-9 of the batch-route
    oracle and, when one is recorded for this input, of the recorded value."""
    res = _load_output(out)
    values = np.array([float(r["log_density"]) for r in res.get("specimens", [])])
    if len(values) != DENSITY_SPECIMENS or not np.all(np.isfinite(values)):
        raise GateError(f"expected {DENSITY_SPECIMENS} finite log densities, "
                        f"got {values!r}")
    expected = {"batch-route oracle": density_oracle(args, res)}
    if reference is not None:
        expected["recorded value"] = np.asarray(reference["log_density"])
    for name, want in expected.items():
        worst = float(np.max(np.abs(values - want)))
        if not worst <= DENSITY_TOL:
            raise GateError(f"log density differs from the {name} by {worst:.3g}")


def gate_verify(out: str, args: list[str], reference: dict | None) -> None:
    """The Monte Carlo mass is within VERIFY_MASS_SE standard errors of 1
    (or 0.02, as in the CLI) and every simulated marginal's chi-square has a
    p-value of at least VERIFY_MARGINAL_P."""
    from scipy import stats
    res = _load_output(out)
    norm = res["normalization"]
    if not abs(norm["mass"] - 1.0) <= max(VERIFY_MASS_SE * norm["standard_error"], 0.02):
        raise GateError(f"mass check failed: {norm!r}")
    for m in res["simulation"]["marginals"]:
        p = stats.chi2.sf(m["chi2"], m["dof"])
        if not p >= VERIFY_MARGINAL_P:
            raise GateError(f"simulation check failed on angle {m['angle_index']}: "
                            f"chi2 {m['chi2']:.4g} on {m['dof']} dof, p={p:.3g}")


def reference_entry(workload: str, out: str) -> dict:
    """The values a reference records for one output of ``workload``."""
    res = _load_output(out)
    if workload == "fit-protocol":
        return {"loglik": res["loglik"]}
    if workload == "density-k3":
        return {"log_density": [r["log_density"] for r in res["specimens"]]}
    return {}


@dataclass(frozen=True)
class Workload:
    """``cases`` distinct inputs come from one seed; an untraced run cycles
    through them, so that its median evens out input-dependent work."""

    name: str
    why: str
    make_inputs: Callable[[int, int, str, str], list[str]]
    gate: Callable[[str, list[str], dict | None], None]
    exit_codes: tuple[int, ...] = (0,)    # exits after which the gate runs
    cases: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("fit-protocol",
             "the paper's inference unit: Nelder-Mead over IsotropicLikelihood "
             "and 12-row ZonalSumTable.logsums; no scalar series",
             # Nelder-Mead's evaluation count varies from 2,100 to 2,900
             # between groups; a median over up to six groups narrows that
             fit_protocol_inputs, gate_fit, cases=6),
    Workload("density-k3",
             "scalar shape_logdensity -> zonal_series -> zonal_poly and the cold "
             "K=3 zonal table build, Kotz radial sums; no optimizer, no logsums",
             density_k3_inputs, gate_density),
    Workload("verify-noncentral",
             "logsums on 10,000-row batches (sets peak RSS) and the per-specimen "
             "geometry loop; Monte Carlo mass and simulation oracles",
             verify_noncentral_inputs, gate_verify,
             exit_codes=(0, 1)),    # 1: the CLI's own 99% verdict failed
)}
