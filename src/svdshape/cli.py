"""Command-line front end.

JSON results go to stdout (or --out FILE); a short human-readable table goes
to stderr. Exit codes: 0 success, 1 failed verification, 2 usage or parse
error (a bad option, a missing path, a malformed or unreadable file, config
key or option value), 3 numeric failure or domain error (input that parsed
but lies outside a model's domain, such as a non-positive-definite Theta or
a specimen at a chart pole), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, NumericError, ParseError, SeriesTruncationError

if TYPE_CHECKING:
    import numpy as np

    from .geometry import Mode, SampleOfShapes
    from .models import GeneratorSpec, ModelSpec
    from .zonal import SeriesControl

# Only the stdlib and .errors load with this module, so --help, usage errors
# and a bare import never load numpy or any third-party module. Each command
# imports the numerical modules it runs inside its body; a command still
# loads numpy and the modules it runs, only later.

SCHEMA_VERSION = 2

EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_NONCONVERGENCE = 4

MODELS = ("gaussian", "kotz")
MODES = ("reflection", "no-reflection")      # the values of geometry.Mode


class RunConfig(NamedTuple):
    """The common options of a command; built and checked by _build_config."""

    model: str = "gaussian"
    kotz_T: int = 2
    sigma2: float = 1.0
    theta_path: str | None = None
    mu_path: str | None = None
    mode: str = "reflection"
    max_degree: int = 60
    rel_tol: float = 1e-12
    seed: int = 0
    out: str | None = None

    @property
    def shape_mode(self) -> Mode:
        from .geometry import Mode
        return Mode(self.mode)

    @property
    def ctrl(self) -> SeriesControl:
        from .zonal import SeriesControl
        return SeriesControl(max_degree=self.max_degree, rel_tol=self.rel_tol)

    @property
    def kind(self) -> str:
        """The generator's name in the JSON of fit and test."""
        return self.model if self.model == "gaussian" else f"kotz-t{self.kotz_T}"

    def generator(self, M: int) -> GeneratorSpec:
        """The generator of --model and --kotz-T (read for Kotz only), at rate
        R = 1/2: a Kotz rate R with Sigma is the law of rate 1/2 with
        Sigma / (2R)."""
        from .models import GeneratorKind, GeneratorSpec
        if self.model == "gaussian":
            return GeneratorSpec(GeneratorKind.GAUSSIAN, M=M)
        return GeneratorSpec(GeneratorKind.KOTZ_TYPE_I, M=M, T=self.kotz_T)


def _read_config_file(path: str) -> dict:
    from .io import read_lines
    out = {}
    for i, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=i)
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_CONFIG_CASTS = {
    "model": str, "kotz_T": int, "sigma2": float,
    "theta": str, "mu": str, "mode": str, "max_degree": int,
    "tol": float, "seed": int, "out": str,
}

_CONFIG_FIELDS = {"theta": "theta_path", "mu": "mu_path", "tol": "rel_tol"}


def _build_config(config_path, **flags) -> RunConfig:
    """RunConfig from the config file's keys overridden by the given flags;
    RunConfig's defaults fill the rest. The one place a RunConfig is built,
    so its values are checked here: a bad one is a ParseError."""
    values = {}
    if config_path:
        raw = _read_config_file(config_path)
        for key, text in raw.items():
            if key not in _CONFIG_CASTS:
                raise ParseError(f"unknown config key {key!r}")
            try:
                values[key] = _CONFIG_CASTS[key](text)
            except ValueError:
                raise ParseError(f"config key {key!r} has a bad value {text!r}") from None
    values.update((key, val) for key, val in flags.items() if val is not None)
    config = RunConfig(**{_CONFIG_FIELDS.get(k, k): v for k, v in values.items()})
    if config.model not in MODELS:
        raise ParseError(f"config key 'model' has a bad value {config.model!r}")
    if config.mode not in MODES:
        raise ParseError(f"config key 'mode' has a bad value {config.mode!r}")
    if config.seed < 0:
        raise ParseError(f"seed must be a non-negative integer, got {config.seed}")
    if config.max_degree < 1:
        raise ParseError(f"max_degree must be a positive integer, got {config.max_degree}")
    for name in ("sigma2", "rel_tol"):
        if not math.isfinite(getattr(config, name)):
            raise ParseError(f"{name} must be finite, got {getattr(config, name)}")
    if config.rel_tol <= 0:
        raise ParseError(f"rel_tol must be positive, got {config.rel_tol}")
    return config


def _emit(config: RunConfig, payload: dict) -> None:
    import json
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, default=_jsonify)
    if not config.out:
        print(text)
        return
    try:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write {config.out!r}: {exc.strerror}") from None


def _jsonify(obj):
    if hasattr(obj, "tolist"):          # numpy arrays and scalars
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _table(lines: list[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _naming_specimen(items, fn):
    """fn(); a series error with a ``row`` gets that specimen of ``items`` named."""
    try:
        return fn()
    except (SeriesTruncationError, NumericError) as exc:
        if exc.row is None:
            raise
        raise type(exc)(f"specimen {items[exc.row][0]!r}: {exc}") from None


def _read_theta(config: RunConfig) -> np.ndarray | None:
    from .io import read_matrix
    return read_matrix(config.theta_path) if config.theta_path else None


def _load_sample(path: str, config: RunConfig, group_id: str,
                 theta: np.ndarray | None) -> SampleOfShapes:
    """The file's specimens, whitened by ``theta`` in one stacked pass."""
    import numpy as np

    from .geometry import SampleOfShapes, preprocess, svd_shape
    from .io import ingest_landmarks
    specimens = ingest_landmarks(path)
    Y = preprocess(np.stack([sp.coords for sp in specimens]), theta)
    items = []
    for sp, y in zip(specimens, Y):
        try:
            items.append((sp.id, svd_shape(y, config.shape_mode)))
        except DomainError as exc:
            raise type(exc)(f"specimen {sp.id!r}: {exc}") from None
    return SampleOfShapes(group_id, tuple(items))


def _build_model(config: RunConfig, Nm1: int, K: int,
                 theta: np.ndarray | None) -> ModelSpec:
    import numpy as np

    from .io import read_matrix
    from .models import ModelSpec
    mu = (read_matrix(config.mu_path) if config.mu_path
          else np.zeros((Nm1, K)))
    return ModelSpec(config.generator(Nm1 * K), config.sigma2 * np.eye(Nm1),
                     np.eye(K) if theta is None else theta, mu)


def cmd_shape(input_file, config_path, **flags):
    """Per-specimen SVD shape coordinates (r, W, u, Jacobian J and log J)."""
    config = _build_config(config_path, **flags)
    sample = _load_sample(input_file, config, "input", _read_theta(config))
    records = []
    for sid, sc in sample.items:
        # log J is -inf at a chart pole, which JSON cannot carry: null
        log_j = sc.log_jacobian if math.isfinite(sc.log_jacobian) else None
        records.append({
            "id": sid, "r": sc.r, "W": sc.W, "u": sc.u,
            "jacobian": sc.jacobian, "log_jacobian": log_j,
            "mode": sc.mode.value,
        })
    _emit(config, {"command": "shape", "specimens": records})
    _table([f"{sid:>16}  r={sc.r:.6g}  log J={sc.log_jacobian:.6g}"
            for sid, sc in sample.items])


def cmd_density(input_file, config_path, **flags):
    """Per-specimen shape log-density under the configured model."""
    import numpy as np

    from .densities import shape_logdensities
    config = _build_config(config_path, **flags)
    theta = _read_theta(config)
    sample = _load_sample(input_file, config, "input", theta)
    model = _build_model(config, sample.Nm1, sample.K, theta)
    logs, used, tails = _naming_specimen(sample.items, lambda: shape_logdensities(
        np.array([sc.u for _, sc in sample.items]), model, config.shape_mode, config.ctrl))
    records = [{"id": sid, "log_density": log, "series_degrees_used": degrees,
                "tail_bound": tail}
               for (sid, _), log, degrees, tail
               in zip(sample.items, logs.tolist(), used.tolist(), tails.tolist())]
    _emit(config, {"command": "density", "model": config.model,
                   "specimens": records})
    _table([f"{r['id']:>16}  log f = {r['log_density']:.10g}" for r in records])


def cmd_fit(input_file, config_path, **flags):
    """Maximum-likelihood location fit (sigma2 fixed by protocol)."""
    from .inference import OptimizerConfig, fit_location
    config = _build_config(config_path, **flags)
    sample = _load_sample(input_file, config, "input", _read_theta(config))
    fit = _naming_specimen(sample.items, lambda: fit_location(
        sample, config.generator(sample.Nm1 * sample.K), config.sigma2,
        OptimizerConfig(seed=config.seed), config.ctrl))
    _emit(config, {"command": "fit", "model": config.model, "kind": config.kind,
                   "mu_hat": fit.mu_hat, "sigma2": fit.sigma2,
                   "loglik": fit.loglik, "n_params": fit.n_params,
                   "bic_star": fit.bic_star, "converged": fit.converged,
                   "evaluations": fit.evaluations})
    _table([f"loglik = {fit.loglik:.6f}   BIC* = {fit.bic_star:.6f}   "
            f"converged = {fit.converged}"])
    if not fit.converged:
        sys.exit(EXIT_NONCONVERGENCE)


def cmd_compare(input_file, config_path, **flags):
    """Fit Gaussian, Kotz T=2 and Kotz T=3; rank by modified BIC."""
    from .inference import OptimizerConfig, evidence_grade, fit_location
    from .models import IsotropicKind
    config = _build_config(config_path, **flags)
    sample = _load_sample(input_file, config, "input", _read_theta(config))
    fits = {kind.value: _naming_specimen(sample.items, lambda: fit_location(
                sample, kind.generator(sample.Nm1 * sample.K), config.sigma2,
                OptimizerConfig(seed=config.seed), config.ctrl))
            for kind in IsotropicKind}
    ranked = sorted(fits, key=lambda k: fits[k].bic_star)
    pairwise = []
    for i, a in enumerate(ranked):
        for b in ranked[i + 1:]:
            delta = fits[b].bic_star - fits[a].bic_star
            pairwise.append({"preferred": a, "against": b,
                             "delta_bic_star": delta,
                             "grade": evidence_grade(delta).value})
    _emit(config, {
        "command": "compare",
        "models": {name: {"loglik": f.loglik, "bic_star": f.bic_star,
                          "mu_hat": f.mu_hat, "converged": f.converged}
                   for name, f in fits.items()},
        "ranking": ranked, "pairwise": pairwise})
    _table([f"{name:>10}  BIC* = {fits[name].bic_star:12.4f}" for name in ranked])
    if not all(f.converged for f in fits.values()):
        sys.exit(EXIT_NONCONVERGENCE)


def cmd_test(group1_file, group2_file, config_path, **flags):
    """Likelihood-ratio test of equal mean shapes across two groups."""
    from .inference import OptimizerConfig, lr_test_equal_means
    config = _build_config(config_path, **flags)
    theta = _read_theta(config)
    s1 = _load_sample(group1_file, config, "group1", theta)
    s2 = _load_sample(group2_file, config, "group2", theta)
    # an error's row numbers the pooled specimens
    res = _naming_specimen(s1.items + s2.items, lambda: lr_test_equal_means(
        s1, s2, config.generator(s1.Nm1 * s1.K), config.sigma2,
        OptimizerConfig(seed=config.seed), config.ctrl))
    _emit(config, {"command": "test", "kind": config.kind,
                   "statistic": res.statistic, "df": res.df,
                   "p_value": res.p_value,
                   "loglik_pooled": res.fit_pooled.loglik,
                   "loglik_group1": res.fit_group1.loglik,
                   "loglik_group2": res.fit_group2.loglik})
    _table([f"-2 log Lambda = {res.statistic:.4f}  df = {res.df}  "
            f"p = {res.p_value:.4f}"])
    if not (res.fit_pooled.converged and res.fit_group1.converged
            and res.fit_group2.converged):
        sys.exit(EXIT_NONCONVERGENCE)


def cmd_verify(config_path, mc_samples, sim_count, n_landmarks, k_dim, **flags):
    """Run the Monte Carlo oracles (normalization mass, simulation match)."""
    from .geometry import Mode
    from .verify import check_sim_count, mc_normalization, simulation_vs_density
    config = _build_config(config_path, **flags)
    check_sim_count(sim_count)          # before the Monte Carlo mass
    model = _build_model(config, n_landmarks - 1, k_dim, _read_theta(config))
    mass, se = mc_normalization(model, config.shape_mode, config.ctrl,
                                mc_samples, config.seed)
    mass_ok = abs(mass - 1.0) < max(3.0 * se, 0.02)
    rep = simulation_vs_density(model, Mode.REFLECTION, config.ctrl,
                                sim_count, config.seed)
    _emit(config, {
        "command": "verify",
        "normalization": {"mass": mass, "standard_error": se, "passed": mass_ok},
        "simulation": {
            "passed": rep.passed, "bins": rep.bins,
            "marginals": [{"angle_index": mr.angle_index, "chi2": mr.chi2,
                           "dof": mr.dof, "critical_99": mr.critical_99,
                           "passed": mr.passed} for mr in rep.marginals]}})
    _table([f"mass = {mass:.4f} +- {se:.4f}  ->  "
            f"{'pass' if mass_ok else 'FAIL'}",
            f"simulation match: {'pass' if rep.passed else 'FAIL'}"])
    if not (mass_ok and rep.passed):
        sys.exit(1)


def _existing_path(path: str) -> str:
    """A path that exists. One that exists but cannot be read (a directory,
    a file that is not UTF-8) fails when a command reads it, as a ParseError
    naming it (exit 2)."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--model", choices=MODELS)
    common.add_argument("--kotz-T", type=int, metavar="INT")
    common.add_argument("--sigma2", type=float, metavar="FLOAT")
    common.add_argument("--theta", type=_existing_path, metavar="PATH",
                        help="K x K column covariance matrix file (default identity)")
    common.add_argument("--mu", type=_existing_path, metavar="PATH",
                        help="(N-1) x K location matrix file (default zero)")
    common.add_argument("--mode", choices=MODES)
    common.add_argument("--max-degree", type=int, metavar="INT")
    common.add_argument("--tol", type=float, metavar="FLOAT")
    common.add_argument("--seed", type=int, metavar="INT")
    common.add_argument("--out", metavar="PATH")
    common.add_argument("--config", dest="config_path", type=_existing_path, metavar="PATH",
                        help="flat key=value config file; flags win")

    parser = argparse.ArgumentParser(prog="svdshape", description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                     required=True)

    def command(name, run, *files):
        sub = commands.add_parser(name, parents=[common], allow_abbrev=False,
                                  help=run.__doc__, description=run.__doc__)
        for dest in files:
            sub.add_argument(dest, type=_existing_path, metavar=dest.upper())
        sub.set_defaults(run=run)
        return sub

    command("shape", cmd_shape, "input_file")
    command("density", cmd_density, "input_file")
    command("fit", cmd_fit, "input_file")
    command("compare", cmd_compare, "input_file")
    command("test", cmd_test, "group1_file", "group2_file")
    verify = command("verify", cmd_verify)
    verify.add_argument("--mc-samples", type=int, default=50000, metavar="INT")
    verify.add_argument("--sim-count", type=int, default=20000, metavar="INT")
    verify.add_argument("--landmarks", dest="n_landmarks", type=int, default=3, metavar="INT",
                        help="N for the built-in verification model")
    verify.add_argument("--dimension", dest="k_dim", type=int, default=2, metavar="INT",
                        help="K for the built-in verification model")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Exact shape densities and likelihood inference for landmark data."""
    args = vars(_parser().parse_args(argv))
    del args["command"]
    try:
        args.pop("run")(**args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    except (SeriesTruncationError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERIC)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERIC)


def _main_with_keywords(args: list[str] | None = None, prog_name: str | None = None,
                        standalone_mode: bool = True) -> None:
    """``main(args)`` under the ``main.main(args=..., prog_name=...,
    standalone_mode=...)`` signature that ``bench/traced_cli.py`` calls;
    ``prog_name`` and ``standalone_mode`` change nothing."""
    main(args)


main.main = _main_with_keywords


def run() -> None:
    """Process entry of ``python -m svdshape.cli`` and the ``svdshape`` script.

    Runs :func:`main`. When it returns, or exits with an int or ``None``
    code, stdout and stderr are flushed and the process ends at once with
    ``os._exit``, skipping interpreter finalization (and so any ``atexit``
    handler). If a flush fails, the code is not an int, or any other
    exception escapes, the normal exit path runs: finalization flushes again
    and reports a failure as it always did. Call ``main(argv)`` to run a
    command in process.
    """
    try:
        main()
        code = 0
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:       # a closed or broken stream: finalization reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
