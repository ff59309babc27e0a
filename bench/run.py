"""Seeded end-to-end benchmark of the ``svdshape`` command line.

    python3 bench/run.py --workload fit-protocol --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 0 --trace 1

Each workload (see ``workloads.py``) turns the seed into input files and runs
one ``svdshape`` command on them as a child process, one child at a time:
twice untimed, then cycling through the cases the seed makes, at least
``MIN_COMMANDS`` times and then while another command fits in
``--seconds``. Every timed output passes through the workload's correctness
gate.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` of the command (medians over the timed commands of the run)
and ``setup_s``, the median over several fresh interpreters of
``import svdshape.cli``. ``--trace 1`` runs the command once untraced and
once under ``traced_cli.py`` and reports the per-layer metrics of
``tracing.py`` plus the tracing overhead (traced minus untraced wall time).

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A run record
with the machine, the program version and every sample is written to
``bench/out/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference.json")

SETUP_REPS = 3
WARMUP_COMMANDS = 2
MIN_COMMANDS = 3
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


@dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    minor_faults: int
    exit_code: int


def blas_threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = str(blas_threads())
    return env


def run_child(argv: list[str], log_path: str) -> Sample:
    """Run ``argv`` to completion; wall time from start to exit plus the
    child's own CPU time and peak resident memory."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  usage.ru_minflt, proc.returncode)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "svdshape.cli", *args]


def traced_argv(trace_path: str, args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(BENCH, "traced_cli.py"), trace_path,
            "--", *args]


def load_references(workload: str, seed: int) -> list | None:
    """Per-case values recorded for this workload and seed, if any."""
    try:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


@dataclass
class Case:
    """One input made from the seed: CLI arguments, output path, reference."""

    args: list[str]
    out: str
    reference: dict | None


def make_cases(workload, seed: int, workdir: str, count: int) -> list[Case]:
    references = load_references(workload.name, seed)
    cases = []
    for i in range(count):
        casedir = os.path.join(workdir, f"case{i}")
        os.makedirs(casedir, exist_ok=True)
        out = os.path.join(casedir, "out.json")
        cases.append(Case(workload.make_inputs(seed, i, casedir, out), out,
                          references[i] if references else None))
    return cases


def run_checked(workload, argv: list[str], case: Case, log: str,
                failures: list[str], *stale: str) -> Sample:
    """Run one command on ``case`` and gate its output; a failure's reason is
    appended to ``failures``."""
    from workloads import GateError
    for path in (case.out, *stale):
        if os.path.exists(path):
            os.remove(path)
    sample = run_child(argv, log)
    if sample.exit_code not in workload.exit_codes:
        failures.append(f"exit code {sample.exit_code}")
        return sample
    try:
        workload.gate(case.out, case.args, case.reference)
    except GateError as exc:
        failures.append(str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        failures.append(f"malformed output: {exc!r}")
    return sample


def measure_setup(workdir: str) -> list[float]:
    """Wall time of a fresh ``import svdshape.cli``, SETUP_REPS times, after
    one untimed import that fills the bytecode cache; empty if the import
    fails."""
    argv = [sys.executable, "-c", "import svdshape.cli"]
    log = os.path.join(workdir, "setup.log")
    if run_child(argv, log).exit_code != 0:
        return []
    return [run_child(argv, log).wall_s for _ in range(SETUP_REPS)]


def run_untraced(workload, seed: int, seconds: float, workdir: str) -> dict:
    """WARMUP_COMMANDS untimed commands, then commands cycling through the
    cases: MIN_COMMANDS of them, then more while another fits in ``seconds``.

    ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are medians over the timed
    commands: on a shared host a single command runs up to 30% slower or
    faster than the one before it."""
    cases = make_cases(workload, seed, workdir, workload.cases)
    log = os.path.join(workdir, "cli.log")
    setup = measure_setup(workdir)
    failures = []
    if not setup:
        failures.append("import svdshape.cli failed")
    else:
        # untimed, right before the timed commands: the first two commands
        # after a pause run up to 30% slower (verify-noncentral's first
        # touches of its 670 MB, mostly)
        for _ in range(WARMUP_COMMANDS):
            run_child(cli_argv(cases[0].args), log)
    samples, spent = [], 0.0
    while len(samples) < (MIN_COMMANDS if setup else len(cases)) or (
            setup and spent + samples[-1].wall_s <= seconds):
        case = cases[len(samples) % len(cases)]
        samples.append(run_checked(workload, cli_argv(case.args), case, log, failures))
        spent += samples[-1].wall_s
    metrics = {}
    if setup:
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in samples),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "setup_s": statistics.median(setup),
        }
    return {"samples": [{"case": i % len(cases), **asdict(s)}
                        for i, s in enumerate(samples)],
            "setup_samples": setup, "failures": failures,
            "attempted": len(samples),
            "references": sum(c.reference is not None for c in cases),
            "metrics": {k: (v, END_TO_END_UNITS[k], len(setup) if k == "setup_s"
                            else len(samples)) for k, v in metrics.items()}}


def run_traced(workload, seed: int, workdir: str) -> dict:
    """The first case WARMUP_COMMANDS times untimed, then once untraced and
    once traced, for the per-layer metrics and the tracing overhead."""
    from tracing import PER_LAYER_UNITS, layer_metrics
    case = make_cases(workload, seed, workdir, 1)[0]
    trace_path = os.path.join(workdir, "trace.json")
    log = os.path.join(workdir, "cli.log")
    failures = []
    for _ in range(WARMUP_COMMANDS):         # untimed, as in run_untraced
        run_child(cli_argv(case.args), log)
    samples = [run_checked(workload, argv, case, log, failures, trace_path)
               for argv in (cli_argv(case.args), traced_argv(trace_path, case.args))]
    try:
        with open(trace_path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"no trace written: {exc}")
        trace = {"spans": [], "counts": {}, "cache_misses": {}, "absent": []}
    metrics = layer_metrics(trace)
    metrics["trace.untraced_wall_s"] = samples[0].wall_s
    metrics["trace.traced_wall_s"] = samples[1].wall_s
    metrics["trace.overhead_s"] = samples[1].wall_s - samples[0].wall_s
    return {"samples": [asdict(s) for s in samples], "failures": failures,
            "attempted": len(samples), "references": int(case.reference is not None),
            "absent_targets": trace["absent"],
            "metrics": {k: (v, PER_LAYER_UNITS[k], 1) for k, v in metrics.items()}}


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def environment() -> dict:
    """The machine and the program version this run measured."""
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_kb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 1024,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_vars": list(BLAS_VARS),
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "svdshape", "cli.py")):
        print(f"svdshape sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    env = environment()
    records_dir = os.path.join(OUT, "records")
    os.makedirs(records_dir, exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        workload = WORKLOADS[name]
        workdir = os.path.join(OUT, "work", f"{name}-seed{opts.seed}")
        os.makedirs(workdir, exist_ok=True)
        result = (run_traced(workload, opts.seed, workdir) if opts.trace
                  else run_untraced(workload, opts.seed, opts.seconds, workdir))
        n, bad = result["attempted"], len(result["failures"])
        attempted += n
        failed += min(bad, n)
        print(f"== {name} (seed {opts.seed}, trace {opts.trace}): {workload.why}")
        for metric, (value, unit, count) in result["metrics"].items():
            print(f"{metric:<48} {value:>14.6g} {unit:<6} n={count}")
        print(f"{'failed_frac':<48} {min(bad, n) / n:>14.6g} ratio  n={n}")
        for reason in result["failures"]:
            print(f"gate failure: {reason}")
        for target in result.get("absent_targets", ()):
            print(f"absent: {target}")
        record = {"workload": name, "why": workload.why, "seed": opts.seed,
                  "seconds": opts.seconds, "trace": opts.trace,
                  "environment": env, **result,
                  "metrics": {metric: {"value": value, "unit": unit, "samples": count}
                              for metric, (value, unit, count)
                              in result["metrics"].items()}}
        path = os.path.join(records_dir,
                            f"{name}-seed{opts.seed}-trace{opts.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit, _) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
