"""Record reference values for the correctness gates.

    python3 bench/record_reference.py --seeds 0-15

Runs every case of ``fit-protocol`` and ``density-k3`` once for each seed,
gates the output, and merges the values the gates compare against (the fit's
``loglik``, each ``log_density``) into ``bench/reference.json``, keyed by
workload, seed and case. Later runs of the same seed must reproduce them: the
density to 1e-9, the fit's loglik to no less than 1e-6 below. A case whose
output fails its gate is not recorded, and the script exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import OUT, REFERENCE, SRC, Case, cli_argv, run_checked
from workloads import WORKLOADS, reference_entry

RECORDED = ("fit-protocol", "density-k3")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"),
                        help="a seed or an inclusive range, e.g. 0-15")
    opts = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    status = 0
    for name in RECORDED:
        workload = WORKLOADS[name]
        for seed in opts.seeds:
            workdir = os.path.join(OUT, "reference", f"{name}-seed{seed}")
            entries = []
            for i in range(workload.cases):
                casedir = os.path.join(workdir, f"case{i}")
                os.makedirs(casedir, exist_ok=True)
                out = os.path.join(casedir, "out.json")
                case = Case(workload.make_inputs(seed, i, casedir, out), out, None)
                failures: list[str] = []
                run_checked(workload, cli_argv(case.args), case,
                            os.path.join(casedir, "cli.log"), failures)
                if failures:
                    print(f"{name} seed {seed} case {i}: {failures}", file=sys.stderr)
                    status = 1
                    break
                entries.append(reference_entry(name, out))
            else:
                reference.setdefault(name, {})[str(seed)] = entries
                print(f"{name} seed {seed}: {len(entries)} cases recorded")
    for runs in reference.values():
        ordered = sorted(runs.items(), key=lambda kv: int(kv[0]))
        runs.clear()
        runs.update(ordered)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
