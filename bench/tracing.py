"""Layer tracing from outside the program: timing wrappers, spans, self time.

Wrappers go where callers look the targets up: on the class for methods,
in every ``svdshape`` module global that holds the function for functions
imported by name, and behind a proxy module for ``optimize.minimize`` as
``svdshape.inference`` reaches it. Spans (name, start, end, parent) stay in
memory and are written out once, at the end of the traced process. A target
that no longer exists is reported as absent; its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, ATTRS = range(5)


def _points_note(args, kwargs, result):
    return {"points": len(args[0])}


def _logsums_note(args, kwargs, result):
    table, spectra = args[0], args[1]
    logd = getattr(table, "_logd", None)
    return {"spectra": len(spectra),
            "table_rows": len(logd) if logd is not None else 0}


def _table_note(args, kwargs, result):
    logd = getattr(args[0], "_logd", None)
    return {"rows": len(logd) if logd is not None else 0}


def _series_note(args, kwargs, result):
    return {"degrees": result.degrees_used + 1}


def _minimize_note(args, kwargs, result):
    return {"nfev": int(result.nfev), "fun": float(result.fun)}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: metric prefix, defining module, attribute path."""

    name: str
    module: str
    attr: str
    spans: bool = True          # False: count calls only (hot, cheap callees)
    note: Callable | None = None


TARGETS = (
    Target("io.ingest_landmarks", "svdshape.io", "ingest_landmarks"),
    Target("geometry.preprocess", "svdshape.geometry", "preprocess"),
    Target("geometry.svd_shape", "svdshape.geometry", "svd_shape"),
    Target("special.enumerate_partitions", "svdshape.special",
           "enumerate_partitions", spans=False),
    Target("special.gen_pochhammer_log", "svdshape.special",
           "gen_pochhammer_log", spans=False),
    Target("zonal.zonal_series", "svdshape.zonal", "zonal_series",
           note=_series_note),
    Target("zonal.zonal_poly", "svdshape.zonal", "zonal_poly"),
    Target("zonal.ZonalSumTable.build", "svdshape.zonal",
           "ZonalSumTable.__init__", note=_table_note),
    Target("zonal.logsums", "svdshape.zonal", "ZonalSumTable.logsums",
           note=_logsums_note),
    Target("models.radial_integral", "svdshape.models", "radial_integral"),
    Target("models.mpmath_fallback", "svdshape.models", "_kotz_radial_exact"),
    Target("densities.shape_logdensity", "svdshape.densities",
           "shape_logdensity"),
    Target("densities.batch_shape_logdensity", "svdshape.densities",
           "batch_shape_logdensity", note=_points_note),
    Target("inference.IsotropicLikelihood.init", "svdshape.inference",
           "IsotropicLikelihood.__init__"),
    Target("inference.loglik", "svdshape.inference", "IsotropicLikelihood.loglik"),
    Target("inference.fit_location", "svdshape.inference", "fit_location"),
    Target("inference.minimize", "svdshape.inference", "optimize.minimize",
           note=_minimize_note),
    Target("verify.mc_normalization", "svdshape.verify", "mc_normalization"),
    Target("verify.simulation_vs_density", "svdshape.verify",
           "simulation_vs_density"),
    Target("verify.sample_landmarks", "svdshape.verify", "sample_landmarks"),
)


class Tracer:
    """Span and call-count recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.cache_misses: dict[str, tuple[Callable, int]] = {}
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        if hasattr(fn, "cache_info"):
            self.cache_misses[target.name] = (fn.cache_info, fn.cache_info().misses)
        if not target.spans:
            counts, name = self.counts, target.name
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        spans, stack, note, name = self.spans, self._stack, target.note, target.name

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[ATTRS] = note(args, kwargs, result)
            return result
        return traced

    def dump(self, path: str, absent: list[str], exit_code: int) -> None:
        misses = {name: info().misses - base
                  for name, (info, base) in self.cache_misses.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "cache_misses": misses, "absent": absent,
                       "exit_code": exit_code}, fh)


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the names of those that do not."""
    absent = []
    for target in targets:
        module = sys.modules.get(target.module)
        head, _, leaf = target.attr.rpartition(".")
        owner = module
        for part in head.split(".") if head else ():
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            absent.append(target.name)
            continue
        wrapped = tracer.wrap(target, original)
        if isinstance(owner, types.ModuleType) and owner is not module:
            # a module reached through an attribute (inference.optimize):
            # give the caller a private copy so other users stay unwrapped
            proxy = types.ModuleType(owner.__name__)
            proxy.__dict__.update(vars(owner))
            setattr(proxy, leaf, wrapped)
            setattr(module, head, proxy)
        elif isinstance(owner, type):
            setattr(owner, leaf, wrapped)
        else:
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "svdshape":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return absent


# --- analysis of a written trace ---------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        if sp[PARENT] >= 0:
            children.setdefault(sp[PARENT], []).append(i)
    out = []
    for i, sp in enumerate(spans):
        start, end = sp[START], sp[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((max(spans[c][START], start), min(spans[c][END], end))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def busy_times(spans: list[list]) -> dict[str, float]:
    """Wall time inside each span name, counting nested same-name spans once."""
    busy: dict[str, float] = {}
    for sp in spans:
        parent = sp[PARENT]
        while parent >= 0 and spans[parent][NAME] != sp[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            busy[sp[NAME]] = busy.get(sp[NAME], 0.0) + sp[END] - sp[START]
    return busy


def _span_metrics() -> dict[str, str]:
    units = {}
    for t in TARGETS:
        if t.name == "inference.minimize":
            units["inference.minimize.starts"] = "count"
        else:
            units[f"{t.name}.calls"] = "count"
        if t.spans:
            units[f"{t.name}.s"] = "s"
            units[f"{t.name}.self_s"] = "s"
    return units


PER_LAYER_UNITS = {
    **_span_metrics(),
    "special.enumerate_partitions.misses": "count",
    "zonal.zonal_series.degrees": "count",
    "zonal.ZonalSumTable.rows": "count",
    "zonal.logsums.spectra": "count",
    "zonal.logsums.bytes_computed": "B",
    "models.radial_integral.calls_per_degree": "ratio",
    "densities.batch_shape_logdensity.points": "count",
    "inference.minimize.nfev": "count",
    "inference.minimize.best_share": "ratio",
    "trace.spans": "count",
    "trace.absent_targets": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _best_share(spans: list[list]) -> float:
    """nfev of each fit's winning start over all nfev (base: total nfev)."""
    fits: dict[int, list[dict]] = {}
    for sp in spans:
        if sp[NAME] == "inference.minimize" and sp[ATTRS]:
            fits.setdefault(sp[PARENT], []).append(sp[ATTRS])
    total = sum(a["nfev"] for runs in fits.values() for a in runs)
    best = sum(min(runs, key=lambda a: a["fun"])["nfev"] for runs in fits.values())
    return best / total if total else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one written trace, every name of PER_LAYER_UNITS
    except the ``trace.*wall_s`` and ``trace.overhead_s`` entries."""
    spans = trace["spans"]
    selfs = self_times(spans)
    busy = busy_times(spans)
    m = {name: 0.0 for name in PER_LAYER_UNITS if not name.endswith("wall_s")
         and name != "trace.overhead_s"}
    attrs: dict[str, list[dict]] = {}
    for sp, own in zip(spans, selfs):
        name = sp[NAME]
        key = "inference.minimize.starts" if name == "inference.minimize" else f"{name}.calls"
        m[key] = m.get(key, 0) + 1
        m[f"{name}.self_s"] = m.get(f"{name}.self_s", 0.0) + own
        if sp[ATTRS]:
            attrs.setdefault(name, []).append(sp[ATTRS])
    for name, s in busy.items():
        m[f"{name}.s"] = s
    for name, n in trace["counts"].items():
        m[f"{name}.calls"] = n
    for name, n in trace["cache_misses"].items():
        m[f"{name}.misses"] = n
    m["zonal.zonal_series.degrees"] = sum(
        a["degrees"] for a in attrs.get("zonal.zonal_series", ()))
    m["zonal.ZonalSumTable.rows"] = max(
        (a["rows"] for a in attrs.get("zonal.ZonalSumTable.build", ())), default=0)
    logsums = attrs.get("zonal.logsums", ())
    m["zonal.logsums.spectra"] = sum(a["spectra"] for a in logsums)
    m["zonal.logsums.bytes_computed"] = max(
        (a["spectra"] * a["table_rows"] * 8 for a in logsums), default=0)
    degrees = m["zonal.zonal_series.degrees"]
    m["models.radial_integral.calls_per_degree"] = (
        m["models.radial_integral.calls"] / degrees if degrees else 0.0)
    m["densities.batch_shape_logdensity.points"] = sum(
        a["points"] for a in attrs.get("densities.batch_shape_logdensity", ()))
    m["inference.minimize.nfev"] = sum(
        a["nfev"] for a in attrs.get("inference.minimize", ()))
    m["inference.minimize.best_share"] = _best_share(spans)
    m["trace.spans"] = len(spans)
    m["trace.absent_targets"] = len(trace["absent"])
    return {name: value for name, value in m.items() if name in PER_LAYER_UNITS}
