"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each optoweak layer from outside
the package: it replaces the module attribute with a wrapper that records
a span (name, start, end, parent) around every call.  Callers inside the
package look these functions up through the module (``model.mean_q``,
``lindblad.oracle_sweep``, ``svgplot.line_plot`` ...) or as module globals,
so the wrappers see every call between layers.  Spans stay in memory until
the run ends; :func:`layer_metrics` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, counts=None):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``counts(args, kwargs, result)`` returns the work done by one call
        (points, rows, snapshots ...); it runs after the span has ended.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        setattr(module, attr, traced)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _tau_points(args, kwargs, result):
    import numpy as np

    return {"points": int(np.size(_arg(args, kwargs, 1, "tau")))}


def _snapshots(args, kwargs, result):
    taus = _arg(args, kwargs, 1, "taus")
    return {"snapshots": len(result), "tau": float(max(taus)) if len(result) else 0.0}


def _line_points(args, kwargs, result):
    return {"points": sum(len(series[0]) for series in _arg(args, kwargs, 0, "series"))}


def _heatmap_cells(args, kwargs, result):
    values = _arg(args, kwargs, 0, "values")
    return {"cells": len(values) * (len(values[0]) if len(values) else 0)}


def _compared_points(args, kwargs, result):
    return {"compared": sum(1 for p in result.points if "error" not in p)}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every optoweak layer."""
    from optoweak import cli, fockspace, lindblad, model, svgplot, sweeps

    for attr in ("conditioned_state", "mean_q", "mean_p"):
        tracer.wrap(model, attr, _tau_points)
    tracer.wrap(fockspace, "wigner", lambda a, k, r: {"points": r.nx * r.ny})
    tracer.wrap(lindblad, "oracle_sweep")
    tracer.wrap(lindblad, "integrate_snapshots", _snapshots)
    tracer.wrap(lindblad, "postselect_density")
    tracer.wrap(sweeps, "run_sweep")
    tracer.wrap(sweeps, "emit_csv", lambda a, k, r: {"rows": len(_arg(a, k, 0, "result").tau)})
    tracer.wrap(sweeps, "emit_plot")
    tracer.wrap(sweeps, "svg_heatmap")
    tracer.wrap(sweeps, "figure")
    tracer.wrap(sweeps, "verify", _compared_points)
    tracer.wrap(svgplot, "line_plot", _line_points)
    tracer.wrap(svgplot, "heatmap", _heatmap_cells)
    tracer.wrap(cli, "main")


@dataclass
class _Total:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, span: Span, self_s: float):
        self.calls += 1
        self.s += span.end - span.start
        self.self_s += self_s
        for key, value in span.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced repetition.

    Self time is a span's duration minus its direct children's durations;
    the program is single-threaded, so children never overlap.  The model
    totals count only outermost model spans (``mean_q`` calls
    ``conditioned_state`` itself).
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    totals: dict[str, _Total] = {}
    model = _Total()
    sweeps_self_s = 0.0
    for i, span in enumerate(spans):
        self_s = span.end - span.start - child_s[i]
        totals.setdefault(span.name, _Total()).add(span, self_s)
        layer = span.name.split(".", 1)[0]
        if layer == "model" and (span.parent < 0 or not spans[span.parent].name.startswith("model.")):
            model.add(span, self_s)
        if layer == "sweeps":
            sweeps_self_s += self_s

    def get(name: str) -> _Total:
        return totals.get(name, _Total())

    oracle = get("lindblad.oracle_sweep")
    integrate = get("lindblad.integrate_snapshots")
    post = get("lindblad.postselect_density")
    wigner = get("fockspace.wigner")
    csv = get("sweeps.emit_csv")
    line = get("svgplot.line_plot")
    heat = get("svgplot.heatmap")
    main = get("cli.main")
    snapshots = integrate.counts.get("snapshots", 0)
    model_points = model.counts.get("points", 0)
    wigner_points = wigner.counts.get("points", 0)
    rows = csv.counts.get("rows", 0)
    return {
        "lindblad.oracle_sweep.calls": oracle.calls,
        "lindblad.oracle_sweep.s": oracle.s,
        "lindblad.oracle_sweep.self_s": oracle.self_s,
        "lindblad.integrate_snapshots.calls": integrate.calls,
        "lindblad.integrate_snapshots.s": integrate.s,
        "lindblad.snapshots": snapshots,
        "lindblad.us_per_snapshot": _ratio(integrate.s * 1e6, snapshots),
        "lindblad.ms_per_unit_tau": _ratio(integrate.s * 1e3, integrate.counts.get("tau", 0.0)),
        "lindblad.postselect_density.calls": post.calls,
        "lindblad.postselect_density.s": post.s,
        "model.points": model_points,
        "model.s": model.s,
        "model.ns_per_point": _ratio(model.s * 1e9, model_points),
        "fockspace.wigner.points": wigner_points,
        "fockspace.wigner.s": wigner.s,
        "fockspace.wigner.us_per_point": _ratio(wigner.s * 1e6, wigner_points),
        "sweeps.emit_csv.rows": rows,
        "sweeps.emit_csv.s": csv.s,
        "sweeps.emit_csv.us_per_row": _ratio(csv.s * 1e6, rows),
        "sweeps.figure.self_s": get("sweeps.figure").self_s,
        "sweeps.verify.self_s": get("sweeps.verify").self_s,
        "sweeps.verify.compared_points": get("sweeps.verify").counts.get("compared", 0),
        "sweeps.self_s": sweeps_self_s,
        "svgplot.line_plot.points": line.counts.get("points", 0),
        "svgplot.line_plot.s": line.s,
        "svgplot.heatmap.cells": heat.counts.get("cells", 0),
        "svgplot.heatmap.s": heat.s,
        "cli.main.calls": main.calls,
        "cli.main.self_s": main.self_s,
        "trace.spans": len(spans),
        "trace.span_errors": sum(1 for span in spans if span.error),
    }
