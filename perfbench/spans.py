"""Span recording around the public functions of each ``hypercal`` module.

Spans are taken from outside the program: each traced function is replaced
by a wrapper that records ``(name, start, end, parent, run_id, work)`` in
memory.  Modules import names directly (``spectral`` holds ``shift_1d`` and
``resample_rows``, ``geometry`` holds ``bicubic_sample`` and ``shift_2d``,
``registration`` holds ``resample_rows``), so the wrapper is rebound in every
loaded ``hypercal`` namespace that holds the original object; otherwise those
calls would go uncounted.

Stage spans come from the public ``ReportBundle.add`` calls.  A stage adds its
report rows as it finishes, so its span runs from the previous stage's last
``add`` (or the start of ``pipeline.run``) to its own last ``add``.
"""

from __future__ import annotations

import functools
import sys
import time

# public functions timed per module; ``<module>.<function>`` names the span
TRACED = {
    "registration": ("shift_1d", "shift_signal", "shift_2d"),
    "kernels": ("resample_rows", "bicubic_sample", "band_integrals"),
    "simulate": ("render_raw", "render_sphere", "render_dark"),
    "spectral": ("estimate_smile", "correct_smile", "estimate_keystone",
                 "correct_keystone", "absolute_shift"),
    "radiometry": ("fit_flatfield", "apply_flatfield"),
    "anomalies": ("detect_bunch_pixels", "correct_bunch_pixels",
                  "detect_interference", "remove_interference",
                  "estimate_stray_psf", "correct_stray"),
    "geometry": ("orthorectify", "bundle", "optimize_boresight", "cost",
                 "geolocate"),
    "cube": ("write_cube",),
}

# the 13 pipeline stages; absent stages report 0 s
STAGES = ("simulate", "caldark", "flat-field", "bunch", "interference",
          "stray", "smile", "absolute-shift", "keystone", "geocal", "ortho",
          "bundle", "report")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counted per call, from the call's arguments or result
_WORK = {
    "registration.shift_1d":
        lambda a, k, r: float(r.confidence == 0.0),
    "kernels.resample_rows":
        lambda a, k, r: float(_arg(a, k, 1, "coords").size),
    "kernels.bicubic_sample":
        lambda a, k, r: float(_arg(a, k, 1, "yy").size),
    "simulate.render_raw":
        lambda a, k, r: float(_arg(a, k, 1, "sensor").bands),
    "cube.write_cube":
        lambda a, k, r: float(_arg(a, k, 0, "cube").data.nbytes),
}


class Tracer:
    """Collects spans of one chain in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent index, run id, work]
        self.stage_marks = []  # (stage, time of a ReportBundle.add call)
        self._stack = []

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.run_id, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[5] = work(args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function and the stage marker in all loaded
        ``hypercal`` modules."""
        from hypercal import pipeline

        modules = [m for n, m in list(sys.modules.items())
                   if n == "hypercal" or n.startswith("hypercal.")]
        for short, names in TRACED.items():
            module = sys.modules[f"hypercal.{short}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

        add = pipeline.ReportBundle.add
        marks = self.stage_marks

        @functools.wraps(add)
        def marked_add(bundle, stage, metric, value):
            marks.append((stage, time.perf_counter()))
            return add(bundle, stage, metric, value)

        pipeline.ReportBundle.add = marked_add


def stage_seconds(marks, chain_start: float) -> dict:
    """Stage durations from ``ReportBundle.add`` times: each stage ends at
    its last ``add`` and starts where the previous stage ended."""
    last = {}
    for stage, t in marks:
        last[stage] = t
    out = {}
    prev = chain_start
    for stage, end in sorted(last.items(), key=lambda kv: kv[1]):
        out[stage] = end - prev
        prev = end
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and summed work.
    Self time is a span's duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "work": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child[i]
        t["work"] += work
    return totals


def layer_metrics(spans, marks, chain_start: float) -> dict:
    """The per-layer metrics of one traced chain, by metric name."""
    totals = layer_totals(spans)

    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def rate(name):  # output points per second of self time, in millions
        self_s = get(name, "self_s")
        return get(name, "work") / self_s / 1e6 if self_s > 0 else 0.0

    stages = stage_seconds(marks, chain_start)
    m = {f"pipeline.stage.{s}.s": stages.get(s, 0.0) for s in STAGES}
    shift_calls = get("registration.shift_1d", "calls")
    m.update({
        "registration.shift_1d.calls": shift_calls,
        "registration.shift_1d.self_s": get("registration.shift_1d", "self_s"),
        "registration.shift_1d.zero_conf_ratio":
            get("registration.shift_1d", "work") / shift_calls
            if shift_calls else 0.0,
        "registration.shift_signal.calls":
            get("registration.shift_signal", "calls"),
        "registration.shift_2d.calls": get("registration.shift_2d", "calls"),
        "registration.shift_2d.self_s": get("registration.shift_2d", "self_s"),
    })
    for k in ("resample_rows", "bicubic_sample", "band_integrals"):
        m[f"kernels.{k}.calls"] = get(f"kernels.{k}", "calls")
        m[f"kernels.{k}.self_s"] = get(f"kernels.{k}", "self_s")
    for k in ("resample_rows", "bicubic_sample"):
        m[f"kernels.{k}.mpts_per_s"] = rate(f"kernels.{k}")
    m.update({
        "simulate.render_raw.calls": get("simulate.render_raw", "calls"),
        "simulate.render_raw.self_s": get("simulate.render_raw", "self_s"),
        "simulate.render_raw.band_planes": get("simulate.render_raw", "work"),
        "simulate.render_sphere.s": get("simulate.render_sphere", "s"),
        "simulate.render_dark.s": get("simulate.render_dark", "s"),
    })
    for name in TRACED["spectral"]:
        m[f"spectral.{name}.s"] = get(f"spectral.{name}", "s")
    m.update({
        "radiometry.fit_flatfield.s": get("radiometry.fit_flatfield", "s"),
        "radiometry.apply_flatfield.calls":
            get("radiometry.apply_flatfield", "calls"),
        "radiometry.apply_flatfield.s": get("radiometry.apply_flatfield", "s"),
    })
    for name in TRACED["anomalies"]:
        m[f"anomalies.{name}.s"] = get(f"anomalies.{name}", "s")
    m.update({
        "geometry.orthorectify.calls": get("geometry.orthorectify", "calls"),
        "geometry.orthorectify.self_s": get("geometry.orthorectify", "self_s"),
        "geometry.bundle.self_s": get("geometry.bundle", "self_s"),
        "geometry.optimize_boresight.s":
            get("geometry.optimize_boresight", "s"),
        "geometry.cost.calls": get("geometry.cost", "calls"),
        "geometry.geolocate.calls": get("geometry.geolocate", "calls"),
        "cube.write_cube.calls": get("cube.write_cube", "calls"),
        "cube.write_cube.s": get("cube.write_cube", "s"),
        "cube.write_cube.bytes": get("cube.write_cube", "work"),
    })
    return {name: float(value) for name, value in m.items()}
