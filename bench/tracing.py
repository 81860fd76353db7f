"""Spans around the calls each ``fbrate`` layer makes, installed from outside.

The tracer replaces module-level names (``fbrate.rate.tricomi_u_int_a``,
``fbrate.specfun.quad``, ...) with wrappers.  Package code looks these names
up in its module globals at call time, so every call made through them
records a span: name, start, end, parent span and request id.  A span's self
time is its duration minus the time its child spans cover.

``mgf.log_mgf`` is called from inside the scipy quadrature callbacks, about
3e4 times per figure sweep, so it is only counted (calls and nodes): timing
each call would more than double the run.  Its time stays in the self time of
the span that called it.
"""

from __future__ import annotations

import csv
import gzip
import importlib
from time import perf_counter

#: (module, attribute, span name).  Several modules import the same function
#: under their own global name; each binding is wrapped so calls through any
#: of them are seen.
TARGETS = (
    ("fbrate.cli", "main", "cli.main"),
    ("fbrate.cli", "er_auto", "rate.er_auto"),
    ("fbrate.rate", "er_auto", "rate.er_auto"),
    ("fbrate.rate", "derive", "model.derive"),
    ("fbrate.rate", "build_pole_set", "poles.build_pole_set"),
    ("fbrate.rate", "residues", "poles.residues"),
    ("fbrate.rate", "expectation_closed_form", "rate.closed_form"),
    ("fbrate.rate", "expectation_quadrature", "rate.quadrature"),
    ("fbrate.rate", "tricomi_u_int_a", "specfun.tricomi_u"),
    ("fbrate.rate", "gauss_laguerre", "specfun.gauss_laguerre"),
    ("fbrate.rate", "log_mgf", "mgf.log_mgf"),
    ("fbrate.rate", "_adaptive_quadrature", "rate.fallback"),
    ("fbrate.rate", "quad", "rate.quad"),
    ("fbrate.specfun", "quad", "specfun.quad"),
    ("fbrate._extended", "expectation_closed_form_mp", "extended.closed_form_mp"),
    ("fbrate.crosscheck", "run_cross_check", "crosscheck.run_cross_check"),
    ("fbrate.crosscheck", "derive", "model.derive"),
    ("fbrate.crosscheck", "build_pole_set", "poles.build_pole_set"),
    ("fbrate.crosscheck", "residues", "poles.residues"),
    ("fbrate.crosscheck", "expectation_closed_form", "rate.closed_form"),
    ("fbrate.crosscheck", "expectation_quadrature", "rate.quadrature"),
    ("fbrate.mc", "estimate_er", "mc.estimate_er"),
)

#: Names counted without a span or a timer.
COUNTED_ONLY = frozenset({"mgf.log_mgf"})


class _Frame:
    __slots__ = ("name", "index", "child_s", "child_calls")

    def __init__(self, name, index):
        self.name = name
        self.index = index
        self.child_s = 0.0
        self.child_calls = {}


class Stat:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.extra = {}

    def add(self, key, value=1):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """Installs wrappers, keeps spans in memory, and derives layer totals."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, request id, self_s, ok)
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.request_id = -1
        self.cross_rel_diff_max = 0.0
        self._stack: list[_Frame] = []
        self._pending_closed = None
        self._restore = []

    # -- installation ----------------------------------------------------------

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _wrap(self, fn, name):
        if name in COUNTED_ONLY:
            return self._wrap_counted(fn, name)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = _Frame(name, index)
            self._stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self_s = duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                    parent.child_calls[name] = parent.child_calls.get(name, 0) + 1
                self.spans[index] = (name, start, end, parent.index if parent else -1,
                                     self.request_id, self_s, ok)
                stat = self._stat(name)
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += self_s
                if not ok:
                    stat.failed += 1
                self._observe(name, frame, parent, result if ok else None, ok)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_counted(self, fn, name):
        stat = self._stat(name)

        def counted(*args, **kwargs):
            stat.calls += 1
            s = args[2] if len(args) > 2 else kwargs.get("s")
            stat.add("nodes", getattr(s, "size", 1))
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe(self, name, frame, parent, result, ok):
        """Counts measured at the boundary where the work happens."""
        stat = self.stats[name]
        if name == "specfun.tricomi_u" and ok:
            kind = "quadrature" if frame.child_calls.get("specfun.quad") else "asymptotic"
            stat.add(kind)
        elif name == "specfun.gauss_laguerre" and parent and parent.name == "rate.quadrature":
            stat.add("ladder_passes")
        elif name == "poles.build_pole_set" and ok:
            stat.add("multiplicity", sum(mult for _, mult in result.poles))
        elif name == "rate.closed_form" and ok:
            self._pending_closed = result
        elif name == "rate.quadrature" and ok and self._pending_closed is not None:
            closed, self._pending_closed = self._pending_closed, None
            diff = abs(result[0] - closed) / closed
            self.cross_rel_diff_max = max(self.cross_rel_diff_max, diff)
        elif name == "mc.estimate_er" and ok:
            stat.add("samples", result.n_samples)

    # -- requests and output ---------------------------------------------------

    def begin_request(self, request_id):
        self.request_id = request_id
        self._pending_closed = None

    def write_spans(self, path):
        """Write every stored span as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_s", "end_s", "parent",
                          "request", "self_s", "ok"))
            for i, (name, start, end, parent, req, self_s, ok) in enumerate(self.spans):
                out.writerow((i, name, f"{start:.9f}", f"{end:.9f}", parent, req,
                              f"{self_s:.9f}", int(ok)))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals named ``layer.metric`` (values only; units in BENCHMARK.json)."""
        def st(name):
            return self.stats.get(name) or Stat()

        quad = st("rate.quadrature")
        closed = st("rate.closed_form")
        ext = st("extended.closed_form_mp")
        u = st("specfun.tricomi_u")
        gl = st("specfun.gauss_laguerre")
        lm = st("mgf.log_mgf")
        mc = st("mc.estimate_er")
        samples = mc.extra.get("samples", 0)
        return {
            "cli.self_s": st("cli.main").self_s,
            "rate.quadrature.calls": quad.calls,
            "rate.quadrature.self_s": quad.self_s,
            "rate.quadrature.ladder_passes": gl.extra.get("ladder_passes", 0),
            "rate.quadrature.fallback_calls": st("rate.fallback").calls,
            "rate.quadrature.fallback_s": st("rate.fallback").total_s,
            "rate.quadrature.quad_calls": st("rate.quad").calls,
            "rate.closed_form.calls": closed.calls,
            "rate.closed_form.self_s": closed.self_s,
            "rate.er_auto.self_s": st("rate.er_auto").self_s,
            "rate.cross_rel_diff_max": self.cross_rel_diff_max,
            "extended.calls": ext.calls,
            "extended.s": ext.total_s,
            "extended.share": ext.calls / closed.calls if closed.calls else 0.0,
            "specfun.tricomi_u.calls": u.calls,
            "specfun.tricomi_u.asymptotic_calls": u.extra.get("asymptotic", 0),
            "specfun.tricomi_u.quadrature_calls": u.extra.get("quadrature", 0),
            "specfun.tricomi_u.failed": u.failed,
            "specfun.tricomi_u.self_s": u.self_s,
            "specfun.quad.calls": st("specfun.quad").calls,
            "specfun.quad.s": st("specfun.quad").total_s,
            "specfun.gauss_laguerre.calls": gl.calls,
            "mgf.log_mgf.calls": lm.calls,
            "mgf.log_mgf.nodes": lm.extra.get("nodes", 0),
            "poles.residues.calls": st("poles.residues").calls,
            "poles.residues.self_s": st("poles.residues").self_s,
            "poles.multiplicity": st("poles.build_pole_set").extra.get("multiplicity", 0),
            "model.derive.calls": st("model.derive").calls,
            "model.derive.self_s": st("model.derive").self_s,
            "crosscheck.self_s": st("crosscheck.run_cross_check").self_s,
            "mc.estimate_er.s": mc.total_s,
            "mc.samples": samples,
            "mc.msamples_per_s_self": samples / mc.total_s / 1e6 if mc.total_s else 0.0,
        }
