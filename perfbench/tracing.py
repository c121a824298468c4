"""Spans around calls into hjtoric, recorded from the benchmark's own code.

``Tracer.install`` replaces each traced function in every ``hjtoric`` module
namespace (and class) that binds it with a wrapper that records a span:
name, start, end, parent span and job id.  Spans stay in memory and are
written out when the run ends.  Outside a job span the wrappers only pass
the call through, so verification and input generation are never counted.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, module, attribute): the layer is the metric prefix.  ext_gcd is left
# out on purpose: a wrapper would cost about as much as the call itself.
TRACED = (
    ("hj", "hj", "hj_expand"),
    ("hj", "hj", "hj_reverse"),
    ("resolution", "resolution", "resolve_cyclic"),
    ("lattice2d", "lattice2d", "corner_cut"),
    ("homology", "homology", "signature"),
    ("homology", "homology", "blow_down"),
    ("homology", "homology", "blow_up_at"),
    ("homology", "homology", "lattice_from_parts"),
    ("homology", "homology", "IntersectionLattice.direct_sum"),
    ("homology", "homology", "IntersectionLattice.from_json"),
    ("homology", "homology", "IntersectionLattice.to_json"),
    ("blowup", "blowup", "fulton_config"),
    ("blowup", "blowup", "mcduff_sequence"),
    ("blowup", "blowup", "cross_check"),
    ("blowup", "blowup", "weighted_blowdown"),
    ("blowup", "blowup", "cut_chords"),
    ("circle", "circle", "run_loop"),
    ("circle", "circle", "initial_state"),
    ("circle", "circle", "cross_level"),
    ("circle", "circle", "build_cover"),
    ("cli", "cli", "main"),
    ("cli", "svg", "cut_diagram_svg"),
)
LAYERS = ("hj", "resolution", "lattice2d", "homology", "blowup", "circle", "cli")
# homology functions that build and return a new lattice
WRITES = {"homology.blow_down", "homology.blow_up_at", "homology.lattice_from_parts",
          "homology.direct_sum"}
JOB = "job"


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent_index, job_id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.classes_out = 0
        self._stack: list[int] = []
        self._job = None
        self._restore: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def run_job(self, job_id: int, fn, *args):
        """Call ``fn(*args)`` inside a job span; returns its result."""
        span = [JOB, 0, 0, None, job_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._job = job_id
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            self._job = None

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = name in WRITES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1], self._job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts:
                self.classes_out += len(result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that is already imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hjtoric" or n.startswith("hjtoric."))]
        for layer, mod, attr in TRACED:
            module = sys.modules.get(f"hjtoric.{mod}")
            if module is None:
                continue
            name = span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, name, start_ns, end_ns, parent, job."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{'' if parent is None else parent}\t{job}\n")

    def layer_metrics(self, jobs) -> dict[str, tuple[float, str]]:
        """Per-function and per-layer metrics from the spans of ``jobs`` (the
        traced jobs, in job-id order), as ``name -> (value, unit)``."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        per_job: dict[tuple[str, int], int] = {}
        for i, (name, start, end, parent, job) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - child[i]
            per_job[name, job] = per_job.get((name, job), 0) + 1
        job_ns = busy.get(JOB, 0)
        out: dict[str, tuple[float, str]] = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for layer, _, attr in TRACED:
            name = span_name(layer, attr)
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.busy_s"] = (busy.get(name, 0) / 1e9, "s")
            out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
            layer_self[layer] += self_ns.get(name, 0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
            out[f"{layer}.share"] = (layer_self[layer] / job_ns if job_ns else 0.0, "fraction")
        out["homology.classes_out"] = (self.classes_out, "count")
        out["circle.crossings"] = (calls.get("circle.cross_level", 0), "count")

        def useful(need_attr: str, span: str) -> float:
            needed = sum(getattr(job, need_attr) for job in jobs)
            made = sum(per_job.get((span, i), 0) for i, job in enumerate(jobs)
                       if getattr(job, need_attr))
            return needed / made if made else 1.0

        out["blowup.replay_useful_ratio"] = (useful("needs_cuts", "lattice2d.corner_cut"), "ratio")
        out["blowup.config_useful_ratio"] = (useful("needs_configs", "blowup.fulton_config"), "ratio")
        return out
