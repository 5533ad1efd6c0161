"""Span tracing of wrice's public functions, from outside the package.

`Tracer.installed()` replaces, in every loaded wrice module, each name bound
to a public function of the modules in MODULES with a wrapper that records a
span: name, start, end, parent span, process id and trace id (one per
benchmark iteration). Names bound by `from .x import f` are
replaced too, so calls between modules are seen. Leaving the block restores
the originals, so untraced iterations run the unmodified program.

Pool workers record their own spans. `dataset.map_per_file` is wrapped so
that every per-file job runs inside `TracedJob`, which installs a tracer in
the worker process if it has none (a spawned worker) or adopts the one it
inherited (a forked worker), and returns the job's spans with its result.
The parent re-parents each job under its `map_per_file` span. All spans stay
in memory until the run writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

MODULES = ("audio_io", "dsp", "features", "dataset", "mlp", "evaluation", "synth", "cli")

MAP_SPAN = "dataset.map_per_file"
JOB_SUFFIX = ".job"  # a per-file job, named after the module of its function


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    pid: int
    trace_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _buffer_seconds(buf) -> float:
    return len(buf.samples) / buf.sample_rate


# Extra facts recorded on some spans, read from the call's arguments and
# result. A signature change only loses the attribute, never the span.
_ATTRS = {
    "dsp.stft": lambda a, k, r: {"frames": r.n_frames,
                                 "audio_s": _buffer_seconds(_first_arg(a, k, "buf"))},
    "features.extract_features": lambda a, k, r: {
        "audio_s": _buffer_seconds(_first_arg(a, k, "buf"))},
    "mlp.save_model": lambda a, k, r: {"bytes": os.path.getsize(a[1] if len(a) > 1
                                                                else k["path"])},
    "mlp.load_model": lambda a, k, r: {"bytes": os.path.getsize(_first_arg(a, k, "path"))},
}


class Tracer:
    """Spans of one process, kept in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[str] = []
        self.trace_id = 0
        self._seq = 0
        self._saved: list[tuple[object, str, object]] = []

    def _new_id(self) -> str:
        self._seq += 1
        return f"{self.pid}.{self._seq}"

    def _record(self, name, fn, args, kwargs):
        span_id = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.pid,
                                   self.trace_id, {"error": True}))
            raise
        end = time.perf_counter()
        self.stack.pop()
        attrs = {}
        extract = _ATTRS.get(name)
        if extract is not None:
            try:
                attrs = extract(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, OSError):
                attrs = {}
        self.spans.append(Span(span_id, name, start, end, parent, self.pid,
                               self.trace_id, attrs))
        return result

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span around benchmark code (a CLI command, an iteration)."""
        span_id = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.pid,
                                   self.trace_id, dict(attrs)))

    def _wrap(self, name, fn):
        if name == MAP_SPAN:
            return self._wrap_map(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return traced

    def _wrap_map(self, map_per_file):
        @functools.wraps(map_per_file)
        def traced_map(fn, jobs, workers=None):
            jobs = list(jobs)
            capacity = min(workers or os.cpu_count() or 1, max(len(jobs), 1))
            with self.span(MAP_SPAN, jobs=len(jobs), workers=capacity):
                map_id = self.stack[-1]
                packed = map_per_file(TracedJob(fn, self.trace_id), jobs, workers)
            results = []
            for result, spans in packed:
                spans[-1].parent = map_id
                self.spans.extend(spans)
                results.append(result)
            return results
        return traced_map

    def install(self) -> None:
        wrappers = {}
        for qualname, fn in public_functions():
            wrappers[id(fn)] = (fn, self._wrap(qualname, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wrice" or mod_name.startswith("wrice.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        global _PROCESS_TRACER
        _PROCESS_TRACER = self
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            _PROCESS_TRACER = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def public_functions():
    """(module.name, function) for each public function defined in MODULES."""
    for short in MODULES:
        mod = importlib.import_module(f"wrice.{short}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                yield f"{short}.{name}", obj


# The tracer of this process while one is installed; a forked pool worker
# inherits it, a spawned one starts without.
_PROCESS_TRACER: Tracer | None = None


class TracedJob:
    """A per-file job that returns (result, spans recorded while it ran)."""

    def __init__(self, fn, trace_id: int):
        self.fn = fn
        self.trace_id = trace_id

    def __call__(self, job):
        global _PROCESS_TRACER
        tracer = _PROCESS_TRACER
        if tracer is None:
            tracer = _PROCESS_TRACER = Tracer()
            tracer.install()
        elif tracer.pid != os.getpid():
            tracer.pid = os.getpid()
            tracer.spans = []
        tracer.trace_id = self.trace_id
        mark = len(tracer.spans)
        module = self.fn.__module__.rpartition(".")[2]
        with tracer.span(module + JOB_SUFFIX):
            result = self.fn(job)
        spans = tracer.spans[mark:]
        del tracer.spans[mark:]
        return result, spans
