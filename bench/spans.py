"""In-memory span tracer for the benchmark's traced run.

A target is wrapped at the module attribute its caller looks up (for
example ``kerrcasimir.sweep.casimir_report``), so calls made from inside
the package go through the wrapper; nothing under ``src/`` is edited.
Each span records name, start, end, parent, thread and thread CPU time.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple


class TraceTargetMissing(RuntimeError):
    """A wrap target no longer exists, so its layer cannot be measured."""


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    cpu: float
    error: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count()
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str) -> None:
        """Replace module.attr by a span-recording wrapper.

        Raises TraceTargetMissing when the attribute is gone, so that a
        refactor which removes a target cannot pass as a layer with 0 calls.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceTargetMissing(
                f"trace target {module.__name__}.{attr} no longer exists; "
                "update the target list in bench/workloads.py"
            )
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stacks, ids, main = self.spans, self._stacks, self._ids, self._main

        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's outermost span belongs to whatever the
                # main thread has open (run_sweep hands points to its pool).
                main_stack = stacks.get(main) if ident != main else None
                parent = main_stack[-1] if main_stack else None
            span_id = next(ids)
            stack.append(span_id)
            error = None
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                spans.append(Span(span_id, name, parent, ident, t0, t1, cpu, error))

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it covered by its child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        result = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[s.id] = (s.end - s.start) - covered
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,name,parent,thread,start,end,thread_cpu,error\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(
                    f"{s.id},{s.name},{parent},{s.thread},{s.start!r},{s.end!r},"
                    f"{s.cpu!r},{s.error or ''}\n"
                )


def parse_importtime(stderr: str) -> tuple[float, float]:
    """From ``python -X importtime`` output, return (cumulative seconds of
    ``import kerrcasimir``, summed self seconds of every scipy module)."""
    package_us = None
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, module = int(fields[0]), int(fields[1]), fields[2].strip()
        if module == "kerrcasimir":
            package_us = cumulative_us
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += self_us
    if package_us is None:
        raise RuntimeError("-X importtime output has no line for kerrcasimir")
    return package_us * 1e-6, scipy_us * 1e-6
