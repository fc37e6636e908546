"""Spans around the public functions at each layer boundary of a step.

A :class:`Recorder` wraps those functions while it is installed and
keeps every call as a :class:`Span` in memory: name, start, end, the
span that caused it, the step and path it belongs to and, inside a
replica, the replica id.  Uninstalling puts back the identical original
objects.  Nothing in the program changes; the wrappers live only here.

Self time is a span's duration minus the part of it that its children
cover, counted once where children overlap (replica threads run their
children side by side).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    step: Optional[int]
    path: Optional[str]
    replica: Optional[int]
    thread: int
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Set by the step loop before each step; replica threads of
        #: that step inherit them.
        self.path: Optional[str] = None
        self.step: Optional[int] = None
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts: List[Dict[str, int]] = []
        self._counts_lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.replica = None
            local.counts = {}
            with self._counts_lock:
                self._thread_counts.append(local.counts)
        return local

    def count(self, name: str) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + 1

    def counter(self, name: str) -> int:
        """Sum over threads; read it while no step runs."""
        with self._counts_lock:
            return sum(c.get(name, 0) for c in self._thread_counts)

    # -- spans -----------------------------------------------------------------

    def _open(self):
        state = self._state()
        sid = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(sid)
        return state, sid, parent, perf_counter()

    def _close(self, name: str, opened) -> None:
        end = perf_counter()
        state, sid, parent, start = opened
        state.stack.pop()
        self.spans.append(
            Span(
                sid,
                name,
                start,
                end,
                parent,
                self.step,
                self.path,
                state.replica,
                threading.get_ident(),
                self.phase,
            )
        )

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields its id."""
        opened = self._open()
        try:
            yield opened[1]
        finally:
            self._close(name, opened)

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened)

        return wrapper

    def on_replica(self, fn: Callable, parent: int) -> Callable:
        """``fn(i)`` run as replica ``i`` under the span ``parent``, on
        whichever thread the executor picks."""

        @functools.wraps(fn)
        def replica_body(i):
            state = self._state()
            saved = state.stack, state.replica
            state.stack, state.replica = [parent], i
            try:
                return fn(i)
            finally:
                state.stack, state.replica = saved

        return replica_body

    # -- installation ------------------------------------------------------------

    def install(self, patches: Sequence["Patch"]) -> None:
        if self._installed:
            raise RuntimeError("recorder is already installed")
        try:
            for patch in patches:
                owner = patch.resolve()
                original = vars(owner)[patch.attr]
                setattr(owner, patch.attr, patch.wrap(self, original))
                self._installed.append((owner, patch.attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, patches: Sequence["Patch"]):
        self.install(patches)
        try:
            yield self
        finally:
            self.uninstall()


@dataclass(frozen=True)
class Patch:
    """``owner.attr`` (owner: ``"module"`` or ``"module:Class"``) wrapped
    by ``wrap(recorder, original)``."""

    owner: str
    attr: str
    wrap: Callable

    def resolve(self):
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        if self.attr not in vars(owner):
            raise AttributeError(f"{self.owner} has no attribute {self.attr!r} of its own")
        return owner


def timed(name: str) -> Callable:
    return lambda recorder, original: recorder.timed(name, original)


def _executor_run(recorder: Recorder, original: Callable) -> Callable:
    def run(self, fn):
        with recorder.span("parallel.run." + fn.__name__) as sid:
            return original(self, recorder.on_replica(fn, sid))

    return run


def _pool_gather(recorder: Recorder, original: Callable) -> Callable:
    def gather(self, command, payloads):
        with recorder.span("parallel.gather." + command):
            return original(self, command, payloads)

    return gather


def _counted_acquire(recorder: Recorder, original: Callable) -> Callable:
    def acquire(self, blocking=True, timeout=-1):
        recorder.count("locks.acquires")
        return original(self, blocking, timeout)

    return acquire


#: The layer boundaries of a training step.  A module-level function is
#: patched where its callers look it up, which for a name imported with
#: ``from ... import`` is the importing module.
PATCHES: Tuple[Patch, ...] = (
    Patch("repro.sil.frontend", "lower_function", timed("sil.lower")),
    Patch("repro.core.api", "lower_function", timed("sil.lower")),
    Patch("repro.core.synthesis", "vjp_plan", timed("core.vjp_plan")),
    Patch("repro.core.synthesis:VJPPlan", "execute_forward", timed("core.forward")),
    Patch("repro.core.synthesis:VJPPlan", "run_pullback", timed("core.pullback")),
    Patch("repro.runtime.device:Dispatcher", "dispatch", timed("runtime.dispatch")),
    Patch("repro.tensor.lazy_backend:LazyRuntime", "barrier", timed("tensor.barrier")),
    Patch("repro.tensor.lazy_backend:LazyRuntime", "materialize", timed("tensor.materialize")),
    Patch("repro.tensor.lazy_backend", "compile_module", timed("hlo.compile_module")),
    Patch("repro.hlo.compiler", "compile_module", timed("hlo.compile_module")),
    Patch("repro.hlo.compiler", "fingerprint", timed("hlo.fingerprint")),
    Patch("repro.hlo.compiler", "optimize", timed("hlo.optimize")),
    Patch("repro.hlo.codegen", "generate_certified", timed("hlo.generate_certified")),
    Patch(
        "repro.analysis.equivalence.validator",
        "validate_translation",
        timed("hlo.validate"),
    ),
    Patch("repro.hlo.compiler:Executable", "run", timed("hlo.run")),
    Patch("repro.hlo.codegen:CodegenExecutable", "run", timed("hlo.codegen_run")),
    Patch("repro.optim.optimizers:SGD", "update", timed("optim.update")),
    Patch("repro.runtime.parallel.executor:MultiReplicaExecutor", "run", _executor_run),
    Patch("repro.runtime.parallel.process:ReplicaWorkerPool", "gather", _pool_gather),
    Patch("repro.runtime.parallel.shm:GradientExchange", "reduce_mean", timed("parallel.reduce_mean")),
    Patch("repro.locks:InstrumentedRLock", "acquire", _counted_acquire),
)


# -- analysis -------------------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = children_of(spans)
    return {
        s.id: s.duration - covered(s.start, s.end, ((c.start, c.end) for c in children[s.id]))
        for s in spans
    }


def chrome_trace(spans: Sequence[Span], origin: float, metadata: dict) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    tids: Dict[int, int] = {}
    events = []
    pid = os.getpid()
    for s in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(s.thread, len(tids))
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "id": s.id,
                    "parent": s.parent,
                    "step": s.step,
                    "path": s.path,
                    "replica": s.replica,
                    "phase": s.phase,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
