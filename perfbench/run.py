"""Training-step benchmark: every workload on every execution path.

Usage, from the repository root::

    python3 perfbench/run.py --workload resnet_hit --seed 1 --seconds 35 --trace 0

One run sets the workload up from cleared caches several times (the
median is ``setup_s``), then rotates its six paths in blocks of
``BLOCK`` steps until ``--seconds`` have passed, checking every step's
loss against its group's reference path.  Twice a round, once every
other thread of the benchmark's process tree has gone idle, it times a
fixed host probe (``quiet_probe``); ``--trace 0`` reports the end-to-end
metrics with the set-up and step times scaled to the reference host
speed (``end_to_end``), and the unscaled figures in the report line.
``--trace 1`` sets up once and alternates untraced and traced rounds:
the traced rounds wrap each layer's public functions in spans
(``perfbench/spans.py``) and give the per-layer metrics, and the two
kinds of round together give the tracing overhead.  Traced runs also
write a Chrome trace and the flat per-layer table to ``perfbench/out/``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is a report with the host facts, per-path step counts and failures.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Steps a path runs before the rotation moves to the next path.
BLOCK = 4
#: Iterations of the host probe, run twice per round of the window:
#: before the process-backend block and after it.
PROBE_ITERS = 3000
#: A probe counts only if the other threads of the process tree ran for
#: less than this, together, while it ran.  Before each probe the window
#: waits, polling every ``QUIET_POLL_S``, for one poll interval in which
#: they ran less than this too.  Idle workers keep their BLAS threads
#: spinning for a while after a step; the wait also keeps that spin from
#: slowing whichever path runs next.
QUIET_NS = 1_000_000
QUIET_POLL_S = 0.02
#: The longest wait for a quiet probe; after it the probe point is dropped.
QUIET_TIMEOUT_S = 2.0
#: The probe's typical mean time over a window on the 2-CPU host this
#: benchmark was written on; set-up and step times are scaled to it
#: (end_to_end).
PROBE_REFERENCE_S = 0.023
#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Minimum rounds of the window; ``peak_rss_mb`` is read after this many,
#: so it covers a fixed number of steps whatever the host speed.
RSS_ROUNDS = 3
#: How long the benchmark waits at exit for the processes it started
#: before it kills them.
REAP_TIMEOUT_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


# -- processes ----------------------------------------------------------------


def adopt_orphans() -> None:
    """Make this process the parent of its orphaned descendants.

    The process backend's workers each start a multiprocessing resource
    tracker that outlives them; adopted, those trackers can be waited for.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def stop_children(timeout: float = REAP_TIMEOUT_S) -> None:
    """Stop this process's resource tracker, then wait for every child,
    adopted ones too, to end; kill those still running after ``timeout``.

    Registered with atexit before the program is imported, so it runs
    after the program's own exit handlers, which may still use the tracker.
    """
    resource_tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker = resource_tracker and resource_tracker._resource_tracker
    if tracker and tracker._fd is not None:  # closing its pipe makes it exit
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = perf_counter() + timeout
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if not killed and perf_counter() > deadline:
            for pid in process_tree()[1:]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        sleep(0.01)


# -- host facts -------------------------------------------------------------------


def blas_threads():
    """OpenBLAS's thread count, read (never set) from NumPy's bundled library."""
    pattern = os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*.so")
    for lib in sorted(glob.glob(pattern)):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        get.argtypes = []
        return get()
    return None


def src_lines() -> int:
    total = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as f:
            total += sum(1 for _ in f)
    return total


def host_facts(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "src_lines": src_lines(),
    }


# -- correctness ------------------------------------------------------------------


class Checker:
    """Every step's losses against its group's reference at the same step.

    The first path of a group to run step ``i`` (eager, or serial) sets
    the reference; later paths must match it bit for bit.  A step that
    raises, gives a non-finite loss or differs counts as failed.
    """

    def __init__(self) -> None:
        self.reference = {}
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        self.errors = []

    def record(self, path, step: int, losses) -> bool:
        """Checks one step's losses; True if the step passed."""
        self.attempted[path.name] += 1
        reference = self.reference.setdefault((path.group, step), (path.name, losses))
        if not all(math.isfinite(v) for v in losses):
            self._fail(path, step, f"non-finite loss {losses}")
        elif reference[1] != losses:
            self._fail(path, step, f"loss {losses} != {reference[0]} {reference[1]}")
        else:
            return True
        return False

    def raised(self, path, step: int, exc: BaseException) -> None:
        self.attempted[path.name] += 1
        self._fail(path, step, f"{type(exc).__name__}: {exc}")

    def _fail(self, path, step: int, why: str) -> None:
        self.failed[path.name] += 1
        if len(self.errors) < 10:
            self.errors.append(f"{path.name} step {step}: {why}")


def run_step(path, step: int, checker: Checker, recorder=None):
    """One checked step; returns its wall time in seconds, or None if it failed."""
    if recorder is not None:
        recorder.path, recorder.step = path.name, step
    with recorder.span("step") if recorder is not None else nullcontext():
        start = perf_counter()
        try:
            losses = path.step(step)
        except Exception as exc:  # a failed step is counted, and the run goes on
            checker.raised(path, step, exc)
            return None
        elapsed = perf_counter() - start
    return elapsed if checker.record(path, step, losses) else None


# -- set-up -----------------------------------------------------------------------


def clear_program_caches() -> None:
    from repro.core.synthesis import clear_plan_caches
    from repro.hlo.codegen import clear_source_cache
    from repro.hlo.compiler import clear_cache
    from repro.sil.frontend import clear_lowering_cache

    clear_lowering_cache()
    clear_plan_caches()
    clear_cache()
    clear_source_cache()


def cold_setup(workload, batches, checker, recorder=None):
    """Build every path from cleared caches and run its first step.

    Returns ``(paths, seconds)``.  With a recorder, the first steps are
    traced (the process workers have forked by then, untraced).
    """
    from perfbench.workloads import build_paths, close_paths
    from perfbench.spans import PATCHES

    clear_program_caches()
    start = perf_counter()
    paths = build_paths(workload, batches)
    try:
        if recorder is None:
            for path in paths:
                run_step(path, 0, checker)
        else:
            with recorder.installed(PATCHES):
                for path in paths:
                    run_step(path, 0, checker, recorder)
    except BaseException:
        close_paths(paths)
        raise
    return paths, perf_counter() - start


# -- the timed window -------------------------------------------------------------


class PathLog:
    """Per-path times of the steps that passed and, for traced rounds,
    counter deltas."""

    def __init__(self) -> None:
        self.walls = []
        self.traced_walls = []
        self.traced_steps = 0  # failed ones too: their spans are recorded
        self.counts = defaultdict(int)


def _counters(path, recorder):
    from repro.hlo.compiler import STATS

    return {
        "hlo.compiles": STATS.compiles,
        "hlo.cache_hits": STATS.cache_hits,
        "tensor.ops_traced": path.ops_traced(),
        "locks.acquires": recorder.counter("locks.acquires"),
    }


def host_probe() -> float:
    """Seconds this host takes for a fixed slice of interpreter and small
    NumPy work that calls no program code."""
    start = perf_counter()
    a = np.full((64, 64), 0.5, np.float32)
    total = 0
    for i in range(PROBE_ITERS):
        total += i * i % 7
        a = np.tanh(a * 1.5 + 0.25)
    return perf_counter() - start


def process_tree() -> list:
    """This process's pid and those of all its live descendants."""
    pids, pending = [], [os.getpid()]
    while pending:
        pid = pending.pop()
        pids.append(pid)
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as f:
                    pending.extend(int(child) for child in f.read().split())
        except OSError:  # the process or thread ended meanwhile
            continue
    return pids


def other_threads_cpu() -> dict:
    """Nanoseconds on CPU so far of each thread in the process tree except
    the calling one, keyed by (pid, tid)."""
    me = (os.getpid(), threading.get_native_id())
    times = {}
    for pid in process_tree():
        try:
            tids = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            continue
        for tid in tids:
            if (pid, tid) == me:
                continue
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                    times[pid, tid] = int(f.read().split()[0])
            except OSError:
                continue
    return times


def _ran_ns(before: dict, after: dict) -> int:
    """CPU time the other threads used between two readings; threads that
    appeared in between count in full."""
    return sum(ns - before.get(key, 0) for key, ns in after.items())


def quiet_probe(timeout: float = QUIET_TIMEOUT_S):
    """Time :func:`host_probe` while no other thread of the process tree
    runs, so that no program code competes with it for the host.

    Waits for a poll interval in which the other threads ran less than
    ``QUIET_NS``, runs the probe, and keeps it if they also stayed under
    ``QUIET_NS`` meanwhile; else waits again.  Returns ``(seconds,
    waited)``, with ``seconds`` None if no quiet probe came within
    ``timeout``.
    """
    start = perf_counter()
    before = other_threads_cpu()
    while perf_counter() - start < timeout:
        sleep(QUIET_POLL_S)
        now = other_threads_cpu()
        if _ran_ns(before, now) < QUIET_NS:
            seconds = host_probe()
            before = other_threads_cpu()
            if _ran_ns(now, before) < QUIET_NS:
                return seconds, perf_counter() - start
        else:
            before = now
    return None, perf_counter() - start


class Window:
    """What :func:`run_window` measured besides the step times."""

    def __init__(self) -> None:
        self.probes = []  # seconds of each quiet probe
        self.dropped = 0  # probe points with no quiet probe
        self.waited = 0.0  # seconds spent waiting for quiet and probing
        self.rss_mb = None  # peak_rss_mb() after RSS_ROUNDS rounds
        self.cache_entries = None  # compile-cache size at the same point

    def probe(self) -> None:
        seconds, waited = quiet_probe()
        self.waited += waited
        if seconds is None:
            self.dropped += 1
        else:
            self.probes.append(seconds)


def run_window(paths, seconds, first_step, checker, recorder=None):
    """Rotate the paths in blocks until ``seconds`` pass, and for at least
    ``RSS_ROUNDS`` rounds; returns the per-path logs and a :class:`Window`.
    With a recorder, every second round is traced."""
    from repro.hlo.compiler import cache_size
    from perfbench.spans import PATCHES

    logs = {path.name: PathLog() for path in paths}
    window = Window()
    step, rounds = first_step, 0
    start = perf_counter()
    while rounds < RSS_ROUNDS or perf_counter() - start < seconds:
        traced = recorder is not None and rounds % 2 == 1
        window.probe()  # after the previous round's process block
        if traced:
            recorder.phase = "window"
            recorder.install(PATCHES)
        try:
            for path in paths:
                if path.name == "process":
                    window.probe()
                log = logs[path.name]
                before = _counters(path, recorder) if traced else None
                for i in range(step, step + BLOCK):
                    wall = run_step(path, i, checker, recorder if traced else None)
                    log.traced_steps += traced
                    if wall is not None:
                        (log.traced_walls if traced else log.walls).append(wall)
                if traced:
                    after = _counters(path, recorder)
                    for key in after:
                        log.counts[key] += after[key] - before[key]
        finally:
            if traced:
                recorder.uninstall()
        step += BLOCK
        rounds += 1
        if rounds == RSS_ROUNDS:
            window.rss_mb, window.cache_entries = peak_rss_mb(), cache_size()
    return logs, window


# -- metrics ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """The largest peak RSS so far of this process, its live descendants
    and any child already waited for."""
    peaks_kb = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    for pid in process_tree():
        try:
            with open(f"/proc/{pid}/status") as f:
                peaks_kb += [int(line.split()[1]) for line in f if line.startswith("VmHWM:")]
        except OSError:
            continue
    return max(peaks_kb) / 1024.0


def p90_samples(walls) -> dict:
    """The sample count behind a p90, and how many samples lie beyond it."""
    p90 = np.percentile(walls, 90) if walls else 0.0
    return {"n": len(walls), "beyond_p90": sum(1 for w in walls if w > p90)}


def end_to_end(workload, logs, setup_times, slowdown: float = 1.0) -> dict:
    """Set-up and step figures, the times divided by the host's ``slowdown``.

    The host this runs on is shared, and its speed drifts by up to 2-3x
    over minutes.  The run's mean quiet-probe time over
    ``PROBE_REFERENCE_S`` gives its slowdown in that run; a slower host
    stretches the probe and the work of this process alike, so dividing it
    out leaves the program's own speed at the reference host speed.  The
    mean, not the median: the probe's times fall into a fast and a slow
    mode, and the median jumps between them while the mean follows their
    mix.  ``process`` figures stay unscaled: that path's steps run in
    worker processes on every CPU, whose speed a one-thread probe does
    not measure.
    """
    metrics = {"setup_s": (statistics.median(setup_times) / slowdown, "s")}
    for name, log in logs.items():
        if not log.walls:  # every step failed; the run is reported incorrect
            metrics[f"samples_per_s.{name}"] = (0.0, "1/s")
            metrics[f"step_ms_p90.{name}"] = (0.0, "ms")
            continue
        scale = 1.0 if name == "process" else slowdown
        metrics[f"samples_per_s.{name}"] = (
            len(log.walls) * workload.global_batch / sum(log.walls) * scale,
            "1/s",
        )
        metrics[f"step_ms_p90.{name}"] = (
            float(np.percentile(log.walls, 90)) * 1e3 / scale,
            "ms",
        )
    return metrics


#: Per-step layer times: (metric, span name, self time?, paths).
LAYER_TIMES = (
    ("core.forward_self_ms", "core.forward", True, ("eager", "lazy", "codegen", "serial", "thread")),
    ("core.pullback_self_ms", "core.pullback", True, ("eager", "lazy", "codegen", "serial", "thread")),
    ("runtime.dispatch_ms", "runtime.dispatch", False, ("eager",)),
    ("tensor.barrier_self_ms", ("tensor.barrier", "tensor.materialize"), True, ("lazy", "codegen", "serial", "thread")),
    ("hlo.fingerprint_ms", "hlo.fingerprint", False, ("lazy", "codegen", "serial", "thread")),
    ("hlo.compile_module_self_ms", "hlo.compile_module", True, ("lazy", "codegen", "serial", "thread")),
    ("hlo.run_ms", "hlo.run", False, ("lazy", "serial", "thread")),
    ("hlo.codegen_run_ms", "hlo.codegen_run", False, ("codegen",)),
    ("optim.update_self_ms", "optim.update", True, ("eager", "lazy", "codegen", "serial", "thread")),
    ("parallel.forward_backward_ms", "parallel.run.forward_backward", False, ("serial", "thread")),
    ("parallel.apply_ms", "parallel.run.apply_update", False, ("serial", "thread")),
    ("parallel.merge_self_ms", "step", True, ("serial", "thread")),
    ("parallel.gather_step_ms", "parallel.gather.step", False, ("process",)),
    ("parallel.gather_apply_ms", "parallel.gather.apply", False, ("process",)),
    ("parallel.reduce_mean_ms", "parallel.reduce_mean", False, ("process",)),
)

#: Per-step counts from counter deltas: (metric, counter, paths).
LAYER_COUNTS = (
    ("runtime.dispatch_calls", None, ("eager",)),
    ("tensor.ops_traced", "tensor.ops_traced", ("lazy", "codegen", "serial", "thread")),
    ("hlo.cache_hits", "hlo.cache_hits", ("lazy", "codegen", "serial", "thread")),
    ("hlo.compiles", "hlo.compiles", ("lazy", "codegen", "serial", "thread")),
    ("locks.acquires", "locks.acquires", ("eager", "lazy", "codegen", "serial", "thread", "process")),
)


#: The end-to-end metric each per-layer metric should move, written into
#: the layer table (per-path metrics move that path's end-to-end figures).
MOVES = {
    "sil.lower": "setup_s",
    "core.vjp_plan_ms": "setup_s",
    "core": "samples_per_s and step_ms_p90 of the path",
    "runtime.dispatch": "samples_per_s.eager",
    "tensor": "samples_per_s of lazy, codegen, serial and thread (most on resnet_hit)",
    "hlo.fingerprint_ms": "samples_per_s of the lazy paths (resnet_hit: hits)",
    "hlo.compile_module_self_ms": "samples_per_s of the lazy paths",
    "hlo.cache_hits": "samples_per_s of the lazy paths",
    "hlo.compiles": "samples_per_s of the lazy paths (lenet_retrace: misses)",
    "hlo.optimize_ms_per_compile": "setup_s, and samples_per_s on lenet_retrace",
    "hlo.codegen_self_ms_per_compile": "setup_s, and samples_per_s.codegen on lenet_retrace",
    "hlo.validate_ms_per_compile": "setup_s, and samples_per_s.codegen on lenet_retrace",
    "hlo.run_ms": "samples_per_s of lazy, serial and thread",
    "hlo.codegen_run_ms": "samples_per_s.codegen",
    "optim": "every samples_per_s (small)",
    "parallel": "samples_per_s and step_ms_p90 of serial, thread and process (most on pod_mlp)",
    "locks": "samples_per_s.eager and samples_per_s.thread",
    "trace": "none: how far the traced figures can be trusted",
}


def moves(metric: str) -> str:
    """The longest :data:`MOVES` key that prefixes ``metric``."""
    keys = [k for k in MOVES if metric == k or metric.startswith(k + ".") or metric.startswith(k + "_")]
    return MOVES[max(keys, key=len)]


def per_layer(recorder, logs, paths) -> dict:
    from perfbench.spans import children_of, covered, self_times

    spans = recorder.spans
    selfs = self_times(spans)
    window = defaultdict(list)
    for s in spans:
        if s.phase == "window":
            window[s.path].append(s)
    metrics = {}
    for name, span_names, use_self, on in LAYER_TIMES:
        names = (span_names,) if isinstance(span_names, str) else span_names
        for path in on:
            steps = max(logs[path].traced_steps, 1)
            total = sum(
                selfs[s.id] if use_self else s.duration
                for s in window[path]
                if s.name in names
            )
            metrics[f"{name}.{path}"] = (total * 1e3 / steps, "ms")
    for name, counter, on in LAYER_COUNTS:
        for path in on:
            steps = max(logs[path].traced_steps, 1)
            if counter is None:
                count = sum(1 for s in window[path] if s.name == "runtime.dispatch")
            else:
                count = logs[path].counts[counter]
            metrics[f"{name}.{path}"] = (count / steps, "count")
    for path in paths:
        if path.group == "pod":
            metrics[f"parallel.gradient_bytes.{path.name}"] = (path.gradient_bytes, "B")

    # Set-up layers, over the traced cold set-up.
    setup = [s for s in spans if s.phase == "setup"]
    lower = [s for s in setup if s.name == "sil.lower"]
    metrics["sil.lower_ms"] = (sum(selfs[s.id] for s in lower) * 1e3, "ms")
    metrics["sil.lower_calls"] = (len(lower), "count")
    metrics["core.vjp_plan_ms"] = (
        sum(selfs[s.id] for s in setup if s.name == "core.vjp_plan") * 1e3,
        "ms",
    )
    # Compile layers, per compile, over set-up and window together.
    optimize = [s for s in spans if s.name == "hlo.optimize"]
    certify = [s for s in spans if s.name == "hlo.generate_certified"]
    validate = [s for s in spans if s.name == "hlo.validate"]
    metrics["hlo.optimize_ms_per_compile"] = (
        sum(s.duration for s in optimize) * 1e3 / len(optimize),
        "ms",
    )
    metrics["hlo.codegen_self_ms_per_compile"] = (
        sum(selfs[s.id] for s in certify) * 1e3 / len(certify),
        "ms",
    )
    metrics["hlo.validate_ms_per_compile"] = (
        sum(s.duration for s in validate) * 1e3 / len(certify),
        "ms",
    )

    # Tracing overhead and how much of a traced step the layer spans cover.
    children = children_of(spans)
    for path in logs:
        log = logs[path]
        if log.walls and log.traced_walls:
            untraced = statistics.fmean(log.walls)
            traced = statistics.fmean(log.traced_walls)
            metrics[f"trace.overhead_pct.{path}"] = ((traced - untraced) / untraced * 100, "%")
        else:  # every step failed; the run is reported incorrect
            metrics[f"trace.overhead_pct.{path}"] = (0.0, "%")
        roots = [s for s in window[path] if s.name == "step"]
        total = sum(s.duration for s in roots)
        cover = sum(
            covered(s.start, s.end, ((c.start, c.end) for c in children[s.id])) for s in roots
        )
        metrics[f"trace.coverage_pct.{path}"] = (cover / total * 100, "%")
    return metrics


def layer_table(recorder, logs) -> dict:
    """Flat table: per path and span name, per-step self time and calls."""
    from perfbench.spans import self_times

    selfs = self_times(recorder.spans)
    table = defaultdict(lambda: defaultdict(lambda: {"self_ms": 0.0, "total_ms": 0.0, "calls": 0}))
    for s in recorder.spans:
        if s.phase != "window":
            continue
        row = table[s.path][s.name]
        row["self_ms"] += selfs[s.id] * 1e3
        row["total_ms"] += s.duration * 1e3
        row["calls"] += 1
    flat = {}
    for path, rows in table.items():
        steps = max(logs[path].traced_steps, 1)
        flat[path] = {
            name: {key: value / steps for key, value in row.items()}
            for name, row in sorted(rows.items())
        }
    return flat


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    adopt_orphans()
    atexit.register(stop_children)
    import_program()
    from repro.hlo.compiler import cache_size
    from perfbench.spans import Recorder, chrome_trace
    from perfbench.workloads import WORKLOADS, close_paths, make_batches

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    facts = host_facts(args.seed)
    batches = make_batches(workload, args.seed)
    checker = Checker()
    recorder = Recorder() if args.trace else None
    origin = perf_counter()

    setup_times = []
    paths = []
    try:
        for _ in range(1 if args.trace else SETUPS):
            close_paths(paths)
            paths = []
            gc.collect()
            paths, seconds = cold_setup(workload, batches, checker, recorder)
            setup_times.append(seconds)
        # One untimed round so no path starts the window with first-use work.
        for path in paths:
            for i in range(1, 1 + BLOCK):
                run_step(path, i, checker)
        logs, window = run_window(paths, args.seconds, 1 + BLOCK, checker, recorder)
    finally:
        close_paths(paths)

    if args.trace:
        metrics = per_layer(recorder, logs, paths)
    else:
        if not window.probes:
            raise SystemExit("perfbench: the program's threads never went idle for a host probe")
        slowdown = statistics.fmean(window.probes) / PROBE_REFERENCE_S
        metrics = end_to_end(workload, logs, setup_times, slowdown)
        metrics["peak_rss_mb"] = (window.rss_mb, "MB")

    attempted = sum(checker.attempted.values())
    failed = sum(checker.failed.values())
    report = {
        "workload": workload.name,
        "host": facts,
        "trace": args.trace,
        "setup_s": setup_times,
        "probe_s": window.probes,
        "probes_dropped": window.dropped,
        "probe_wait_s": window.waited,
        "unscaled": None if args.trace else end_to_end(workload, logs, setup_times),
        "steps": {name: checker.attempted[name] for name in logs},
        "failed": {name: checker.failed[name] for name in logs},
        "errors": checker.errors,
        "p90_samples": {name: p90_samples(log.walls) for name, log in logs.items()},
        "window_steps": {
            name: {"untraced": len(log.walls), "traced": len(log.traced_walls)}
            for name, log in logs.items()
        },
        "rss_after_window_steps_per_path": RSS_ROUNDS * BLOCK,
        "compile_cache_entries": {"at_rss": window.cache_entries, "end": cache_size()},
    }
    if args.trace:
        report["limits"] = (
            "process: main-process spans only; the workers run the same layers "
            "as serial and thread, which are measured there"
        )
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload.name}-seed{args.seed}"
        with open(f"{stem}.trace.json", "w") as f:
            json.dump(chrome_trace(recorder.spans, origin, report), f)
        with open(f"{stem}.layers.json", "w") as f:
            json.dump(
                {
                    "report": report,
                    "metrics": {
                        name: {"value": value, "unit": unit, "moves": moves(name)}
                        for name, (value, unit) in metrics.items()
                    },
                    "per_step": layer_table(recorder, logs),
                },
                f,
                indent=1,
            )
        report["files"] = [
            str(Path(f"{stem}{suffix}").relative_to(ROOT)) for suffix in (".trace.json", ".layers.json")
        ]
    print(json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
