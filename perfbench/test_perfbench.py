"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import sleep

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import PATCHES, Recorder, Span, covered, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_uninstall_restores_the_identical_originals():
    originals = [(p.resolve(), p.attr, vars(p.resolve())[p.attr]) for p in PATCHES]
    recorder = Recorder()
    with recorder.installed(PATCHES):
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr


def test_failed_install_rolls_back():
    from perfbench.spans import Patch, timed

    owner, attr = PATCHES[0].resolve(), PATCHES[0].attr
    original = vars(owner)[attr]
    broken = PATCHES[:1] + (Patch("repro.hlo.compiler", "no_such_function", timed("x")),)
    with pytest.raises(AttributeError):
        Recorder().install(broken)
    assert vars(owner)[attr] is original


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, 0, "p", None, 0, "window")


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] has children [1, 4] and [3, 6] that overlap, and [8, 12]
    # that runs past its end; [1, 4] has a child [2, 3].
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 8.0, 12.0, parent=0),
        _span(4, 2.0, 3.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.5, 2.6), (11.0, 12.0)]) == pytest.approx(1.0)


def test_spans_record_parents_across_replica_threads():
    from concurrent.futures import ThreadPoolExecutor

    recorder = Recorder()
    leaf = recorder.timed("leaf", lambda i: i * 2)
    with ThreadPoolExecutor(2) as pool:
        with recorder.span("run") as parent:
            body = recorder.on_replica(leaf, parent)
            assert list(pool.map(body, range(2))) == [0, 2]
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    (run,) = by_name["run"]
    assert sorted(s.replica for s in by_name["leaf"]) == [0, 1]
    assert all(s.parent == run.id for s in by_name["leaf"])


def _busy_child(seconds):
    """A child process that spins for ``seconds``, then sleeps."""
    return subprocess.Popen(
        [sys.executable, "-c",
         f"import time\nend = time.perf_counter() + {seconds}\n"
         "while time.perf_counter() < end: pass\ntime.sleep(60)"]
    )


def _cpu_s(pid):
    with open(f"/proc/{pid}/schedstat") as f:
        return int(f.read().split()[0]) / 1e9


def test_probe_waits_until_a_busy_child_is_idle():
    from perfbench.run import quiet_probe

    child = _busy_child(0.6)
    try:
        sleep(0.05)
        seconds, waited = quiet_probe()
        spun = _cpu_s(child.pid)
    finally:
        child.kill()
        child.wait()
    assert seconds is not None
    assert spun > 0.4  # the child was busy, and the probe waited it out
    assert waited > 0.4


def test_probe_is_dropped_while_a_child_stays_busy():
    from perfbench.run import quiet_probe

    child = _busy_child(60)
    try:
        sleep(0.05)
        seconds, waited = quiet_probe(timeout=0.3)
    finally:
        child.kill()
        child.wait()
    assert seconds is None and waited >= 0.3


class _FakePath:
    group = "single"

    def __init__(self, name, step):
        self.name, self.step = name, step


def _boom(i):
    raise RuntimeError("boom")


def test_failed_steps_give_no_wall_time():
    from perfbench.run import Checker, run_step

    checker = Checker()
    assert run_step(_FakePath("eager", lambda i: (1.0,)), 0, checker) is not None
    assert run_step(_FakePath("lazy", lambda i: (2.0,)), 0, checker) is None
    assert run_step(_FakePath("codegen", _boom), 0, checker) is None
    assert run_step(_FakePath("eager", lambda i: (float("nan"),)), 1, checker) is None
    assert dict(checker.attempted) == {"eager": 2, "lazy": 1, "codegen": 1}
    assert dict(checker.failed) == {"eager": 1, "lazy": 1, "codegen": 1}


#: Runs the command given as arguments as the adoptive parent of every
#: process the command leaves behind (PR_SET_CHILD_SUBREAPER), then kills
#: and waits for those orphans and prints the run as JSON, orphans counted.
_ADOPTING_PARENT = """
import ctypes, json, os, signal, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
run = subprocess.run(sys.argv[1:], capture_output=True, text=True, timeout=170)
for task in os.listdir("/proc/self/task"):
    with open(f"/proc/self/task/{task}/children") as f:
        for pid in f.read().split():
            os.kill(int(pid), signal.SIGKILL)
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print(json.dumps({"returncode": run.returncode, "stdout": run.stdout,
                  "stderr": run.stderr, "orphans": orphans}))
"""


def _run(workload, trace, cwd=ROOT):
    wrapper = subprocess.run(
        [sys.executable, "-c", _ADOPTING_PARENT,
         sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=175,
        check=True,
    )
    return json.loads(wrapper.stdout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    run = _run(workload, trace)
    assert run["returncode"] == 0, run["stderr"]
    # The run waited for every process it started (workers, resource trackers).
    assert run["orphans"] == 0
    result = json.loads(run["stdout"].strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = _run("pod_mlp", 0, cwd=tmp_path)
    assert run["returncode"] != 0
    assert '"metrics"' not in run["stdout"]
