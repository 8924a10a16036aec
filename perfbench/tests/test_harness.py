"""Run hygiene helpers that need no Ray.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import harness  # noqa: E402

AFFINITY = "import os, json; print(json.dumps(sorted(os.sched_getaffinity(0))))"


def _pin_in_child() -> list:
    """idlest_cpu + pin_tree in a forked child (the test process stays
    unpinned). Returns the CPU chosen and the affinity of a thread and a
    process that existed before the call, of the child itself and of a
    process started after it."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            stop = threading.Event()
            early = threading.Thread(target=stop.wait)
            early.start()
            before = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                                      stdin=subprocess.PIPE)
            cpu = harness.idlest_cpu(sample_s=0.05)
            harness.pin_tree(cpu)
            seen = [sorted(os.sched_getaffinity(early.native_id)), sorted(os.sched_getaffinity(before.pid)),
                    sorted(os.sched_getaffinity(0))]
            before.communicate(b"")
            stop.set()
            early.join()
            after = subprocess.run([sys.executable, "-c", AFFINITY], capture_output=True, text=True, check=True)
            os.write(w, json.dumps([cpu, *seen, json.loads(after.stdout)]).encode())
        finally:
            os._exit(0)
    os.close(w)
    out = b""
    while chunk := os.read(r, 4096):
        out += chunk
    os.waitpid(pid, 0)
    return json.loads(out)


def test_pin_tree_pins_threads_children_and_later_processes():
    allowed = os.sched_getaffinity(0)
    cpu, early_thread, early_child, main, later_child = _pin_in_child()
    assert cpu in allowed
    assert early_thread == early_child == main == later_child == [cpu]
    assert os.sched_getaffinity(0) == allowed


def test_cpu_idle_ticks_covers_allowed_cpus():
    ticks = harness._cpu_idle_ticks()
    assert set(os.sched_getaffinity(0)) <= set(ticks)
    assert all(v >= 0 for v in ticks.values())
