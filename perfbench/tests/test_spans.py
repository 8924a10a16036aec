"""The tracer's wrapping and self times, and the Ray Data stats parser.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

from spans import Tracer  # noqa: E402
from workloads import _stage_stats  # noqa: E402


class Thing:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        time.sleep(0.01)
        return x * 2


def test_wrap_times_and_restores_a_class_method():
    tr = Tracer()
    seen = []
    with tr.wrap(Thing, "inner", "inner", lambda args, out, grew: seen.append((args[1], out, grew))):
        with tr.span("outer"):
            assert Thing().work(3) == 7
    assert "inner" in vars(Thing) and Thing().work(1) == 3 and len(tr.spans) == 2
    assert seen == [(3, 6, 0)]
    st = tr.self_times()
    assert st["inner"] >= 0.01 and st["outer"] < st["inner"]


def test_wrap_one_object_leaves_other_objects_alone():
    tr = Tracer()
    a, b = Thing(), Thing()
    with tr.wrap(a, "inner", "inner"):
        a.work(1), b.work(1)
    assert tr.counts() == {"inner": 1}
    assert "inner" not in vars(a)


def test_wrap_module_function_with_meter_and_no_span():
    tr = Tracer()
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    orig = mod.f
    ticks = iter(range(0, 100, 5))
    grew = []
    with tr.wrap(mod, "f", observe=lambda args, out, g: grew.append(g), meter=lambda: next(ticks)):
        assert mod.f(1) == 2
    assert mod.f is orig and tr.spans == [] and grew == [5]


def test_wrap_restores_after_an_error():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.wrap(Thing, "inner", "inner"):
            raise ValueError
    assert vars(Thing)["inner"].__name__ == "inner"


STATS = """Operator 1 ReadRange: 1 tasks executed, 1 blocks produced in 0.01s

Operator 2 MapBatches(QueryEvalStage): 25 tasks executed, 25 blocks produced in 3.64s
* Remote wall time: 41.5ms min, 112.06ms max, 62.4ms mean, 1.56s total
* Remote cpu time: 20.1ms min, 50.2ms max, 30.0ms mean, 750.0ms total
* Output num rows per block: 320 min, 320 max, 320 mean, 8000 total

Dataset throughput:
"""


def test_stage_stats():
    st = _stage_stats(STATS, "QueryEvalStage")
    assert st == {"batches": 25.0, "task_mean_s": pytest.approx(0.0624), "stage_s": 1.56, "rows_out": 8000.0}
    with pytest.raises(RuntimeError):
        _stage_stats(STATS, "NoSuchStage")
