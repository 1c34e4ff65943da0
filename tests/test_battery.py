import time

import pytest

from sumcollapse.battery import decided, run
from sumcollapse.verdict import RelationVerdict, Status, holds, holds_on_window

HOLDS, WINDOW, FAILS = Status.HOLDS, Status.HOLDS_ON_WINDOW, Status.FAILS


def test_decided():
    assert decided(True, None, (3, 9), ((1,),)) == RelationVerdict(
        HOLDS, certified_range=(3, 9), witnesses=((1,),)
    )
    assert decided(True, None, good=WINDOW).status is WINDOW
    v = decided(False, 15, (3, 9), good=WINDOW)
    assert (v.status, v.counterexample, v.certified_range) == (FAILS, 15, (3, 9))
    # a failure must carry its counterexample
    with pytest.raises(RuntimeError, match="without a counterexample"):
        decided(False, None)


def test_run_sorts_and_times_setup():
    def group():
        time.sleep(0.05)  # shared setup, counted toward the first check
        yield "b/first-run", "first", HOLDS, holds("settled")
        yield "a/second-run", "second", HOLDS, holds_on_window((6, 100), "windowed")

    second, first = run(group())  # sorted by ref
    assert (first.ref, second.ref) == ("b/first-run", "a/second-run")
    assert first.elapsed_ms >= 50 > second.elapsed_ms
    assert first.passed and not second.passed
    assert second.to_dict(timings=False) == {
        "ref": "a/second-run",
        "claim": "second",
        "status": "holds_on_window",
        "certified_range": [6, 100],
        "counterexample": None,
        "witnesses": [],
        "elapsed_ms": 0,
    }
