"""workers.share: a share nested in an item of a share on two workers runs
on that item's worker alone; nested in a share on one worker, it keeps its
helper."""

import sys
import threading

import pytest

from fotsim import workers


@pytest.fixture
def started(monkeypatch):
    """The threads started during one test, in start order."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


def share_items(items, work, most):
    """share() over items in order, with work(item) for each; the results by
    item, and the number of workspaces share made."""
    todo, results, spaces = iter(items), {}, []

    def space():
        spaces.append(object())
        return spaces[-1]

    def done(item, result):
        results[item] = result

    workers.share(lambda ws: next(todo, None), lambda item, ws: work(item), done, space, most)
    return results, len(spaces)


def meet(barrier):
    """work() that returns its thread once every party has called it: all
    of them run at once, each on a thread of its own."""
    def work(item):
        barrier.wait(timeout=5.0)
        return threading.current_thread()
    return work


def test_share_nested_in_two_workers_runs_inline_in_order(pin_workers, idle_helpers, started):
    pin_workers(2)
    outer = threading.Barrier(2)
    inner = {}

    def work(item):
        outer.wait(timeout=5.0)  # both outer items run at once
        ran = []

        def record(k):
            ran.append(k)
            return threading.current_thread()

        results, spaces = share_items(range(3), record, 2)
        inner[item] = (ran, spaces, set(results.values()))
        return threading.current_thread()

    results, spaces = share_items(["a", "b"], work, 2)
    assert spaces == 2 and len(set(results.values())) == 2
    assert len(started) == 1  # the outer share's helper only
    for item, thread in results.items():
        assert inner[item] == ([0, 1, 2], 1, {thread})
    # the calling thread is no longer inside an item: its next share gets
    # the idle helper back
    results, spaces = share_items(["c", "d"], meet(threading.Barrier(2)), 2)
    assert spaces == 2 and len(set(results.values())) == 2
    assert len(started) == 1


def test_share_nested_in_one_worker_keeps_its_helper(pin_workers, idle_helpers, started):
    pin_workers(2)
    caller = threading.current_thread()
    inner = {}

    def work(item):
        inner[item] = share_items(["x", "y"], meet(threading.Barrier(2)), 2)
        return threading.current_thread()

    results, spaces = share_items(["a", "b"], work, 1)
    assert spaces == 1 and set(results.values()) == {caller}
    for threads, inner_spaces in inner.values():
        assert inner_spaces == 2 and len(set(threads.values())) == 2
    assert len(started) == 1  # one helper, idle between the two nested shares


@pytest.mark.parametrize("failing", [["a"], ["b"], ["a", "b"]])
def test_nested_failure_reaches_the_caller_as_the_lowest_numbered(pin_workers, idle_helpers,
                                                                  failing):
    # item b's nested share fails first; where item a's fails too, later,
    # a's failure is the one raised, as one worker would raise it
    pin_workers(2)
    outer, b_failed = threading.Barrier(2), threading.Event()

    def nested(item):
        def work(k):
            if k == 1 and item in failing:
                if item == "a":
                    b_failed.wait(timeout=5.0)
                else:
                    b_failed.set()
                raise RuntimeError(f"{item} failed")
            return k
        return work

    def work(item):
        outer.wait(timeout=5.0)
        try:
            return share_items(range(3), nested(item), 2)
        finally:
            if item == "b":
                b_failed.set()

    with pytest.raises(RuntimeError, match=f"^{failing[0]} failed$"):
        share_items(["a", "b"], work, 2)


def test_concurrent_callers_each_nest_on_their_own_workers(pin_workers, idle_helpers):
    # more callers than cores, switching often: the flag is per thread, so
    # each outer share still gets two workers and each nested one a single
    pin_workers(2)
    spaces, errors = [], []

    def inner(item):
        ran = []
        _, count = share_items(range(3), lambda k: ran.append(k) or k, 2)
        assert ran == [0, 1, 2]
        return count

    def caller():
        try:
            results, count = share_items(range(4), inner, 2)
            spaces.append((count, sorted(results.values())))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert spaces == [(2, [1, 1, 1, 1])] * 6
