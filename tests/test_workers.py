"""workers.share: its items on the calling thread and at most one helper,
each caller with workers of its own; a failure stops the share and reaches
the caller as one worker would raise it."""

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


def test_concurrent_callers_get_helpers_of_their_own(pin_workers, idle_helpers, started):
    # more callers than cores, switching often: each share still gets two
    # workers, its items run on its caller and at most one helper thread,
    # and it gets every item's result
    pin_workers(2)
    outcomes, errors = [], []

    def caller():
        try:
            ran = set()

            def work(k):
                ran.add(threading.current_thread())
                return k * k

            results, count = share_items(range(40), work, 2)
            outcomes.append((count, results == {k: k * k for k in range(40)},
                             ran - {threading.current_thread()}))
        except BaseException as exc:
            errors.append(exc)

    callers = [threading.Thread(target=caller) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert not errors and len(outcomes) == 6
    helpers = set(started) - set(callers)
    assert len(helpers) <= 6
    for count, complete, others in outcomes:
        assert count == 2 and complete
        assert len(others) <= 1 and others <= helpers


@pytest.mark.parametrize("count, most", [(1, 2), (2, 1)])
def test_one_worker_runs_the_items_in_order_on_the_caller(pin_workers, idle_helpers, started,
                                                          count, most):
    pin_workers(count)
    caller, ran = threading.current_thread(), []

    def work(k):
        ran.append((k, threading.current_thread()))
        return -k

    results, spaces = share_items(range(5), work, most)
    assert results == {k: -k for k in range(5)}
    assert ran == [(k, caller) for k in range(5)]
    assert spaces == 1 and not started


def test_the_next_share_takes_the_idle_helper(pin_workers, idle_helpers, started):
    pin_workers(2)
    for _ in range(3):
        barrier = threading.Barrier(2)

        def work(item):
            barrier.wait(timeout=5.0)  # both items run at once
            return threading.current_thread()

        results, spaces = share_items(["a", "b"], work, 2)
        assert spaces == 2 and len(set(results.values())) == 2
    assert len(started) == 1


@pytest.mark.parametrize("failing", [["a"], ["b"], ["a", "b"]])
def test_failure_reaches_the_caller_as_the_lowest_numbered(pin_workers, idle_helpers,
                                                           failing):
    # item b ends first; where both fail, a's failure, the later one, is
    # the one raised, as one worker would raise it
    pin_workers(2)
    both, b_ended = threading.Barrier(2), threading.Event()

    def work(item):
        if item != "c":
            both.wait(timeout=5.0)  # a and b run at once, on two workers
        try:
            if item == "a":
                assert b_ended.wait(timeout=5.0)
            if item in failing:
                raise RuntimeError(f"{item} failed")
            return item
        finally:
            if item == "b":
                b_ended.set()

    with pytest.raises(RuntimeError, match=f"^{failing[0]} failed$"):
        share_items(["a", "b", "c"], work, 2)


@pytest.mark.parametrize("count", [1, 2])
def test_no_item_is_taken_after_a_failure(pin_workers, idle_helpers, count):
    # item 1 fails; on two workers item 0 is still running then, and
    # finishes.  No worker takes item 2.
    pin_workers(count)
    taken, finished, failed = [], [], threading.Event()
    todo = iter(range(4))

    def take(ws):
        item = next(todo, None)
        taken.append(item)
        return item

    def work(item, ws):
        if item == 1:
            failed.set()
            raise RuntimeError("1 failed")
        if item == 0 and count > 1:
            assert failed.wait(timeout=5.0)
        return item

    with pytest.raises(RuntimeError, match="^1 failed$"):
        workers.share(take, work, lambda item, result: finished.append(item),
                      lambda: None, 2)
    assert taken == [0, 1] and finished == [0]


def test_a_helper_whose_run_raised_is_not_taken_again(pin_workers, idle_helpers, started,
                                                      monkeypatch):
    # the raising run ends its helper, whose exception reaches
    # threading.excepthook; a two-worker share after it starts a new helper
    # and ends, rather than handing items to the ended one and waiting on it
    pin_workers(2)
    reported = []
    monkeypatch.setattr(threading, "excepthook", lambda args: reported.append(args.exc_value))

    def fail():
        raise RuntimeError("run failed")

    assert workers.on_helper(fail).wait(timeout=5.0)
    (failed_helper,) = started
    failed_helper.join(timeout=5.0)
    assert not failed_helper.is_alive()
    assert [str(exc) for exc in reported] == ["run failed"]

    outcome = []
    caller = threading.Thread(
        target=lambda: outcome.append(share_items(range(4), lambda k: k, 2)), daemon=True)
    caller.start()
    caller.join(timeout=10.0)
    assert not caller.is_alive()
    assert outcome == [({k: k for k in range(4)}, 2)]
