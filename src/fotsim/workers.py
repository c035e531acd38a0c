"""Work shared out between the calling thread and at most one helper thread.

The statistics of ``stability`` (one item per tau), the block parser of
``cells.read_columns`` (one item per block of the file) and a run's clocks
(one item per clock, ``timebase.clock_time_errors``) run their items
through ``share``.  The CSV writer, ``cells.write_tables``, takes one
helper through ``on_helper``: the calling thread formats each chunk of rows
and the helper drops the chunk's NUL bytes and writes it, while the caller
formats the next.  numpy releases the interpreter lock inside its array
loops, so two threads keep two cores busy.

Helper threads outlive the call that started them and wait for the next.
What a thread allocates on the heap comes from its malloc arena, and glibc
keeps what a helper frees there resident for that arena's next thread.  A
thread started while the last one was still ending got a fresh arena: with
a new thread per call, 2 of 8 processes that synthesized the clocks_flicker
benchmark's noise twice kept a second arena of freed FFT buffers, 8 MB more
peak RSS.
"""

from __future__ import annotations

import os
import queue
import threading
from functools import partial


def _worker_count() -> int:
    # 2 where this process may run on more than one CPU, else 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus > 1 else 1


# the idle helper threads, each as the queue it takes its next run from;
# last in, first out, so that one caller keeps reusing one helper
_idle = queue.LifoQueue()


def _forget_helpers() -> None:
    # a forked child has none of its parent's threads
    global _idle
    _idle = queue.LifoQueue()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _helper(inbox) -> None:
    while True:
        run, finished = inbox.get()
        try:
            run()
            # a run that raised ends the thread, and threading.excepthook
            # reports it: its inbox does not go back on _idle
            del run  # an idle helper holds nothing of the call it ran
            _idle.put(inbox)  # idle again before that call returns
        finally:
            finished.set()


def on_helper(run) -> threading.Event:
    """Start run() on an idle helper thread, or on a new one where none is
    idle, and return an event that is set once run has returned and the
    helper is idle again.  A run that raises ends its helper, which is not
    taken again; the event is set all the same."""
    try:
        inbox = _idle.get_nowait()
    except queue.Empty:
        inbox = queue.SimpleQueue()
        threading.Thread(target=_helper, args=(inbox,), daemon=True).start()
    finished = threading.Event()
    inbox.put((run, finished))
    return finished


def share(take, work, done, space, most: int) -> None:
    """Run every item that take() hands out through work and then done.

    Up to ``min(_worker_count(), most)`` workers: the calling thread and one
    helper thread per further worker, an idle one where there is one, else
    a new one.  Each worker has its own workspace, ``space()``, all made
    here in the calling thread before any helper runs (so heap memory comes
    from its arena).  Under one lock a worker calls ``take(ws)`` for its
    next item (None when there is none).  It calls ``work(item, ws)``
    outside the lock, and then ``done(item, result)`` under it.

    Items are numbered in the order take() hands them out.  After any call
    raises, take() is not called again; the items already taken finish.
    Once every worker has ended, the exception of the lowest-numbered
    failing item is raised here: the one a single worker would have raised.
    """
    lock = threading.Lock()
    failed: list = []
    taken = 0

    def run(ws):
        nonlocal taken
        k = 0
        try:
            while True:
                with lock:
                    if failed:
                        return
                    k = taken
                    item = take(ws)
                    if item is None:
                        return
                    taken += 1
                result = work(item, ws)
                with lock:
                    done(item, result)
        except BaseException as exc:  # raised in the calling thread below
            with lock:
                failed.append((k, exc))

    spaces = [space() for _ in range(min(_worker_count(), most))]
    finished = [on_helper(partial(run, ws)) for ws in spaces[1:]]
    if spaces:
        run(spaces[0])
    for event in finished:
        event.wait()
    if failed:
        raise min(failed, key=lambda kv: kv[0])[1]
