"""Work shared out between the calling thread and at most one helper thread.

The statistics of ``stability`` (one item per tau) and the block parser of
``cells.read_columns`` (one item per block of the file) both run their items
through ``share``.  numpy releases the interpreter lock inside its array
loops, so two threads keep two cores busy.
"""

from __future__ import annotations

import os
import threading


def _worker_count() -> int:
    # 2 where this process may run on more than one CPU, else 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus > 1 else 1


def share(take, work, done, space, most: int) -> None:
    """Run every item that take() hands out through work and then done.

    Up to ``min(_worker_count(), most)`` workers: the calling thread and one
    helper thread per further worker.  Each worker has its own workspace,
    ``space()``, all made here in the calling thread before any helper
    starts (so heap memory comes from its arena).  Under one lock a worker calls ``take(ws)`` for its next
    item (None when there is none).  It calls ``work(item, ws)`` outside
    the lock, and then ``done(item, result)`` under it.

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
    helpers = [threading.Thread(target=run, args=(ws,), daemon=True) for ws in spaces[1:]]
    for helper in helpers:
        helper.start()
    if spaces:
        run(spaces[0])
    for helper in helpers:
        helper.join()
    if failed:
        raise min(failed, key=lambda kv: kv[0])[1]
