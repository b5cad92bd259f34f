"""Process-pool fan-out for instance sweeps.

The evaluation harness is embarrassingly parallel: every update instance
is generated from its own integer seed and evaluated independently, so a
sweep is a pure ``map`` over self-contained work items.  This module
provides the one primitive the executor needs -- :func:`ordered_map` --
with the properties the harness relies on:

* **Determinism.**  The map never re-seeds or re-orders anything: the
  caller derives each item's seed from ``(base_seed, instance_index)``
  before submission, workers receive the finished items, and results come
  back in submission order.  A pool run is therefore byte-identical to
  the serial run, whatever the worker count.
* **One pool per map.**  The generator forks its pool once, feeds it
  every item (one item per task, so stragglers rebalance) and yields each
  result as soon as it and all earlier ones are in.  A consumer that
  checkpoints per result therefore always holds a prefix of the items.
* **Graceful degradation.**  One worker, one usable CPU, one item or a
  platform without ``fork`` run a plain in-process loop -- same results,
  no pool.  On a single-core (or affinity-restricted) box a pool only adds
  fork and IPC cost, so workers are capped at :func:`available_cpus`.  A
  worker that dies, or a result that cannot be pickled, sends the items
  not yet yielded through the same in-process loop.

The work function reaches the workers through ``fork`` (the pool
initializer's arguments are inherited, never pickled), so it may be any
callable; items and results cross the process boundary by pickle.  Work
functions must not rely on mutable global state; per-item randomness must
come from the item's seed.

``multiprocessing`` and ``concurrent.futures`` load only when a pool is
about to start (:func:`fork_available`, :func:`_fork_pool`): an
in-process map never imports them.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from repro.trace.recorder import recorder
from repro.trace.worker import merge_payload, worker_collect, worker_prepare

Item = TypeVar("Item")
Result = TypeVar("Result")

# A pool worker's work function, and whether it hands its records back;
# set by _install in each worker.
_work: Optional[Callable] = None
_traced = False


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method.

    ``fork`` is what makes pool workers cheap enough for sub-second work
    items; without it (Windows, some macOS setups) the map stays
    in-process rather than paying spawn-and-reimport per worker.
    """
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _fork_pool(workers: int, initializer: Callable, initargs: tuple):
    """A ``fork``-context process pool of ``workers`` processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )


def _install(fn: Callable, traced: bool) -> None:
    """Pool initializer: keep the work function, drop the inherited tape."""
    global _work, _traced
    _work, _traced = fn, traced
    if traced:
        worker_prepare()


def _apply(item):
    """Evaluate one item in a worker; return it with the item's own records."""
    result = _work(item)
    return result, (worker_collect() if _traced else None)


def ordered_map(
    fn: Callable[[Item], Result], items: Sequence[Item], workers: int
) -> Iterator[Result]:
    """Yield ``fn(item)`` for every item, in item order.

    ``workers`` (capped at :func:`available_cpus` and the item count)
    above one runs the items over a fork pool that lives as long as the
    generator; otherwise, or without ``fork``, they run in-process.  While
    a trace session is live each worker's records come back with its
    result and join the parent tape, in item order, just before that
    result is yielded.  Exceptions raised by ``fn`` propagate unchanged in
    both modes.  Closing the generator early cancels the items not yet
    started and waits for the running ones.
    """
    workers = min(workers, available_cpus(), len(items))
    if workers <= 1 or not fork_available():
        for item in items:
            yield fn(item)
        return
    from concurrent.futures.process import BrokenProcessPool

    done = 0
    pool = _fork_pool(workers, _install, (fn, recorder.enabled))
    try:
        futures = [pool.submit(_apply, item) for item in items]
        for future in futures:
            result, payload = future.result()
            if payload is not None:
                merge_payload(payload)
            done += 1
            yield result
        return
    except (BrokenProcessPool, pickle.PicklingError):
        # A worker died or a result would not round-trip; the items
        # themselves are still valid, so the rest run in-process.
        pass
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for item in items[done:]:
        yield fn(item)
