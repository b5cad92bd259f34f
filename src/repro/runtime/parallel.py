"""Process-pool fan-out for instance sweeps.

The evaluation harness is embarrassingly parallel: every update instance
is generated from its own integer seed and evaluated independently, so a
sweep is a pure ``map`` over self-contained work items.  This module
provides the one primitive the experiments need -- :class:`ParallelRunner`
-- with the properties the harness relies on:

* **Determinism.**  The runner never re-seeds or re-orders anything: the
  caller derives each item's seed from ``(base_seed, instance_index)``
  before submission, workers receive the finished items, and results come
  back in submission order.  A parallel run is therefore byte-identical
  to the serial run, whatever the worker count or chunking.
* **Graceful degradation.**  ``max_workers=1`` (the default everywhere),
  a platform without ``fork``, or a work function the pool cannot pickle
  all fall back to plain in-process execution -- same results, no pool.
* **Chunking.**  Items are submitted in contiguous chunks, amortising
  process-pool IPC over many small instances.
* **Min-work threshold.**  The first item is always evaluated in-process
  and timed; when the projected total work cannot amortise the pool's
  startup cost the remaining items run serially too.  Tiny sweeps (the
  quick bench's 24 instances recorded a 0.83x "speedup" from pool
  overhead) thus never pay for a pool, and because fallback preserves
  item order the records stay byte-identical either way.  Workers are
  additionally capped at :func:`available_cpus` -- on a single-core (or
  affinity-restricted) box a pool only adds fork and IPC cost, so the
  runner stays in-process no matter how much work there is.

Work functions must be module-level (picklable) and must not rely on
mutable global state; per-item randomness must come from the item's seed.

``multiprocessing`` and ``concurrent.futures`` load only when a pool is
about to start (:func:`fork_available`, :func:`_fork_pool`): an
in-process map never imports them.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.trace.worker import collection_hooks

Item = TypeVar("Item")
Result = TypeVar("Result")


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method.

    ``fork`` is what makes pool workers cheap enough for sub-second work
    items; without it (Windows, some macOS setups) the runner stays
    in-process rather than paying spawn-and-reimport per worker.
    """
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _fork_pool(workers: int):
    """A ``fork``-context process pool of ``workers`` processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )


def _run_chunk(fn: Callable[[Item], Result], chunk: Sequence[Item]) -> List[Result]:
    return [fn(item) for item in chunk]


def _run_chunk_collecting(
    fn: Callable[[Item], Result],
    chunk: Sequence[Item],
    prepare: Callable[[], None],
    collect: Callable[[], object],
):
    """Like :func:`_run_chunk`, bracketed by worker-state hooks.

    ``prepare`` drops the fork-inherited tape so the parent's records are
    never shipped back twice; ``collect`` returns the chunk's own records
    alongside its results.
    """
    prepare()
    results = [fn(item) for item in chunk]
    return results, collect()


@dataclass
class ParallelRunner:
    """Ordered, deterministic ``map`` over a process pool.

    Args:
        max_workers: Worker processes; ``1`` (or fewer) runs in-process.
            The effective count is capped at :func:`available_cpus`.
        chunk_size: Items per pool task; default splits the items into
            about four chunks per worker so stragglers rebalance.
        serial_threshold_seconds: Minimum projected total work (first
            item's wall time times the remaining item count) below which
            the pool is skipped and everything runs in-process; ``0``
            disables the heuristic and always uses the pool.

    Example:
        >>> runner = ParallelRunner(max_workers=1)
        >>> runner.map(abs, [-2, -1, 3])
        [2, 1, 3]
    """

    max_workers: int = 1
    chunk_size: Optional[int] = None
    serial_threshold_seconds: float = 0.5

    def map(self, fn: Callable[[Item], Result], items: Iterable[Item]) -> List[Result]:
        """Apply ``fn`` to every item, returning results in item order.

        Falls back to in-process execution when the pool is pointless
        (``max_workers <= 1``, a single usable CPU, one item, projected
        work below the min-work threshold) or unavailable (no ``fork``,
        unpicklable work function).  Exceptions raised by ``fn`` itself
        propagate unchanged in both modes.
        """
        work = list(items)
        # A pool can only help with cores to spread over: on a single-core
        # box (or affinity-restricted container) extra workers just add
        # fork + IPC cost on top of the same serial compute.
        workers = min(self.max_workers, available_cpus())
        if workers <= 1 or len(work) <= 1 or not _picklable(fn):
            return [fn(item) for item in work]
        # Min-work probe: run (and time) the first item here.  Per-item
        # cost is unknowable up front, and a pool under ~half a second of
        # total work costs more in fork + IPC than it buys.
        head: List[Result] = []
        rest: Sequence[Item] = work
        if self.serial_threshold_seconds > 0:
            started = time.perf_counter()
            head = [fn(work[0])]
            first_seconds = time.perf_counter() - started
            rest = work[1:]
            if first_seconds * len(rest) < self.serial_threshold_seconds:
                return head + [fn(item) for item in rest]
        if not fork_available():
            return head + [fn(item) for item in rest]
        from concurrent.futures.process import BrokenProcessPool

        chunks = self._chunks(rest, workers)
        hooks = collection_hooks()
        try:
            with _fork_pool(min(workers, len(chunks))) as pool:
                if hooks is None:
                    futures = [
                        pool.submit(_run_chunk, fn, chunk) for chunk in chunks
                    ]
                    results: List[Result] = list(head)
                    for future in futures:
                        results.extend(future.result())
                    return results
                prepare, collect, merge = hooks
                futures = [
                    pool.submit(_run_chunk_collecting, fn, chunk, prepare, collect)
                    for chunk in chunks
                ]
                results = list(head)
                payloads = []
                for future in futures:
                    chunk_results, payload = future.result()
                    results.extend(chunk_results)
                    payloads.append(payload)
                # Merge only once every chunk succeeded, in submission
                # order, so a broken pool never leaves half-merged state
                # behind before the in-process redo below.
                for payload in payloads:
                    merge(payload)
                return results
        except (BrokenProcessPool, pickle.PicklingError):
            # A worker died or a result would not round-trip; the items
            # themselves are still valid, so redo the map in-process.
            return list(head) + [fn(item) for item in rest]

    def _chunks(self, work: Sequence[Item], workers: Optional[int] = None) -> List[Sequence[Item]]:
        """Split ``work`` into chunks sized for the *effective* pool.

        ``workers`` is the cpu-capped worker count ``map()`` computed; it
        must be used instead of ``self.max_workers``, otherwise an
        affinity-restricted host (say 2 usable cpus under
        ``max_workers=16``) gets 64 tiny chunks for a 2-process pool --
        all IPC overhead and stragglers, no extra parallelism.
        """
        if workers is None:
            workers = min(self.max_workers, available_cpus())
        size = self.chunk_size
        if size is None or size < 1:
            size = max(1, len(work) // (max(1, workers) * 4))
        return [work[i : i + size] for i in range(0, len(work), size)]


def _picklable(fn: Callable) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False
