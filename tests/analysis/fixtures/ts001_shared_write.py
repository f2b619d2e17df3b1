"""Seeded TS001 violations: unsynchronized shared writes in a worker.

Lint fixture — parsed by the analyzer, never imported or executed.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.meta.parallel import run_tasks


class SlabRunner:
    def __init__(self):
        self._last = None
        self._lock = threading.Lock()

    def run(self, tasks):
        results = {}

        def work(task):
            self._last = task           # racy attribute write -> TS001
            results[task] = task * 2    # racy closed-over write -> TS001
            with self._lock:
                self._safe = task       # under a lock: clean
            return task

        with ThreadPoolExecutor() as pool:
            list(pool.map(work, tasks))
        return results

    def decode(self, plugin, slabs, out):
        def fill(_, slab):
            lo, hi, stream = slab
            out[lo:hi] = stream         # racy closed-over write -> TS001

        run_tasks(fill, slabs, plugin, 4, clone=False)
