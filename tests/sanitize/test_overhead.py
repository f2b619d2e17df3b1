"""The sanitizer must be zero-cost when disabled.

The sanitizer instruments by monkeypatching at :func:`enable` and fully
restoring at :func:`disable`, so "sanitizer off" adds *no* code to the
pool or compress hot paths — the only per-operation guard left is the
single ``repro._hot.ANY`` read the tracer already pays.  These tests pin
that importing the package changes nothing and that :func:`disable`
restores the originals; the ``noop`` throughput pin for the dormant
package is ``test_dormant_package_noop_overhead_within_noise`` in
``tests/trace/test_overhead.py``.
"""

import os

import pytest

from repro import _hot
from repro.native import pool
from repro.sanitize import runtime

pytestmark = pytest.mark.skipif(
    os.environ.get("PRESSIO_SANITIZE") == "1",
    reason="session-wide sanitizer active: it cannot be observed off")


def test_importing_sanitize_leaves_hot_paths_pristine():
    import repro.sanitize  # noqa: F401  (the import is the test)

    assert runtime.is_enabled() is False
    assert _hot.ANY is False


def test_disable_hands_back_the_exact_original_functions():
    orig_acquire, orig_release = pool.acquire, pool.release
    runtime.enable()
    runtime.disable()
    assert pool.acquire is orig_acquire
    assert pool.release is orig_release
