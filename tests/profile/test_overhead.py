"""Profiling must be zero-cost when disabled.

The stage profiler rides the span tracer, so "profiler off" must cost
exactly what "tracer off" costs: one module-global ``repro._hot.ANY``
read per operation.  These tests pin that importing the package and
leaving a profiler leave the flag off; the ``noop`` throughput pin for
the dormant package is ``test_dormant_package_noop_overhead_within_noise``
in ``tests/trace/test_overhead.py``.
"""

import pytest

from repro import _hot
from repro.trace import active_tracer, disable_tracing


@pytest.fixture(autouse=True)
def _profiling_disabled():
    disable_tracing()
    yield
    disable_tracing()


def test_importing_profile_package_keeps_sentinel_off():
    import repro.profile  # noqa: F401  (the import is the test)

    assert _hot.ANY is False
    assert active_tracer() is None


def test_profiler_exit_restores_disabled_state():
    from repro.profile import StageProfiler

    with StageProfiler("tmp", track_alloc=False, sample_interval=None):
        assert _hot.ANY is True
    assert _hot.ANY is False
    assert active_tracer() is None
