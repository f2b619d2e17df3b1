"""The runtime race & resource sanitizer: detection and restoration.

These tests run correctly both standalone and under a session-wide
sanitizer (``PRESSIO_SANITIZE=1``): the ``san`` fixture reuses the
session instance when one is active and trims the findings each test
deliberately plants, so the session report stays clean.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.data import PressioData
from repro.native import pool
from repro.sanitize import runtime
from repro.sanitize.selftest import run_selftest


@pytest.fixture()
def san():
    if runtime.is_enabled():
        state = runtime.ACTIVE
        with state.mutex:
            base = len(state.findings)
        yield state
        with state.mutex:
            del state.findings[base:]
    else:
        state = runtime.enable()
        yield state
        runtime.disable()


def _kinds(state):
    with state.mutex:
        return [f.kind for f in state.findings]


class TestPoolInstrumentation:
    def test_use_after_release_write_raises_at_faulting_line(self, san):
        buf = pool.acquire((512,), np.uint8)
        buf[...] = 7
        pool.release(buf)
        with pytest.raises(ValueError):
            buf[0] = 1  # poisoned read-only: the faulting line

    def test_released_buffer_is_poisoned(self, san):
        buf = pool.acquire((512,), np.uint8)
        buf[...] = 7
        pool.release(buf)
        assert bytes(buf[:4]) == b"\xdd\xdd\xdd\xdd"

    def test_reacquire_unpoisons(self, san):
        buf = pool.acquire((512,), np.uint8)
        pool.release(buf)
        again = pool.acquire((512,), np.uint8)
        assert again.flags.writeable
        again[...] = 3  # fully usable
        pool.release(again)

    def test_double_release_reported_with_both_stacks(self, san):
        buf = pool.acquire((256,), np.uint8)
        pool.release(buf)
        pool.release(buf)
        assert "double-release" in _kinds(san)
        with san.mutex:
            finding = next(f for f in san.findings
                           if f.kind == "double-release")
        assert finding.stacks["first-release"]
        assert finding.stacks["second-release"]

    def test_foreign_buffers_never_poisoned(self, san):
        mine = np.zeros(17)
        pool.release(mine)
        assert mine[0] == 0.0  # untouched: not a pooled backing store
        assert mine.flags.writeable


class TestLockInstrumentation:
    def test_inversion_reported_with_both_paths(self, san):
        a = runtime.wrap_lock(threading.Lock(), "test:lock-a")
        b = runtime.wrap_lock(threading.Lock(), "test:lock-b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert "lock-order-inversion" in _kinds(san)
        with san.mutex:
            finding = next(f for f in san.findings
                           if f.kind == "lock-order-inversion")
        assert set(finding.stacks) == {"this-path-outer", "this-path-inner",
                                       "other-path-outer",
                                       "other-path-inner"}

    def test_consistent_order_is_silent(self, san):
        a = runtime.wrap_lock(threading.Lock(), "test:lock-c")
        b = runtime.wrap_lock(threading.Lock(), "test:lock-d")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert "lock-order-inversion" not in _kinds(san)

    def test_serve_request_path_locks_are_watched(self, san):
        from repro.serve.shm import SegmentCache
        from repro.serve.workers import _FifoPermits

        for lock in (_FifoPermits(1, max_inflight=1)._lock,
                     SegmentCache()._lock):
            assert isinstance(lock, runtime.SanitizedLock)

    def test_wrap_lock_requires_enabled_sanitizer(self):
        if runtime.is_enabled():
            pytest.skip("session-wide sanitizer active")
        with pytest.raises(runtime.SanitizerError):
            runtime.wrap_lock(threading.Lock(), "test:off")


class TestCompressGuard:
    def test_mutating_compressor_reported(self, san):
        from repro.sanitize.selftest import _plant_input_aliasing

        _plant_input_aliasing()
        assert "input-aliasing" in _kinds(san)

    def test_well_behaved_compressor_is_silent(self, san, library):
        comp = library.get_compressor("sz")
        assert comp.set_options({"pressio:abs": 1e-4}) == 0
        data = PressioData.from_numpy(
            np.random.default_rng(3).random((16, 16, 16)))
        comp.compress(data)
        assert "input-aliasing" not in _kinds(san)


class TestThreads:
    def test_unjoined_thread_detected(self, san):
        release = threading.Event()
        t = threading.Thread(target=release.wait, name="stray-worker")
        t.start()
        try:
            runtime.report()
            assert "unjoined-thread" in _kinds(san)
        finally:
            release.set()
            t.join()

    def test_joined_threads_are_silent(self, san):
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()
        runtime.report()
        assert "unjoined-thread" not in _kinds(san)


class TestLifecycle:
    def test_enable_disable_restores_pool_functions(self):
        if runtime.is_enabled():
            pytest.skip("session-wide sanitizer active")
        orig_acquire, orig_release = pool.acquire, pool.release
        runtime.enable()
        try:
            assert pool.acquire is not orig_acquire
            assert pool.release is not orig_release
        finally:
            runtime.disable()
        assert pool.acquire is orig_acquire
        assert pool.release is orig_release

    def test_disable_unpoisons_pooled_buffers(self):
        if runtime.is_enabled():
            pytest.skip("session-wide sanitizer active")
        runtime.enable()
        buf = pool.acquire((512,), np.uint8)
        root = buf
        while root.base is not None:
            root = root.base
        pool.release(buf)
        assert not root.flags.writeable
        runtime.disable()
        assert root.flags.writeable

    def test_double_enable_is_an_error(self, san):
        with pytest.raises(runtime.SanitizerError):
            runtime.enable()

    def test_report_shape(self, san):
        result = runtime.report()
        assert result["enabled"] is True
        assert isinstance(result["findings"], list)
        for key in ("pool_acquires", "pool_releases",
                    "operations_checked", "lock_edges"):
            assert key in result["stats"]


class TestSelfTest:
    def test_all_planted_bugs_detected(self, san):
        assert run_selftest(verbose=False) == 1

    def test_missed_detection_exits_3(self, san, monkeypatch):
        from repro.sanitize import selftest

        monkeypatch.setitem(selftest.PLANTED, "bogus-bug",
                            "kind-never-reported")
        assert run_selftest(verbose=False) == 3


class TestCli:
    def test_self_test_exit_code(self, san, capsys):
        from repro.sanitize.cli import run_sanitize

        assert run_sanitize(["--self-test"]) == 1
        out = capsys.readouterr().out
        assert "all planted bugs detected" in out

    def test_wrapped_subcommand_writes_report(self, san, tmp_path,
                                              capsys):
        from repro.sanitize.cli import run_sanitize

        report = tmp_path / "report.json"
        code = run_sanitize(["--report", str(report),
                             "lint", "--list-rules"])
        assert code == 0
        loaded = json.loads(report.read_text())
        assert "findings" in loaded and "stats" in loaded

    def test_missing_subcommand_is_usage_error(self, capsys):
        from repro.sanitize.cli import run_sanitize

        assert run_sanitize([]) == 2

    def test_dash_led_command_is_not_eaten_by_argparse(self, san,
                                                       tmp_path, capsys):
        # REMAINDER alone would reject `sanitize -z sz ...`
        from repro.sanitize.cli import run_sanitize

        report = tmp_path / "report.json"
        code = run_sanitize(["--report", str(report),
                             "-z", "sz", "-o", "pressio:abs=1e-4",
                             "--synthetic", "nyx", "--dims", "16,16,16"])
        assert code == 0
        loaded = json.loads(report.read_text())
        assert loaded["stats"]["pool_acquires"] > 0
