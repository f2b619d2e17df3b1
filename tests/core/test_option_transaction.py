"""The option transaction: a set is all-or-nothing, a check is that set
on a clone, and ``clone()`` keeps the instance name.

Every plugin validates in ``_set_options`` alone, so ``check_options``
and ``set_options`` must agree code for code and message for message,
and neither a rejected set nor any check may change the plugin.
"""

import pytest

from repro.compressors import sz as sz_plugin
from repro.core import (InvalidOptionError, OptionType, PressioError,
                        PressioOptions)
from repro.core.configurable import Configurable
from repro.core.metrics import PressioMetrics
from repro.core.registry import (compressor_registry, io_registry,
                                 metrics_registry)
from repro.core.status import ErrorCode

REJECTIONS = [
    ("chunking", {"chunking:nthreads": 0}),
    ("chunking", {"chunking:chunk_size": 0}),
    ("chunking", {"chunking:compressor": "zfp", "chunking:nthreads": 8,
                  "chunking:chunk_size": 0}),
    ("pipelined", {"pipelined:depth": 0}),
    ("many_independent", {"many_independent:mode": "mpi"}),
    ("fault_injector", {"fault_injector:num_faults": -1}),
    ("linear_quantizer", {"linear_quantizer:step": 0.0}),
    ("sample", {"sample:rate": -1.0}),
    ("zfp", {"zfp:accuracy": -1.0}),
    ("zfp", {"zfp:mode_str": "rate", "zfp:accuracy": -1.0}),
    ("zfp", {"zfp:precision": 100}),
    ("sz", {"sz:error_bound_mode_str": "bogus"}),
    ("switch", {"switch:compressor_ids": ["noop", "zfp"],
                "switch:active_id": "zfp", "zfp:accuracy": -1.0}),
]


def _row_id(row):
    plugin_id, options = row
    return f"{plugin_id}-" + "-".join(f"{k.split(':')[1]}={v}"
                                      for k, v in options.items())


@pytest.mark.parametrize("plugin_id,options", REJECTIONS,
                         ids=[_row_id(r) for r in REJECTIONS])
def test_rejection_is_one_transaction(plugin_id, options):
    """The check and the set report the same code and message; the
    check changes nothing, and neither does the rejected set."""
    comp = compressor_registry.create(plugin_id)
    before = comp.get_options()
    check_rc = comp.check_options(options)
    check_msg = comp.error_msg()
    assert comp.get_options() == before
    set_rc = comp.set_options(options)
    assert (check_rc, check_msg) == (set_rc, comp.error_msg())
    assert set_rc == ErrorCode.INVALID_OPTION and check_msg
    assert comp.get_options() == before


class TestRejectedSetKeepsState:
    def test_meta_keeps_its_inner_plugin(self):
        comp = compressor_registry.create("chunking")
        assert comp.set_options({"chunking:compressor": "sz",
                                 "pressio:abs": 1e-3}) == 0
        before = comp.get_options()
        assert comp.set_options({"chunking:compressor": "zfp",
                                 "chunking:nthreads": 8,
                                 "chunking:chunk_size": 0}) != 0
        assert comp.get_options() == before
        assert comp.get_options().get("chunking:compressor") == "sz"
        assert comp.inner.get_options().get("pressio:abs") == 1e-3

    def test_restore_from_a_non_default_state(self):
        comp = compressor_registry.create("zfp")
        assert comp.set_options({"zfp:mode_str": "rate",
                                 "zfp:rate": 12.0}) == 0
        before = comp.get_options()
        assert comp.set_options({"zfp:mode_str": "accuracy",
                                 "zfp:accuracy": -1.0}) != 0
        assert comp.get_options() == before


class _Knob(Configurable):
    plugin_id = "knob"

    def __init__(self):
        super().__init__()
        self.value = 1.0

    def _options(self):
        opts = PressioOptions()
        opts.set("knob:value", float(self.value))
        return opts

    def _set_options(self, options):
        value = self._take(options, "knob:value", OptionType.DOUBLE,
                           self.value)
        if value < 0:
            raise InvalidOptionError("knob:value must be >= 0")
        self.value = value


class TestSwitchCandidates:
    """A switch's merged options give a key its candidates share one
    candidate's value; a rejected set or check must not spread it."""

    REJECTED = [{"zfp:accuracy": "abc"},   # type error, nothing applied
                {"zfp:accuracy": -1.0},    # zfp rejects after sz took it
                {"switch:active_id": "sz", "pressio:abs": -1.0}]

    @staticmethod
    def _switch():
        comp = compressor_registry.create("switch")
        assert comp.set_options(
            {"switch:compressor_ids": ["noop", "sz", "zfp"]}) == 0
        return comp

    @staticmethod
    def _sz_bound(comp):
        return comp._candidates["sz"].get_options().get("sz:abs_err_bound")

    @pytest.mark.parametrize("options", REJECTED, ids=str)
    def test_rejected_set_keeps_each_candidate(self, options):
        comp = self._switch()
        before, bound = comp.get_options(), self._sz_bound(comp)
        assert comp.set_options(options) == ErrorCode.INVALID_OPTION
        assert self._sz_bound(comp) == bound
        assert comp.get_options() == before

    @pytest.mark.parametrize("options", REJECTED, ids=str)
    def test_rejected_check_keeps_each_candidate(self, options):
        comp = self._switch()
        bound = self._sz_bound(comp)
        assert comp.check_options(options) == ErrorCode.INVALID_OPTION
        assert self._sz_bound(comp) == bound

    def test_meta_over_switch_keeps_each_candidate(self):
        comp = compressor_registry.create("chunking")
        assert comp.set_options({
            "chunking:compressor": "switch",
            "switch:compressor_ids": ["noop", "sz", "zfp"]}) == 0
        bound = self._sz_bound(comp.inner)
        assert comp.set_options({"zfp:accuracy": -1.0}) != 0
        assert comp.set_options({"chunking:chunk_size": 0}) != 0
        assert self._sz_bound(comp.inner) == bound


class TestRestore:
    def test_a_failed_restore_still_reports_the_rejection(self):
        knob = _Knob()
        knob.value = -1.0  # a state no set could have produced
        rc = knob.set_options({"knob:value": -2.0})
        assert rc == ErrorCode.INVALID_OPTION
        assert knob.error_msg().startswith("knob:value must be >= 0")
        assert "restoring the earlier options failed" in knob.error_msg()


class TestClone:
    def test_clone_keeps_the_instance_name(self):
        comp = compressor_registry.create("chunking")
        comp.set_name("c1")
        assert comp.set_options({"c1:nthreads": 3}) == 0
        dup = comp.clone()
        assert dup.get_name() == "c1"
        assert dup.get_options().get("c1:nthreads") == 3

    def test_clone_failure_is_typed(self):
        knob = _Knob()
        knob.value = -1.0  # a state no set could have produced
        with pytest.raises(PressioError) as info:
            knob.clone()
        assert info.value.code == ErrorCode.INVALID_OPTION
        assert knob.check_options({}) == ErrorCode.INVALID_OPTION


class TestNativeReferences:
    def test_sz_check_releases_the_trial(self):
        comp = compressor_registry.create("sz")
        held = sz_plugin._refcount
        assert comp.check_options({"pressio:abs": 1e-3}) == 0
        assert comp.check_options({"sz:error_bound_mode_str": "bogus"}) != 0
        assert sz_plugin._refcount == held

    def test_meta_check_releases_the_trial_and_its_inner(self):
        comp = compressor_registry.create("chunking")
        assert comp.set_options({"chunking:compressor": "sz"}) == 0
        held = sz_plugin._refcount
        assert comp.check_options({"chunking:compressor": "zfp"}) == 0
        assert comp.check_options({"chunking:chunk_size": 0}) != 0
        assert sz_plugin._refcount == held

    def test_switch_check_releases_the_trial_and_its_candidates(self):
        comp = compressor_registry.create("switch")
        assert comp.set_options(
            {"switch:compressor_ids": ["noop", "sz", "zfp"]}) == 0
        held = sz_plugin._refcount
        assert comp.check_options({"pressio:abs": 1e-3}) == 0
        assert comp.check_options({"zfp:accuracy": -1.0}) != 0
        assert sz_plugin._refcount == held

    def test_replacing_an_inner_plugin_releases_it(self):
        comp = compressor_registry.create("chunking")
        assert comp.set_options({"chunking:compressor": "sz"}) == 0
        held = sz_plugin._refcount
        assert comp.set_options({"chunking:compressor": "zfp"}) == 0
        assert sz_plugin._refcount == held - 1


class TestCompositeMetrics:
    def test_rejected_set_is_reported_and_changes_nothing(self, library):
        metrics = library.get_metric(["csv_logger", "size"])
        before = metrics.get_options()
        options = {"csv_logger:path": "elsewhere.csv",
                   "csv_logger:mode": "bogus"}
        assert metrics.check_options(options) == ErrorCode.INVALID_OPTION
        assert "csv_logger:mode" in metrics.error_msg()
        assert metrics.set_options(options) == ErrorCode.INVALID_OPTION
        assert "csv_logger:mode" in metrics.error_msg()
        assert metrics.get_options() == before


def test_check_fires_no_metrics_hook(library):
    """A check's trial is built from the options without
    ``get_options``, so the caller's metrics see no get_options call."""
    calls = []

    class Probe(PressioMetrics):
        def begin_get_options(self):
            calls.append("get")

        def begin_set_options(self, options):
            calls.append("set")

    comp = compressor_registry.create("zfp")
    comp.set_metrics(Probe())
    assert comp.check_options({"zfp:accuracy": 1e-3}) == 0
    assert comp.check_options({"zfp:accuracy": -1.0}) != 0
    assert calls == []


def _registry_ids():
    return [(registry, plugin_id)
            for registry in (compressor_registry, metrics_registry,
                             io_registry)
            for plugin_id in registry.ids()]


@pytest.mark.parametrize(
    "registry,plugin_id", _registry_ids(),
    ids=[f"{r.kind}-{p}" for r, p in _registry_ids()])
def test_options_round_trip(registry, plugin_id):
    """``set_options(get_options())`` is accepted and changes nothing:
    the round trip a rejected set's restore relies on."""
    plugin = registry.create(plugin_id)
    before = plugin.get_options()
    assert plugin.set_options(before) == 0, plugin.error_msg()
    assert plugin.get_options() == before
