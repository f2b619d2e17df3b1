"""A renamed meta-compressor answers to its name for every option it owns.

Two instances of one meta plugin in a pipeline tell their options apart
by name (``set_name``), so each own option of a renamed instance must be
reported, documented and honoured under the new name, and the
default-named key must no longer reach it.
"""

from __future__ import annotations

import pytest

from repro.core.registry import compressor_registry

NAME = "outer"

#: meta plugin id -> a valid non-default value for each option it owns
OWN = {
    "chunking": {"chunk_size": 1024, "nthreads": 2},
    "pipelined": {"chunk_size": 1024, "depth": 3, "nthreads": 2},
    "many_independent": {"mode": "process", "nthreads": 2},
    "many_dependent": {"nthreads": 2, "from_metric": "size:ratio",
                       "to_option": "pressio:abs", "scale": 0.5},
    "transpose": {"axis_order": ["1", "0"]},
    "resize": {"new_dims": ["4", "4"]},
    "delta_encoding": {},
    "linear_quantizer": {"step": 0.5},
    "sample": {"rate": 3, "mode": "wor", "seed": 7},
    "sparse": {"fill_value": 1.5},
    "fault_injector": {"num_faults": 3, "seed": 5, "skip_header_bytes": 8},
    "error_injector": {"distribution": "uniform", "scale": 0.1, "seed": 4},
    "opt": {"objective": "max_ratio_with_quality", "target_ratio": 5.0,
            "ratio_tolerance_pct": 1.0, "quality_metric": "error_stat:mse",
            "quality_min": 30.0, "bound_option": "sz:abs_err_bound",
            "bound_low": 1e-6, "bound_high": 0.5, "max_iterations": 5},
    "switch": {"active_id": "zlib", "compressor_ids": ["noop", "zlib"]},
}


@pytest.fixture(params=sorted(OWN))
def renamed(request):
    plugin = compressor_registry.create(request.param)
    plugin.set_name(NAME)
    yield request.param, plugin
    plugin.decref()


def _own_keys(plugin) -> set[str]:
    return {key for key in plugin.get_options().keys()
            if key.startswith(f"{NAME}:")}


def test_reports_every_own_key_under_its_name(renamed):
    plugin_id, plugin = renamed
    keys = _own_keys(plugin)
    wanted = {f"{NAME}:{key}" for key in OWN[plugin_id]}
    if plugin_id != "switch":
        wanted.add(f"{NAME}:compressor")
    assert keys == wanted
    assert not any(key.startswith(f"{plugin_id}:")
                   for key in plugin.get_options().keys())
    assert not any(key.startswith(f"{plugin_id}:")
                   for key in plugin.get_documentation().keys())


def test_honours_every_own_key_under_its_name(renamed):
    plugin_id, plugin = renamed
    wanted = {f"{NAME}:{key}": value for key, value in OWN[plugin_id].items()}
    assert plugin.set_options(wanted) == 0, plugin.error_msg()
    options = plugin.get_options()
    for key, value in wanted.items():
        assert options.get(key) == value, key


def test_the_default_key_no_longer_reaches_it(renamed):
    plugin_id, plugin = renamed
    before = plugin.get_options()
    assert plugin.set_options({f"{plugin_id}:{key}": value
                               for key, value in OWN[plugin_id].items()}) == 0
    assert plugin.get_options() == before


def test_a_clone_keeps_the_name_and_the_values(renamed):
    plugin_id, plugin = renamed
    plugin.set_options({f"{NAME}:{key}": value
                        for key, value in OWN[plugin_id].items()})
    dup = plugin.clone()
    try:
        assert dup.get_name() == NAME
        assert dup.get_options() == plugin.get_options()
    finally:
        dup.decref()


def test_the_own_bound_is_checked_under_its_name():
    plugin = compressor_registry.create("chunking")
    plugin.set_name(NAME)
    try:
        assert plugin.set_options({f"{NAME}:chunk_size": 0}) != 0
        assert plugin.error_msg() == f"{NAME}:chunk_size must be >= 1"
        assert plugin.get_options().get(f"{NAME}:chunk_size") == 1 << 16
    finally:
        plugin.decref()
