"""The option surface of every first-party plugin, pinned.

For each registered compressor, metrics and IO plugin at its default
name this records ``get_options()`` (key, type, value),
``get_documentation()`` and ``get_configuration()``, and the return
code of a fixed table of rejected sets: a value below a bound, outside
a set of choices, of the wrong type, or one the plugin's own check
refuses.  The pin lives in ``option_surface.json`` next to this file;
a refactor of how plugins declare their options must leave it as it is.

Regenerate it (only when the surface is meant to change) with::

    PYTHONPATH=src python tests/core/test_option_surface.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.core.library import load_first_party_plugins
from repro.core.options import PressioOptions
from repro.core.registry import (compressor_registry, io_registry,
                                 metrics_registry)

PIN = pathlib.Path(__file__).with_name("option_surface.json")

REGISTRIES = {"compressor": compressor_registry, "metric": metrics_registry,
              "io": io_registry}

#: (kind, plugin id, options) sets each plugin must reject
REJECTED = [
    ("compressor", "sz", {"sz:error_bound_mode_str": "bogus"}),
    ("compressor", "sz", {"sz:abs_err_bound": "tiny"}),
    ("compressor", "sz", {"sz:abs_err_bound": -1.0}),
    ("compressor", "sz", {"sz:sz_mode": 1.5}),
    ("compressor", "sz", {"sz:max_quant_intervals": "many"}),
    ("compressor", "sz", {"pressio:rel": "x"}),
    ("compressor", "sz_threadsafe", {"sz:lossless_compressor": 3}),
    ("compressor", "sz_omp", {"sz_omp:nthreads": 0}),
    ("compressor", "zfp", {"zfp:mode_str": "bogus"}),
    ("compressor", "zfp", {"zfp:precision": -1}),
    ("compressor", "zfp", {"zfp:level": "high"}),
    ("compressor", "zfp", {"zfp:backend": 1}),
    ("compressor", "mgard", {"mgard:tolerance": 0.0}),
    ("compressor", "mgard", {"pressio:abs": -1.0}),
    ("compressor", "mgard", {"mgard:s": "x"}),
    ("compressor", "tthresh", {"tthresh:target_value": 0.0}),
    ("compressor", "tthresh", {"tthresh:backend": 2}),
    ("compressor", "bit_grooming", {"bit_grooming:nsb": -1}),
    ("compressor", "bit_grooming", {"bit_grooming:nsb": 53}),
    ("compressor", "digit_rounding", {"digit_rounding:prec": 0}),
    ("compressor", "digit_rounding", {"digit_rounding:prec": 16}),
    ("compressor", "fpzip", {"fpzip:level": "x"}),
    ("compressor", "external", {"external:config_json": "{"}),
    ("compressor", "external", {"external:init_cost_ms": "slow"}),
    ("compressor", "chunking", {"chunking:chunk_size": 0}),
    ("compressor", "chunking", {"chunking:nthreads": 0}),
    ("compressor", "chunking", {"chunking:chunk_size": "big"}),
    ("compressor", "pipelined", {"pipelined:chunk_size": 0}),
    ("compressor", "pipelined", {"pipelined:depth": 0}),
    ("compressor", "pipelined", {"pipelined:nthreads": 0}),
    ("compressor", "many_independent", {"many_independent:mode": "mpi"}),
    ("compressor", "many_independent", {"many_independent:nthreads": 0}),
    ("compressor", "many_dependent", {"many_dependent:nthreads": 0}),
    ("compressor", "many_dependent", {"many_dependent:scale": "x"}),
    ("compressor", "sample", {"sample:rate": 0}),
    ("compressor", "sample", {"sample:mode": "bogus"}),
    ("compressor", "sample", {"sample:seed": 0.5}),
    ("compressor", "linear_quantizer", {"linear_quantizer:step": 0.0}),
    ("compressor", "fault_injector", {"fault_injector:num_faults": -1}),
    ("compressor", "fault_injector",
     {"fault_injector:skip_header_bytes": -1}),
    ("compressor", "error_injector",
     {"error_injector:distribution": "cauchy"}),
    ("compressor", "error_injector", {"error_injector:scale": -1.0}),
    ("compressor", "opt", {"opt:objective": "bogus"}),
    ("compressor", "opt", {"opt:bound_low": 0.0}),
    ("compressor", "opt", {"opt:bound_low": 2.0}),
    ("compressor", "opt", {"opt:max_iterations": 0}),
    ("compressor", "sparse", {"sparse:fill_value": "x"}),
    ("compressor", "transpose", {"transpose:axis_order": 5}),
    ("compressor", "resize", {"resize:new_dims": 5}),
    ("compressor", "switch", {"switch:active_id": 3}),
    ("compressor", "delta_encoding", {"delta_encoding:compressor": 1}),
    ("metric", "spatial_error", {"spatial_error:threshold": -1.0}),
    ("metric", "kth_error", {"kth_error:k": 0}),
    ("metric", "kl_divergence", {"kl_divergence:bins": 1}),
    ("metric", "diff_pdf", {"diff_pdf:bins": 1}),
    ("metric", "autocorr", {"autocorr:max_lag": 0}),
    ("metric", "ftk", {"ftk:match_radius": -1}),
    ("metric", "csv_logger", {"csv_logger:mode": "bogus"}),
    ("metric", "mask", {"mask:mask": "all"}),
    ("metric", "region_of_interest", {"region_of_interest:start": 5}),
    ("metric", "trace", {"trace:clear_on_reset": "x"}),
    ("io", "csv", {"csv:skip_rows": "x"}),
    ("io", "hdf5mini", {"hdf5:filter_config_json": "{"}),
    ("io", "adios_mini", {"adios:operator_config_json": "{"}),
    ("io", "adios_mini", {"adios:step": "x"}),
    ("io", "iota", {"iota:start": "x"}),
    ("io", "posix", {"io:path": 5}),
    ("io", "select", {"select:start": 5}),
]


def _plain(value):
    """``value`` as JSON: lists and scalars as they are, anything else
    (a DATA buffer, a USERPTR handle) by its type name."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return f"<{type(value).__name__}>"


def _options(opts: PressioOptions) -> dict:
    return {key: [opt.type.name, _plain(opt.get())]
            for key, opt in opts.items()}


def _create(kind: str, plugin_id: str):
    return REGISTRIES[kind].create(plugin_id)


def _release(plugin) -> None:
    if hasattr(plugin, "decref"):
        plugin.decref()


def surface() -> dict:
    """The current option surface, in the pin's layout."""
    load_first_party_plugins()
    import repro.trace.metric  # noqa: F401 - registers the trace metric

    plugins: dict = {}
    for kind, registry in REGISTRIES.items():
        for plugin_id in registry.ids():
            plugin = _create(kind, plugin_id)
            try:
                # plugins that tests and the conformance self-test
                # register are not part of the library's surface
                module = type(plugin).__module__
                if (module.partition(".")[0] != "repro"
                        or module.startswith("repro.conformance")):
                    continue
                docs = plugin.get_documentation().to_dict()
                plugins[f"{kind}/{plugin_id}"] = {
                    "options": _options(plugin.get_options()),
                    "documentation": {k: _plain(v) for k, v in docs.items()},
                    "configuration": _options(plugin.get_configuration()),
                }
            finally:
                _release(plugin)
    rejected = []
    for kind, plugin_id, options in REJECTED:
        plugin = _create(kind, plugin_id)
        try:
            rejected.append([kind, plugin_id, options,
                             plugin.set_options(options)])
        finally:
            _release(plugin)
    return {"plugins": plugins, "rejected": rejected}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PIN.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return surface()


def test_every_pinned_plugin_is_registered(pinned, current):
    assert sorted(current["plugins"]) == sorted(pinned["plugins"])


@pytest.mark.parametrize("part", ["options", "documentation",
                                  "configuration"])
def test_surface_matches_the_pin(pinned, current, part):
    drift = {name: (entry[part], current["plugins"][name][part])
             for name, entry in pinned["plugins"].items()
             if name in current["plugins"]
             and current["plugins"][name][part] != entry[part]}
    assert not drift


def test_rejection_codes_match_the_pin(pinned, current):
    assert current["rejected"] == pinned["rejected"]
    assert all(rc != 0 for *_, rc in pinned["rejected"])


@pytest.mark.parametrize("kind,plugin_id,options", REJECTED,
                         ids=[f"{p}-{next(iter(o))}" for _, p, o in REJECTED])
def test_a_rejected_set_changes_nothing(kind, plugin_id, options):
    plugin = _create(kind, plugin_id)
    try:
        before = _options(plugin.get_options())
        assert plugin.set_options(options) != 0
        assert _options(plugin.get_options()) == before
    finally:
        _release(plugin)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_option_surface.py --write")
    PIN.write_text(json.dumps(surface(), indent=1, sort_keys=True) + "\n")
