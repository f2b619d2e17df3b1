"""Tests for the shared Configurable machinery (naming, takes, docs)."""

import numpy as np
import pytest

from repro.core import (
    InvalidOptionError,
    OptionType,
    PressioOptions,
)
from repro.core.configurable import Configurable, Stability, ThreadSafety


class Widget(Configurable):
    """Minimal configurable for exercising the base machinery."""

    plugin_id = "widget"

    def __init__(self) -> None:
        super().__init__()
        self.knob = 1.0

    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set(self._qualify("knob"), float(self.knob))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        knob = float(self._take(options, self._qualify("knob"),
                                OptionType.DOUBLE, self.knob))
        if knob < 0:
            raise InvalidOptionError("knob must be non-negative")
        self.knob = knob


class TestNaming:
    def test_default_name_is_plugin_id(self):
        assert Widget().get_name() == "widget"

    def test_set_name_changes_option_namespace(self):
        """Two instances of one plugin can hold distinct namespaces —
        libpressio's set_name feature for composed pipelines."""
        w = Widget()
        w.set_name("outer")
        assert "outer:knob" in w.get_options()
        assert w.set_options({"outer:knob": 5.0}) == 0
        assert w.knob == 5.0
        # the old namespace no longer applies
        assert w.set_options({"widget:knob": 9.0}) == 0  # ignored key
        assert w.knob == 5.0

    def test_repr_includes_name(self):
        w = Widget()
        w.set_name("mywidget")
        assert "mywidget" in repr(w)


class TestSetCheck:
    def test_set_options_returns_zero_and_applies(self):
        w = Widget()
        assert w.set_options({"widget:knob": 2.5}) == 0
        assert w.knob == 2.5

    def test_check_does_not_apply(self):
        w = Widget()
        assert w.check_options({"widget:knob": 3.0}) == 0
        assert w.knob == 1.0

    def test_check_rejects_bad_domain(self):
        w = Widget()
        assert w.check_options({"widget:knob": -1.0}) != 0
        assert "knob" in w.error_msg()

    def test_type_mismatch_rejected_with_key_in_message(self):
        w = Widget()
        rc = w.set_options({"widget:knob": "not-a-number"})
        assert rc != 0
        assert "widget:knob" in w.error_msg()

    def test_int_value_accepted_for_double_option(self):
        w = Widget()
        assert w.set_options({"widget:knob": 4}) == 0
        assert w.knob == 4.0

    def test_dict_and_pressio_options_both_accepted(self):
        w = Widget()
        assert w.set_options(PressioOptions({"widget:knob": 7.0})) == 0
        assert w.knob == 7.0


class TestConfigurationDefaults:
    def test_base_configuration(self):
        cfg = Widget().get_configuration()
        assert cfg.get("pressio:thread_safe") == ThreadSafety.SERIALIZED
        assert cfg.get("pressio:stability") == Stability.STABLE
        assert cfg.get("pressio:version") == "0.0.0"

    def test_documentation_default_empty(self):
        assert len(Widget().get_documentation()) == 0
