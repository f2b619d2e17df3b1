"""The field table: each option declared once, reported, taken, checked
and documented by the defaults of :class:`Configurable`."""

from types import SimpleNamespace

import pytest

from repro.core import OptionType, PressioData
from repro.core.configurable import Configurable, Field
from repro.core.status import ErrorCode


class Gadget(Configurable):
    plugin_id = "gadget"
    description = "a gadget"
    fields = (
        Field("level", "_level", OptionType.INT32, low=1, high=9,
              doc="effort"),
        Field("mode", "_mode", OptionType.STRING,
              choices=("fast", "small", "exact")),
        Field("gadget:bound", "_bound", OptionType.DOUBLE, positive=True),
        Field("pressio:abs", "_bound", OptionType.DOUBLE, positive=True,
              doc="alias of gadget:bound"),
        Field("count", "_counts.n", OptionType.INT64, low=0),
        Field("mask", "_mask", OptionType.DATA),
    )

    def __init__(self) -> None:
        super().__init__()
        self._level = 5
        self._mode = "fast"
        self._bound = 1e-3
        self._counts = SimpleNamespace(n=2)
        self._mask = None


def test_reports_every_field_with_its_type():
    opts = Gadget().get_options()
    assert list(opts.keys()) == ["gadget:level", "gadget:mode",
                                 "gadget:bound", "pressio:abs",
                                 "gadget:count", "gadget:mask"]
    assert opts.get_option("gadget:level").type == OptionType.INT32
    assert opts.get("gadget:count") == 2
    # a None value reports the type alone
    assert opts.key_status("gadget:mask") == "key_exists"
    assert opts.get_option("gadget:mask").type == OptionType.DATA


def test_documents_the_description_and_each_documented_field():
    docs = Gadget().get_documentation().to_dict()
    assert docs == {"pressio:description": "a gadget",
                    "gadget:level": "effort",
                    "pressio:abs": "alias of gadget:bound"}


def test_takes_and_casts_each_field():
    g = Gadget()
    assert g.set_options({"gadget:level": 7.0, "gadget:count": 4,
                          "gadget:mode": "exact"}) == 0
    assert (g._level, g._counts.n, g._mode) == (7, 4, "exact")
    assert type(g._level) is int
    mask = PressioData.from_bytes(b"\x00")
    assert g.set_options({"gadget:mask": mask}) == 0
    assert g._mask is mask


@pytest.mark.parametrize("options,message", [
    ({"gadget:level": 0}, "gadget:level must be in [1, 9]"),
    ({"gadget:level": 10}, "gadget:level must be in [1, 9]"),
    ({"gadget:mode": "slow"}, "gadget:mode must be fast, small, or exact"),
    ({"gadget:bound": 0.0}, "gadget:bound must be positive"),
    ({"pressio:abs": -1.0}, "pressio:abs must be positive"),
    ({"gadget:count": -1}, "gadget:count must be >= 0"),
])
def test_rejects_outside_the_domain_and_changes_nothing(options, message):
    g = Gadget()
    before = g.get_options()
    assert g.set_options(options) == ErrorCode.INVALID_OPTION
    assert g.error_msg() == message
    assert g.get_options() == before


def test_wrong_types_are_rejected_before_anything_is_taken():
    g = Gadget()
    assert g.set_options({"gadget:level": 3, "gadget:mode": 4}) != 0
    assert g._level == 5
    assert g.set_options({"gadget:mask": "all"}) == ErrorCode.INVALID_OPTION


def test_an_alias_is_checked_on_its_final_value():
    g = Gadget()
    assert g.set_options({"gadget:bound": -1.0, "pressio:abs": 0.5}) == 0
    assert g._bound == 0.5


def test_two_choices_read_as_either_or():
    field = Field("k", "_k", OptionType.STRING, choices=("a", "b"))
    plugin = SimpleNamespace(_k="c", _qualify=lambda key: f"p:{key}")
    with pytest.raises(Exception, match="^p:k must be a or b$"):
        field.check(plugin)


def test_a_renamed_instance_qualifies_its_own_keys_only():
    g = Gadget()
    g.set_name("other")
    keys = set(g.get_options().keys())
    assert {"other:level", "gadget:bound", "pressio:abs"} <= keys
    assert "gadget:level" not in keys
    assert g.set_options({"other:level": 2, "gadget:level": 3}) == 0
    assert g._level == 2
    assert "other:level" in g.get_documentation()


def test_check_and_clone_go_through_the_fields():
    g = Gadget()
    assert g.check_options({"gadget:level": 99}) != 0
    assert g._level == 5
    g.set_options({"gadget:level": 8, "gadget:count": 9})
    dup = g.clone()
    assert (dup._level, dup._counts.n) == (8, 9)
    assert dup._counts is not g._counts
