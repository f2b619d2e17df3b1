"""Per-rule fixture tests: each seeded violation raises exactly its rule."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.engine import PARSE_RULE_ID

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> (expected rule id, expected finding count)
SEEDED = {
    "pc001_option_symmetry.py": ("PC001", 1),
    "pc002_docs_drift.py": ("PC002", 1),
    "pc003_native_call.py": ("PC003", 1),
    "pc004_broad_except.py": ("PC004", 2),
    "hp001_unguarded_trace.py": ("HP001", 1),
    "hp002_missing_guard.py": ("HP002", 1),
    "hp003_unguarded_profile.py": ("HP001", 3),
    "hp004_per_element_loop.py": ("HP004", 3),
    "ob001_missing_propagation.py": ("OB001", 1),
    "ts001_shared_write.py": ("TS001", 3),
    "ts002_missing_declaration.py": ("TS002", 2),
    "pe001_parse_error.py": (PARSE_RULE_ID, 1),
    # RS/LK fixture pairs: one firing file, one clean control each
    "rs001_missing_release.py": ("RS001", 2),
    "rs001_clean.py": ("RS001", 0),
    "rs002_double_release.py": ("RS002", 1),
    "rs002_clean.py": ("RS002", 0),
    "rs003_buffer_escape.py": ("RS003", 2),
    "rs003_clean.py": ("RS003", 0),
    "lk001_lock_imbalance.py": ("LK001", 2),
    "lk001_clean.py": ("LK001", 0),
    "lk002_lock_order_cycle.py": ("LK002", 2),
    "lk002_clean.py": ("LK002", 0),
}


@pytest.mark.parametrize("fixture,expected", sorted(SEEDED.items()))
def test_fixture_raises_only_its_rule(fixture, expected):
    rule_id, count = expected
    findings = analyze_paths([str(FIXTURES / fixture)])
    assert [f.rule_id for f in findings] == [rule_id] * count
    for f in findings:
        assert f.path.endswith(fixture)
        assert f.line >= 1
        assert f.message


#: a plugin with a fields table whose hand-written _set_options reads
#: field keys (declared) and one key nothing declares (PC001)
FIELD_FIXTURE = "pc001_field_table.py"


def test_field_table_fixture_raises_pc001_for_the_undeclared_key_only():
    findings = analyze_paths([str(FIXTURES / FIELD_FIXTURE)])
    assert [f.rule_id for f in findings] == ["PC001"]
    assert "'fixture_pc001_fields:mode'" in findings[0].message


def test_all_fixtures_are_covered():
    present = {p.name for p in FIXTURES.glob("*.py")}
    assert present == set(SEEDED) | {FIELD_FIXTURE}


def test_no_false_positives_on_repaired_tree():
    """The shipped src/repro tree is lint-clean modulo the committed
    baseline — which suppresses exactly the intentionally-scalar encoder
    reference implementations (HP004's canonical suppression example)."""
    from repro.analysis.baseline import apply_baseline, load_baseline

    repo = Path(__file__).resolve().parents[2]
    findings = analyze_paths([str(repo / "src" / "repro")], root=str(repo))
    fingerprints = load_baseline(str(repo / "lint-baseline.json"))
    kept, suppressed = apply_baseline(findings, fingerprints)
    assert kept == [], [f"{f.location()}: {f.rule_id}" for f in kept]
    assert all(f.rule_id == "HP004"
               and f.path.endswith("_reference.py") for f in findings)
    assert suppressed == len(findings) == 5


def test_guarded_sites_in_fixture_stay_clean():
    """Negative controls inside the fixtures are not flagged."""
    findings = analyze_paths([str(FIXTURES / "hp002_missing_guard.py")])
    assert all("WellGuardedWrapper" not in f.message for f in findings)
    findings = analyze_paths([str(FIXTURES / "ts001_shared_write.py")])
    assert all("_safe" not in f.message for f in findings)


def test_thread_safety_reaches_runtime_introspection():
    """The statically checked field surfaces as pressio:thread_safety."""
    from repro.core.library import Pressio

    library = Pressio()
    for cid, expected in (("zfp", "multithreaded"), ("noop", "multithreaded"),
                          ("sz", "single"), ("sz_threadsafe", "multithreaded"),
                          ("chunking", "multithreaded")):
        comp = library.get_compressor(cid)
        cfg = comp.get_configuration()
        assert cfg.get("pressio:thread_safety") == expected, cid


def test_both_thread_safety_keys_agree_for_every_plugin():
    """``pressio:thread_safe`` is derived from the one declaration, and a
    meta-compressor reports its leaf's under both keys."""
    from repro.core.library import Pressio

    library = Pressio()
    safe = {"single": "single", "serialized": "serialized",
            "multithreaded": "multiple"}
    for cid in library.supported_compressors():
        cfg = library.get_compressor(cid).get_configuration()
        declared = cfg.get("pressio:thread_safety")
        assert cfg.get("pressio:thread_safe") == safe[declared], cid
