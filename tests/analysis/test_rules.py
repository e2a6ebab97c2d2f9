"""Each RPL rule fires on its bad fixture and stays silent on the good one."""

import pytest

from repro.analysis.registry import all_rules, get_rule
from repro.analysis.rules import rpl005_stats_contract as rpl005

CASES = [
    # (rule id, bad fixture, good fixture, pretended repo location)
    ("RPL001", "rpl001_bad.py", "rpl001_good.py", "src/repro/serve/fixture.py"),
    ("RPL002", "rpl002_bad.py", "rpl002_good.py", "src/repro/core/fixture.py"),
    ("RPL003", "rpl003_bad.py", "rpl003_good.py", "src/repro/core/fixture.py"),
    ("RPL004", "rpl004_bad.py", "rpl004_good.py", "src/repro/core/fixture.py"),
    ("RPL005", "rpl005_bad.py", "rpl005_good.py", "src/repro/core/fixture.py"),
]


def test_registry_holds_all_five_rule_families():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == sorted(ids)
    for expected in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005"):
        assert expected in ids


def test_rules_carry_documentation():
    for rule in all_rules():
        assert rule.title, rule.rule_id
        assert rule.rationale, rule.rule_id
        assert rule.hint, rule.rule_id


@pytest.mark.parametrize("rule_id, bad, good, relpath", CASES)
def test_bad_fixture_fires(fixture_module, rule_id, bad, good, relpath):
    rule = get_rule(rule_id)
    module = fixture_module(bad, relpath)
    assert rule.applies_to(module)
    findings = list(rule.check(module))
    assert findings, f"{rule_id} found nothing in {bad}"
    assert all(f.rule_id == rule_id for f in findings)
    for finding in findings:
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule_id, bad, good, relpath", CASES)
def test_good_fixture_stays_silent(fixture_module, rule_id, bad, good, relpath):
    rule = get_rule(rule_id)
    module = fixture_module(good, relpath)
    findings = [
        f
        for f in rule.check(module)
        # The good fixtures carry deliberate suppressed lines; the raw
        # rule still reports them (suppression is the runner's job).
        if "repro-lint" not in (module.lines[f.line - 1] if f.line <= len(module.lines) else "")
    ]
    assert findings == []


def test_rpl001_respects_package_scope(fixture_module):
    rule = get_rule("RPL001")
    module = fixture_module("rpl001_bad.py", "src/repro/core/fixture.py")
    assert not rule.applies_to(module)


def test_rpl001_specific_detections(fixture_module):
    rule = get_rule("RPL001")
    module = fixture_module("rpl001_bad.py", "src/repro/serve/fixture.py")
    messages = [f.message for f in rule.check(module)]
    assert any("json.load" in m for m in messages)
    assert any("time.sleep" in m for m in messages)
    assert any("query_batch" in m for m in messages)


def test_rpl002_reports_read_and_write(fixture_module):
    rule = get_rule("RPL002")
    module = fixture_module("rpl002_bad.py", "src/repro/core/fixture.py")
    messages = [f.message for f in rule.check(module)]
    assert any("read of lock-guarded" in m for m in messages)
    assert any("write of lock-guarded" in m for m in messages)


def test_rpl003_contract_and_allocation(fixture_module):
    rule = get_rule("RPL003")
    module = fixture_module("rpl003_bad.py", "src/repro/core/fixture.py")
    messages = [f.message for f in rule.check(module)]
    assert any("without an explicit dtype" in m for m in messages)
    assert any("builtin dtype 'float'" in m for m in messages)
    assert any("declared uint64" in m for m in messages)
    assert any("declared int64" in m for m in messages)


def test_rpl003_covers_kernels_subpackage(fixture_module):
    """The kernels subpackage sits inside core/, so RPL003 applies there."""
    rule = get_rule("RPL003")
    module = fixture_module("rpl003_bad.py", "src/repro/core/kernels/fixture.py")
    assert rule.applies_to(module)
    assert any("without an explicit dtype" in f.message for f in rule.check(module))


def test_rpl004_all_three_detections(fixture_module):
    rule = get_rule("RPL004")
    module = fixture_module("rpl004_bad.py", "src/repro/core/fixture.py")
    messages = [f.message for f in rule.check(module)]
    assert any("writable mode" in m for m in messages)
    assert any("setflags" in m for m in messages)
    assert any("memmap-bound array" in m for m in messages)
    assert any("postings-store field" in m for m in messages)


def test_rpl005_flags_contract_field_no_record_declares(fixture_module, monkeypatch):
    rule = get_rule("RPL005")
    monkeypatch.setitem(rpl005.SURFACE_CONTRACT, "probe", frozenset({"brand_new_field"}))
    module = fixture_module("rpl005_good.py", "src/repro/core/fixture.py")
    messages = [f.message for f in rule.check(module)]
    assert any("'brand_new_field' of 'probe' is declared by no stats record" in m for m in messages)
