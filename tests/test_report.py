"""Report record serialization round-trips."""

import math
from fractions import Fraction

from hclab import congruences as cg
from hclab.report import ReportRecord, emit, parse


def _records(cache):
    a = ReportRecord.from_verdict(cg.verify_case("wolstenholme", 7, {}, None), 1.234)
    b = ReportRecord.from_verdict(cg.verify_case("thm-eecj", 5, {"n": 1, "i": 2}, cache), 8.5)
    c = ReportRecord.skipped("thm-ee20", 3, {"n": 6}, "hypothesis")
    return [a, b, c]


def test_json_roundtrip(cache):
    records = _records(cache)
    text = emit(records, "json")
    assert len(text.splitlines()) == 3
    assert parse(text, "json") == records


def test_csv_roundtrip(cache):
    records = _records(cache)
    text = emit(records, "csv")
    lines = text.splitlines()
    assert len(lines) == 4  # header + three records
    assert lines[0].startswith('"theorem_id","p","params"')
    assert parse(text, "csv") == records


# The exact report bytes: column order, quoting, lowercase booleans, "inf"
# and empty CSV cells for None.  Reports already written depend on them.
_PINNED_JSON = (
    '{"theorem_id": "wolstenholme", "p": 7, "params": {}, "status": "ok", '
    '"required_exponent": 2, "achieved_valuation": 2, "tier": null, "pass": true, '
    '"lhs": "49/20", "elapsed_ms": 1.234}\n'
    '{"theorem_id": "thm-eecj", "p": 5, "params": {"i": 2, "n": 1}, "status": "ok", '
    '"required_exponent": 4, "achieved_valuation": 4, "tier": 2, "pass": true, '
    '"lhs": "5625/32", "elapsed_ms": 8.5}\n'
    '{"theorem_id": "thm-ee20", "p": 3, "params": {"n": 6}, '
    '"status": "skipped-hypothesis", "required_exponent": null, '
    '"achieved_valuation": null, "tier": null, "pass": null, "lhs": null, '
    '"elapsed_ms": null}\n'
    '{"theorem_id": "thm-ee20", "p": 3, "params": {"n": 2}, "status": "ok", '
    '"required_exponent": 2, "achieved_valuation": "inf", "tier": null, "pass": true, '
    '"lhs": "0/1", "elapsed_ms": 0.1}\n'
)
_PINNED_CSV = (
    '"theorem_id","p","params","status","required_exponent","achieved_valuation",'
    '"tier","pass","lhs","elapsed_ms"\n'
    '"wolstenholme","7","{}","ok","2","2","","true","49/20","1.234"\n'
    '"thm-eecj","5","{""i"": 2, ""n"": 1}","ok","4","4","2","true","5625/32","8.5"\n'
    '"thm-ee20","3","{""n"": 6}","skipped-hypothesis","","","","","",""\n'
    '"thm-ee20","3","{""n"": 2}","ok","2","inf","","true","0/1","0.1"\n'
)


def test_emit_bytes_pinned(cache):
    records = _records(cache) + [
        ReportRecord.from_verdict(cg.verify_case("thm-ee20", 3, {"n": 2}, cache), 0.1)
    ]
    assert emit(records, "json") == _PINNED_JSON
    assert emit(records, "csv") == _PINNED_CSV


def test_infinite_valuation_serializes(cache):
    v = cg.verify_case("thm-ee20", 3, {"n": 2}, cache)  # lhs is exactly zero here
    assert math.isinf(v.achieved_valuation)
    r = ReportRecord.from_verdict(v, 0.1)
    for fmt in ("json", "csv"):
        back = parse(emit([r], fmt), fmt)[0]
        assert math.isinf(back.achieved_valuation)
        assert back == r


def test_skipped_record_shape():
    r = ReportRecord.skipped("prop41", 3, {"n": 6}, "hypothesis")
    assert r.status == "skipped-hypothesis"
    assert r.passed is None and r.lhs is None


def test_lhs_fraction(cache):
    r = _records(cache)[1]
    assert r.lhs == Fraction(5625, 32)
    for fmt in ("json", "csv"):
        assert parse(emit([r], fmt), fmt)[0].lhs == Fraction(5625, 32)
