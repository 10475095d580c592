"""Line-oriented report records and their JSON/CSV serialization.

The fields of `ReportRecord`, in declaration order, are the report's
columns; the attribute ``passed`` is keyed ``"pass"``.  Both formats
round-trip losslessly: an infinite achieved_valuation serializes as the
string "inf", the exact Fraction lhs as "num/den", and params with sorted
keys.  A CSV cell holds params as a JSON object, None as an empty cell
and booleans in lowercase.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple


class ReportRecord(NamedTuple):
    """One verdict: what every verifier returns and every report line holds."""

    theorem_id: str
    p: int
    params: dict
    status: str = "ok"  # "ok" or "skipped-hypothesis"
    required_exponent: int | None = None
    achieved_valuation: int | float | None = None
    tier: int | None = None
    passed: bool | None = None
    lhs: Fraction | None = None
    elapsed_ms: float | None = None

    @staticmethod
    def from_verdict(record: "ReportRecord", elapsed_ms: float) -> "ReportRecord":
        """The verifier's record, timed."""
        return record._replace(elapsed_ms=round(elapsed_ms, 3))

    @staticmethod
    def skipped(theorem_id: str, p: int, params: dict, reason: str) -> "ReportRecord":
        return ReportRecord(theorem_id, p, params, "skipped-hypothesis")

    def sort_key(self):
        return (self.theorem_id, self.p, tuple(sorted(self.params.items())))

    def to_dict(self) -> dict:
        d = dict(zip(FIELDS, self))
        d["params"] = dict(sorted(self.params.items()))
        if self.achieved_valuation == math.inf:
            d["achieved_valuation"] = "inf"
        if self.lhs is not None:
            d["lhs"] = f"{self.lhs.numerator}/{self.lhs.denominator}"
        return d

    @staticmethod
    def from_dict(d: dict) -> "ReportRecord":
        """Inverse of to_dict; a CSV row must first pass through _CSV_DECODE."""
        d = dict(d)
        if d["achieved_valuation"] == "inf":
            d["achieved_valuation"] = math.inf
        if d["lhs"] is not None:
            d["lhs"] = Fraction(d["lhs"])
        return ReportRecord(*(d[key] for key in FIELDS))


FIELDS = tuple("pass" if name == "passed" else name for name in ReportRecord._fields)

# How a non-empty CSV cell decodes, for the columns that are not strings;
# an empty cell is None.  "inf" is left for from_dict.
_CSV_DECODE = {
    "p": int,
    "params": json.loads,
    "required_exponent": int,
    "achieved_valuation": lambda cell: cell if cell == "inf" else int(cell),
    "tier": int,
    "pass": {"true": True, "false": False}.__getitem__,
    "elapsed_ms": float,
}


def _csv_cell(value):
    if isinstance(value, dict):
        return json.dumps(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def emit(records, fmt: str) -> str:
    """Serialize records: JSON lines or CSV with a header row."""
    if fmt == "json":
        return "".join(json.dumps(r.to_dict()) + "\n" for r in records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
        writer.writerow(FIELDS)
        writer.writerows([_csv_cell(v) for v in r.to_dict().values()] for r in records)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def parse(text: str, fmt: str) -> list[ReportRecord]:
    """Inverse of emit."""
    if fmt == "json":
        return [ReportRecord.from_dict(json.loads(line)) for line in text.splitlines()]
    if fmt == "csv":
        rows = csv.reader(io.StringIO(text))
        header = next(rows, ())
        return [
            ReportRecord.from_dict({
                col: _CSV_DECODE.get(col, str)(cell) if cell else None
                for col, cell in zip(header, row)
            })
            for row in rows
        ]
    raise ValueError(f"unknown format {fmt!r}")
