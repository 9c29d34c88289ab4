import dataclasses
import json
from fractions import Fraction

import pytest

from hgfq import build_report
from hgfq.report import (
    REPORT_FIELDS,
    VerificationReport,
    csv_header,
    flatten_hypotheses,
    report_sort_key,
    report_to_csv_row,
)

from oracle_helpers import summarize


def make(status_lhs, status_rhs, hyps=None, **kw):
    return build_report(
        theorem_id=kw.pop("theorem_id", "t"),
        p=kw.pop("p", 5),
        e=kw.pop("e", 1),
        q=kw.pop("q", 5),
        lhs=status_lhs,
        rhs=status_rhs,
        hypotheses=hyps if hyps is not None else {"ok": True},
        **kw,
    )


def test_status_rules():
    assert make(1.0, 1.0).status == "pass"
    assert make(1.0, 2.0).status == "fail"
    # false hypothesis forces skip even with a large mismatch
    assert make(1.0, 100.0, hyps={"ok": False}).status == "skip"
    # tolerance is relative: a 1e-9 gap on a size-1e6 value still passes
    big = make(1e6, 1e6 + 1e-9)
    assert big.status == "pass"
    assert big.tolerance == 1e-6 * (1e6 + 1e-9)


def test_denominator_gate():
    # the sides as rationals with denominator d: a gap inside the tolerance
    # fails where round(d * lhs) != round(d * rhs), and unmet flags skip
    for d in (None, 1, 5, 25):
        scale = d or 1
        r = make((3.5 - 1e-8) / scale, (3.5 + 1e-8) / scale, d=d)
        assert r.status == ("pass" if d is None else "fail") and 0 < r.abs_diff <= r.tolerance
        assert make(3 / scale, (3 + 1e-8) / scale, d=d).status == "pass"
        assert make(0.5 / scale, 10.0, hyps={"ok": False}, d=d).status == "skip"


def test_dict_matches_field_contract():
    r = make(1 + 2j, 1 + 2j, l=2, lam=Fraction(1, 3), char_index=4, sqrt_branch="low")
    d = r.to_dict()
    assert tuple(d) == REPORT_FIELDS
    assert d["lambda"] == "1/3"
    assert d["lhs_re"] == 1.0 and d["lhs_im"] == 2.0
    assert json.loads(r.to_json()) == d
    # a record built with no instance fields has the same columns, all null
    bare = make(1.0, 1.0).to_dict()
    assert tuple(bare) == REPORT_FIELDS
    assert [bare[k] for k in ("l", "lambda", "char_index", "sqrt_branch")] == [None] * 4
    assert json.loads(make(1.0, 1.0).to_json()) == bare


def test_misspelt_instance_field_is_refused():
    with pytest.raises(TypeError):
        make(1.0, 1.0, lamda=Fraction(1, 3))


def test_record_fields_are_the_report_columns():
    # three renames and nothing else: lam is "lambda", each side is split
    renames = {"lam": ("lambda",), "lhs": ("lhs_re", "lhs_im"), "rhs": ("rhs_re", "rhs_im")}
    columns = [c for f in dataclasses.fields(VerificationReport) for c in renames.get(f.name, (f.name,))]
    assert tuple(columns) == REPORT_FIELDS
    # the hypotheses map is copied, not shared
    r = make(1.0, 1.0, hyps={"a": True})
    d = r.to_dict()
    assert d["hypotheses"] == r.hypotheses and d["hypotheses"] is not r.hypotheses


def test_csv_row_shape():
    assert csv_header() == ",".join(REPORT_FIELDS)
    r = make(0.5, 0.5, hyps={"a": True, "b": False})
    row = report_to_csv_row(r).split(",")
    assert len(row) == len(REPORT_FIELDS)
    assert row[REPORT_FIELDS.index("hypotheses")] == "a=true;b=false"
    # optional columns are left empty, floats keep full precision
    assert row[REPORT_FIELDS.index("l")] == ""
    assert row[REPORT_FIELDS.index("lhs_re")] == repr(0.5)
    assert flatten_hypotheses({}) == ""


def test_sorting_and_summary():
    rs = [
        make(0, 0, theorem_id="b", q=5),
        make(0, 0, theorem_id="a", q=7),
        make(0, 1, theorem_id="a", q=5),
        make(0, 0, theorem_id="a", q=5, hyps={"ok": False}),
    ]
    rs.sort(key=report_sort_key)
    # field-major: every record of q = 5 before any of q = 7
    assert [(r.q, r.theorem_id) for r in rs] == [(5, "a"), (5, "a"), (5, "b"), (7, "a")]
    assert summarize(rs) == {"pass": 2, "fail": 1, "skip": 1}
