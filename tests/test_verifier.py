"""Verifier behavior: skip semantics, cross-identity consistency, sweep
determinism, and pinned outcomes for the identities that do not hold."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from hgfq import (
    Character,
    SweepConfig,
    character_of_order,
    make_field,
    sweep,
    verify_2f1_specials,
    verify_2f1_trace,
    verify_3f2_at_4,
    verify_charsum_lemmas,
    verify_corollary_c3,
    verify_corollary_chi4,
    verify_corollary_lcm,
    verify_lambda_third,
    verify_main_square,
    verify_mccarthy,
    verify_ono,
)
import hgfq.verifier
from hgfq.report import REPORT_FIELDS, report_sort_key
from hgfq.verifier import SPECIAL_PARTS, SQRT_BRANCHES, THEOREM_KEYS, row_blocks

from oracle_helpers import summarize


@pytest.fixture(scope="module")
def default_reports():
    return sweep(SweepConfig())


def test_failed_reports_have_all_hypotheses_met(default_reports):
    for r in default_reports:
        if r.status == "fail":
            assert all(r.hypotheses.values()), r.theorem_id


def test_every_record_carries_the_fixed_relative_bound(default_reports):
    for r in default_reports:
        assert r.tolerance == 1e-6 * max(1.0, abs(r.lhs), abs(r.rhs)), r
        assert r.abs_diff == abs(r.lhs - r.rhs), r


def test_default_sweep_failure_census(default_reports):
    failed = [r for r in default_reports if r.status == "fail"]
    counts = summarize(default_reports)
    assert counts["fail"] == len(failed) == 10
    assert counts["pass"] + counts["fail"] + counts["skip"] == len(default_reports)
    # the only identity that breaks on the default grid is the squared-trace
    # double sum, and only for l = 5
    assert {r.theorem_id for r in failed} == {"aq_square_3f2"}
    assert {(r.q, r.l) for r in failed} == {(11, 5), (121, 5)}


# (pass, fail, skip) per theorem_id on the default grid
DEFAULT_CENSUS = {
    "2f1_special_i": (24, 0, 20),
    "2f1_special_ii": (24, 0, 20),
    "2f1_special_iii": (24, 0, 20),
    "2f1_special_iv": (24, 0, 20),
    "3f2_at_4": (10, 0, 12),
    "aq_square_3f2": (38, 10, 112),
    "c3_2f1_sum": (2, 0, 2),
    "c3_point_count": (2, 0, 2),
    "charsum_one_third": (22, 0, 0),
    "charsum_order3_2f1": (29, 0, 1),
    "charsum_sqrt_2f1": (114, 0, 106),
    "charsum_square_3f2": (48, 0, 62),
    "chi4_square": (28, 0, 12),
    "lambda_third": (22, 0, 10),
    "lcm_third_trace": (18, 0, 14),
    "mccarthy_binomial": (6, 0, 2),
    "mccarthy_gauss": (6, 0, 2),
    "ono_3f2": (38, 0, 2),
    "trace_2f1": (114, 0, 126),
    "trace_2f1_cubic": (29, 0, 11),
}
DEFAULT_DIGEST = "e86e9a244dac312c0a7799fe6630299254acbefbc1741bafd68bad828ce76150"


def test_default_sweep_golden(default_reports):
    """Pins every record of the default sweep except its floats: the
    instance fields, the premise flags in order, and the status."""
    census = {}
    for r in default_reports:
        counts = census.setdefault(r.theorem_id, [0, 0, 0])
        counts[("pass", "fail", "skip").index(r.status)] += 1
    assert {k: tuple(v) for k, v in census.items()} == DEFAULT_CENSUS
    keys = REPORT_FIELDS[: REPORT_FIELDS.index("sqrt_branch") + 1]
    lines = []
    for r in default_reports:
        d = r.to_dict()
        lines.append(json.dumps([[d[k] for k in keys], list(r.hypotheses.items()), r.status]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DEFAULT_DIGEST


def test_sweep_is_deterministic(default_reports, monkeypatch):
    # the second sweep also runs with the counting oracles made to raise,
    # wherever a module binds them: the sweep reads a_q off the histogram
    def oracle(*args):
        raise AssertionError("a counting oracle ran inside the sweep")

    for name, module in list(sys.modules.items()):
        if name == "hgfq" or name.startswith("hgfq."):
            for fn in ("brute_force_count", "weierstrass_count_l3"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, oracle)
    again = sweep(SweepConfig())
    assert [r.to_json() for r in again] == [r.to_json() for r in default_reports]


def test_main_square_l2_consistent_with_ono(default_reports):
    """The l = 2 double sum collapses to the single 3F2; the two verifiers
    must agree instance by instance."""
    ono = {
        (r.q, r.lam): r for r in default_reports if r.theorem_id == "ono_3f2"
    }
    checked = 0
    for r in default_reports:
        if r.theorem_id != "aq_square_3f2" or r.l != 2:
            continue
        mate = ono[(r.q, r.lam)]
        assert (r.status == "skip") == (mate.status == "skip")
        if r.status != "skip":
            assert r.status == mate.status == "pass"
            checked += 1
    assert checked > 30


def test_skip_sides_are_zero_except_at_excluded_orders(default_reports):
    """Only 3f2_at_4 and 2f1_special_* evaluate the sides of a skip, at the
    character orders their identities exclude; every other skip records 0."""
    evaluated = {}
    for r in default_reports:
        if r.status == "skip" and (r.lhs != 0 or r.rhs != 0):
            evaluated[r.theorem_id] = evaluated.get(r.theorem_id, 0) + 1
            assert r.lhs != 0 and r.rhs != 0, r.theorem_id
    specials = {f"2f1_special_{part}": 12 for part in ("i", "ii", "iii", "iv")}
    assert evaluated == {"3f2_at_4": 12, **specials}


def test_exact_check_decides_inside_the_tolerance(monkeypatch):
    # 1/q^2 is inside the 1e-6 tolerance at q = 1009, but q^2 * lhs moves
    # to the next integer, so only the exact check can fail the record
    f = make_field(1009)
    assert verify_ono(f, 1).status == "pass"
    series = hgfq.verifier.series_value
    monkeypatch.setattr(
        hgfq.verifier, "series_value", lambda *args: series(*args) + 1 / f.q**2
    )
    r = verify_ono(f, 1)
    assert all(r.hypotheses.values())
    assert r.status == "fail"
    assert r.abs_diff <= r.tolerance
    assert r.abs_diff == pytest.approx(1 / 1009**2)


def test_lambda_third_closed_forms_at_l3_follow_q_mod_3():
    # at l = 3 the two lambda = 1/3 closed forms need only q = 1 mod 3, so
    # they pass at q = 25 and 121 (p = 2 mod 3) as at q = 13, and skip on
    # their congruence flag alone at q = 5 and 11
    for p, e in ((13, 1), (5, 2), (11, 2), (5, 1), (11, 1)):
        f = make_field(p, e)
        third, lcm3 = verify_lambda_third(f, 3), verify_corollary_lcm(f, 3)
        if f.q % 3 == 1:
            assert third.status == "pass" and lcm3.status == "pass", f.q
        else:
            assert third.status == "skip" and third.hypotheses == {"p_not_3": True, "congruence": False}
            assert lcm3.status == "skip"
            assert lcm3.hypotheses == {"congruence_mod_lcm": False, "p_not_3": True}


def test_passing_trace_l2_implies_chi4(default_reports):
    checked = 0
    for r in default_reports:
        if r.theorem_id == "trace_2f1" and r.l == 2 and r.status == "pass":
            f = make_field(r.p, r.e)
            assert verify_corollary_chi4(f, r.lam).status == "pass"
            checked += 1
    assert checked > 10


def test_chi4_names_its_character_whenever_it_exists(default_reports):
    # char_index depends on q alone, not on the lambda flags or the status
    seen = set()
    for r in default_reports:
        if r.theorem_id == "chi4_square":
            mod4 = r.hypotheses["congruence_mod_4"]
            assert r.char_index == ((r.q - 1) // 4 if mod4 else None), r
            seen.add((r.status, mod4))
    assert seen == {("pass", True), ("skip", True), ("skip", False)}


def test_empty_prime_range_gives_empty_sweep():
    assert sweep(SweepConfig(prime_min=24, prime_max=28)) == []


def test_grid_above_q_cap_is_an_error():
    with pytest.raises(ValueError):
        sweep(SweepConfig(prime_min=3001, prime_max=3001))
    with pytest.raises(ValueError):
        sweep(SweepConfig(prime_min=11, prime_max=13, degrees=(2,), q_cap=100))
    # raised by the call itself, before any record is asked for
    with pytest.raises(ValueError):
        row_blocks(SweepConfig(prime_min=3001, prime_max=3001))


def test_prime_scan_stops_at_the_cap(monkeypatch):
    def is_prime_up_to_101(n):
        assert n <= 101, f"primality test of {n}"
        return hgfq.field.is_prime(n)

    monkeypatch.setattr(hgfq.verifier, "is_prime", is_prime_up_to_101)

    def ono(lo, hi, **kw):
        return sweep(SweepConfig(prime_min=lo, prime_max=hi, theorems=("ono",), q_cap=50, **kw))

    assert ono(5, 10**12) == ono(5, 50) != []
    # a range with an odd prime but no field under the cap is still an error
    with pytest.raises(ValueError, match="no field of the grid"):
        ono(101, 10**12)
    assert ono(90, 96) == []  # no odd prime in the range: no records
    # a degree too large for the cap adds no field, and is refused without forming p^e
    assert ono(3, 13, degrees=(1, 100_000_000)) == ono(3, 13, degrees=(1,))


def test_row_blocks_yields_a_field_before_building_the_next(monkeypatch):
    built = []

    def counting_make_field(p, e, **kw):
        built.append(p**e)
        return make_field(p, e, **kw)

    monkeypatch.setattr(hgfq.verifier, "make_field", counting_make_field)
    blocks = row_blocks(SweepConfig(prime_min=5, prime_max=7, degrees=(1, 2)))
    assert built == []
    first = next(blocks)
    assert built == [5] and {r.q for r in first} == {5}
    rest = [r for block in blocks for r in block]
    assert built == [5, 7, 25, 49]
    assert [r.q for r in rest] == sorted(r.q for r in rest)


def test_row_blocks_yields_a_row_before_running_the_next(monkeypatch):
    calls = []
    for name in ("verify_2f1_specials", "verify_3f2_at_4", "verify_ono"):
        verify = getattr(hgfq.verifier, name)

        def counting(*args, verify=verify, name=name, **kw):
            calls.append(name)
            return verify(*args, **kw)

        monkeypatch.setattr(hgfq.verifier, name, counting)
    blocks = row_blocks(SweepConfig(prime_min=13, prime_max=13, degrees=(1,)))
    first = next(blocks)
    assert first[0].theorem_id == "2f1_special_i"
    assert set(calls) == {"verify_2f1_specials"}
    rest = [r for block in blocks for r in block]
    assert set(calls) == {"verify_2f1_specials", "verify_3f2_at_4", "verify_ono"}
    assert rest[-1].theorem_id.startswith("trace_2f1")


# The catalog key of each theorem id.
KEY_OF_ID = {
    **{f"2f1_special_{part}": "specials" for part in ("i", "ii", "iii", "iv")},
    "3f2_at_4": "3f2at4",
    "aq_square_3f2": "main",
    "c3_2f1_sum": "c3",
    "c3_point_count": "c3",
    **{f"charsum_{part}": "charsum_lemmas" for part in hgfq.verifier.LEMMA_PARTS},
    "chi4_square": "chi4",
    "lambda_third": "lambda_third",
    "lcm_third_trace": "lcm",
    "mccarthy_binomial": "mccarthy",
    "mccarthy_gauss": "mccarthy",
    "ono_3f2": "ono",
    "trace_2f1": "trace",
    "trace_2f1_cubic": "trace",
}


def test_row_blocks_are_catalog_rows_in_sorted_order(default_reports):
    blocks = list(row_blocks(SweepConfig()))
    fields = sorted({r.q for r in default_reports})
    assert len(blocks) == len(fields) * len(THEOREM_KEYS)
    for i, block in enumerate(blocks):
        # fields in increasing q, and within a field the rows in CATALOG order
        assert {r.q for r in block} <= {fields[i // len(THEOREM_KEYS)]}
        assert {KEY_OF_ID[r.theorem_id] for r in block} <= {THEOREM_KEYS[i % len(THEOREM_KEYS)]}
    records = [r for block in blocks for r in block]
    assert {r.theorem_id for r in records} == set(KEY_OF_ID)
    ids = [(r.q, r.theorem_id) for r in records]
    assert ids == sorted(ids)
    want = sorted(default_reports, key=report_sort_key)
    assert [r.to_json() for r in records] == [r.to_json() for r in want]


def test_sweep_is_the_streamed_records():
    config = SweepConfig(prime_min=3, prime_max=7, degrees=(1, 2), l_values=(2, 3, 4))
    reports = sweep(config)
    assert reports == [r for block in row_blocks(config) for r in block]
    assert reports == sorted(reports, key=report_sort_key)


def test_small_sweep_covers_core_families():
    cfg = SweepConfig(
        prime_min=5,
        prime_max=7,
        degrees=(1,),
        l_values=(2,),
        lambdas=(Fraction(1),),
        theorems=("ono", "main", "trace"),
    )
    reports = sweep(cfg)
    assert len(reports) >= 6
    assert {r.theorem_id for r in reports} == {"ono_3f2", "aq_square_3f2", "trace_2f1"}
    assert not any(r.status == "fail" for r in reports)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(prime_min=11, prime_max=7)
    with pytest.raises(TypeError):  # the record's bound is fixed, not configured
        SweepConfig(tolerance=1e-3)
    with pytest.raises(ValueError):
        SweepConfig(theorems=("ono", "nope"))
    with pytest.raises(ValueError):
        SweepConfig(theorems=())
    for cap in (0, 2, 100_001):
        with pytest.raises(ValueError):
            SweepConfig(q_cap=cap)
    for l_values in ((1,), (0,), (2, -3), (2, 3, 2)):
        with pytest.raises(ValueError):
            SweepConfig(l_values=l_values)
    for degrees in ((0,), (1, -1), (1, 1)):
        with pytest.raises(ValueError):
            SweepConfig(degrees=degrees)
    for lambdas in ((1, 1), (Fraction(1, 3), Fraction(2, 6))):
        with pytest.raises(ValueError):
            SweepConfig(lambdas=lambdas)


def test_main_square_counterexample_is_failed_not_skipped():
    f = make_field(11)
    r = verify_main_square(f, 5, 1)
    assert r.status == "fail"
    assert all(r.hypotheses.values())
    assert r.lhs == 25 + 0j
    assert round(r.rhs.real) == 15
    assert abs(r.rhs.imag) < 1e-9


def test_main_square_orders_3_and_4_are_flagged_out():
    f = make_field(13)
    r3 = verify_main_square(f, 3, 1)
    assert r3.status == "skip" and r3.hypotheses["summand_1_order_not_3"] is False
    r4 = verify_main_square(f, 4, 1)
    assert r4.status == "skip" and r4.hypotheses["summand_1_order_not_4"] is False
    f37 = make_field(37)
    r6 = verify_main_square(f37, 6, 1)
    assert r6.status == "skip"
    assert r6.hypotheses["summand_2_order_not_3"] is False
    assert r6.hypotheses["tail_1_order_not_3"] is False


def test_trace_branch_and_parity():
    f = make_field(13)
    for branch in ("first", "second"):
        r = verify_2f1_trace(f, 2, Fraction(1), branch)
        assert r.status == "pass" and r.sqrt_branch == branch
    with pytest.raises(ValueError):
        verify_2f1_trace(f, 2, Fraction(1), "third")
    # q = 7: (q-1)/2 is odd, no square root of phi**3 exists
    r = verify_2f1_trace(make_field(7), 2, Fraction(1))
    assert r.status == "skip" and r.hypotheses["even_ratio"] is False


def test_trace_cubic():
    # q = 1 mod 3 is the one condition at l = 3, whatever p is mod 3
    for p, e in ((13, 1), (5, 2), (11, 2)):
        assert verify_2f1_trace(make_field(p, e), 3, Fraction(2)).status == "pass", (p, e)
    for p in (5, 11):
        r = verify_2f1_trace(make_field(p), 3, Fraction(2))
        assert r.status == "skip", p
        assert r.hypotheses == {"lambda_admissible": True, "good_reduction": True, "congruence": False}


def test_lambda_third_vanishing_branch():
    # q = 2 (mod 3), l != 3: the closed form is exactly zero, so a_q = 0
    r = verify_lambda_third(make_field(5), 2)
    assert r.status == "pass"
    assert r.rhs == 0j and r.lhs == 0j


def test_mccarthy_pair():
    for p, e in ((7, 1), (13, 1), (5, 2), (7, 2)):
        pair = verify_mccarthy(make_field(p, e))
        assert len(pair) == 2
        assert all(r.status == "pass" for r in pair), (p, e)
    for r in verify_mccarthy(make_field(5)):
        assert r.status == "skip" and r.hypotheses["congruence"] is False


def test_c3_pair():
    for p in (7, 13, 19, 31):
        assert all(r.status == "pass" for r in verify_corollary_c3(make_field(p)))
    for r in verify_corollary_c3(make_field(11)):
        assert r.status == "skip"
    with pytest.raises(ValueError):
        verify_corollary_c3(make_field(7, 2))


def test_chi4_congruence():
    assert verify_corollary_chi4(make_field(13), Fraction(2)).status == "pass"
    r = verify_corollary_chi4(make_field(7), Fraction(2))
    assert r.status == "skip" and r.hypotheses["congruence_mod_4"] is False


def test_lcm_congruence():
    assert verify_corollary_lcm(make_field(31), 5).status == "pass"
    assert verify_corollary_lcm(make_field(13), 3).status == "pass"
    r = verify_corollary_lcm(make_field(7), 5)
    assert r.status == "skip" and r.hypotheses["congruence_mod_lcm"] is False


def test_3f2_at_4_boundary_orders_recorded_not_failed():
    f = make_field(13)
    r = verify_3f2_at_4(character_of_order(f, 3))
    assert r.status == "skip" and r.hypotheses["order_admissible"] is False
    # both sides were still evaluated and genuinely disagree at order 3
    assert r.abs_diff > 0.1
    assert verify_3f2_at_4(character_of_order(f, 6)).status == "pass"


@pytest.mark.parametrize("p, e", [(7, 1), (13, 1), (5, 2)])
def test_2f1_specials_boundary_orders_recorded_not_failed(p, e):
    # the excluded orders still leave data, held to a 1e-9 relative gap: at
    # order 1 every part holds on both branches, with q |side| = 2; at order
    # 3 every part holds on the "first" branch and fails on the "second",
    # with sides well away from 0 (q |lhs| >= 2.6); every record is a skip
    f = make_field(p, e)
    for s in (0, f.m // 3, 2 * f.m // 3):
        for part in SPECIAL_PARTS:
            first, second = (verify_2f1_specials(Character(f, s), part, b) for b in SQRT_BRANCHES)
            assert first.status == second.status == "skip", (f.q, s, part)
            gaps = [r.abs_diff / max(1, abs(r.lhs), abs(r.rhs)) for r in (first, second)]
            assert gaps[0] < 1e-9 and (gaps[1] < 1e-9) == (s == 0), (f.q, s, part, gaps)
            if s == 0:
                assert f.q * abs(first.lhs) == pytest.approx(2)
            else:
                assert f.q * abs(first.lhs) > 2.6 and f.q * abs(second.rhs) > 0.5


def test_specials_all_parts_both_branches():
    f = make_field(13)
    chi = Character(f, 2)
    for part in ("i", "ii", "iii", "iv"):
        for branch in ("first", "second"):
            assert verify_2f1_specials(chi, part, branch).status == "pass", (part, branch)
    with pytest.raises(ValueError):
        verify_2f1_specials(chi, "v")
    triv = verify_2f1_specials(Character(f, 0), "i")
    assert triv.status == "skip" and triv.hypotheses["order_not_1"] is False


def test_charsum_lemma_parts():
    f = make_field(13)
    assert verify_charsum_lemmas(Character(f, 2), 1, "square_3f2").status == "pass"
    assert verify_charsum_lemmas(Character(f, 5), Fraction(1, 3), "one_third").status == "pass"
    assert verify_charsum_lemmas(Character(f, 2), 2, "sqrt_2f1", "second").status == "pass"
    assert verify_charsum_lemmas(Character(f, 4), 2, "order3_2f1").status == "pass"
    triv = verify_charsum_lemmas(Character(f, 0), 1, "sqrt_2f1")
    assert triv.status == "skip" and triv.hypotheses["order_not_1"] is False
    with pytest.raises(ValueError):
        verify_charsum_lemmas(Character(f, 2), 1, "bogus")


def test_arguments_an_identity_does_not_read_are_refused():
    # one_third holds at lambda = 1/3 alone, and only sqrt_2f1 and the
    # trace for l prime to 3 have a square-root branch: any other value is
    # an error, not a record that silently drops it
    f = make_field(13)
    chi = Character(f, 2)
    with pytest.raises(ValueError, match="lambda = 1/3"):
        verify_charsum_lemmas(chi, 5, "one_third")
    for part, lam in (("square_3f2", 2), ("one_third", Fraction(1, 3)), ("order3_2f1", 2)):
        with pytest.raises(ValueError, match="no square-root branch"):
            verify_charsum_lemmas(chi, lam, part, "second")
    with pytest.raises(ValueError, match="no square-root branch"):
        verify_2f1_trace(f, 3, 2, "second")
    # the values the sweep passes still give their records
    record = verify_charsum_lemmas(chi, Fraction(1, 3), "one_third", "first")
    assert record.lam == Fraction(1, 3) and record.sqrt_branch is None
    record = verify_2f1_trace(f, 3, 2, "first")
    assert record.theorem_id == "trace_2f1_cubic" and record.sqrt_branch is None
    assert verify_charsum_lemmas(chi, 2, "sqrt_2f1", "second").sqrt_branch == "second"


def test_ono_bad_lambda_skips():
    r = verify_ono(make_field(7), Fraction(-1))
    assert r.status == "skip" and r.hypotheses["lambda_admissible"] is False
