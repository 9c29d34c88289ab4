"""Machine verification of the curve/series identities over sweeps of F_q.

Every verify_* operation states one identity instance for concrete (q, l,
lambda, character) data: its named premise flags, its two sides as a
deferred computation, and the denominator d of both sides where they are
rationals (q**2 for ono_3f2, q for mccarthy_binomial, 1 for the a_q-valued
ids).  _record runs the sides only when the flags hold (3f2_at_4 and
2f1_special_* gate on fewer, so that the orders their identities exclude
still leave data) and records 0 for both otherwise; report.build_report
decides the status from the flags, the sides and d.

verify_3f2_at_4, verify_2f1_specials and verify_charsum_lemmas take their
character chi alone, on F_q = chi.field.  An argument that an identity
does not read is a ValueError, not dropped: a lambda other than 1/3 for
charsum_one_third, a square-root branch other than "first" where it has none.

CATALOG maps each theorem key to the records it yields on one field; its
keys follow the sorted order of the theorem ids they yield.  row_blocks()
runs the selected rows over a configured grid of prime powers, one field
at a time in increasing q and one row at a time within a field, and yields
each row's records, sorted, before it runs the next row; taken in order,
they are the records sorted by report_sort_key, and sweep() collects them.

lambda is a rational throughout, as on the curve over Q.  Every argument
and coefficient of a verify_* operation is a rational expression in it,
such as (1+lambda)/lambda or -4 lambda**3, reduced once into the field by
Field.from_rational; _phi takes such a rational too.  The good_reduction
flag is read off the residues of l and lambda modulo p.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm

from .characters import Character, character_of_order
from .curves import (
    CurveSpec, character_sum_count, cornacchia_3, curve_char_sum, good_reduction, points_at_infinity
)
from .field import DEFAULT_Q_CAP, Field, fits_cap, is_prime
from .hgf import series_value
from .report import VerificationReport, build_report, report_sort_key

SQRT_BRANCHES = ("first", "second")
SPECIAL_PARTS = ("i", "ii", "iii", "iv")
LEMMA_PARTS = ("square_3f2", "one_third", "sqrt_2f1", "order3_2f1")


def _phi(f: Field, r: Fraction | int) -> float:
    """The quadratic character of a rational r prime to p, as an exact sign."""
    return -1.0 if f.dlog(f.from_rational(r)) % 2 else 1.0


def _lambda_flags(f: Field, l: int, lam: Fraction) -> dict[str, bool]:
    return {"lambda_admissible": lam not in (0, -1), "good_reduction": good_reduction(f, l, lam)}


def _check_choice(value: str, allowed: tuple[str, ...], what: str) -> None:
    if value not in allowed:
        raise ValueError(f"unknown {what} {value!r}")


def _no_branch(tid: str, sqrt_branch: str) -> None:
    """Refuse a square-root branch other than "first" for an identity with none."""
    if sqrt_branch != "first":
        raise ValueError(f"{tid} has no square-root branch, got {sqrt_branch!r}")


def _sqrt_jacobi(f: Field, s: int, sqrt_branch: str) -> tuple[int, complex, complex]:
    """(r, J(phi, S), J(S^-2 R^-1, phi R^-1)) for the square character S =
    chi_s and R = chi_r a square root of S^-3; the "second" branch is the
    "first" root times phi."""
    h = f.m // 2
    r = (-3 * s) % f.m // 2
    if sqrt_branch == "second":
        r = (r + h) % f.m
    return r, f.jacobi_c(h, s), f.jacobi_c(-2 * s - r, h - r)


def _cubic_bracket(f: Field, s: int) -> complex:
    """(S | chi_3) + (S | chi_3^2) over the two order-3 characters; needs
    q = 1 (mod 3)."""
    m3 = f.m // 3
    return f.binom_c(s, m3) + f.binom_c(s, 2 * m3)


def _plus_infinity(f: Field, l: int, rhs: complex) -> complex:
    """rhs plus (the points at infinity - 1), the constant of every -a_q
    closed form; rhs itself when that is 0, so that no -0.0 moves."""
    extra = points_at_infinity(f, l) - 1
    return rhs + extra if extra else rhs


def _third_term(f: Field, k: int) -> complex:
    """chi(27/8) ((chi_3 | chi) + (chi_3^2 | chi)) for the index-k character
    chi, the summand of the lambda = 1/3 closed forms; needs q = 1 (mod 3)."""
    m3 = f.m // 3
    e278 = f.from_rational(Fraction(27, 8))
    return f.char_value(k, e278) * (f.binom_c(m3, k) + f.binom_c(2 * m3, k))


def _record(
    tid: str,
    f: Field,
    hyps: dict[str, bool],
    sides: Callable[[], tuple[complex, complex]],
    gate: tuple[str, ...] | None = None,
    **where,
) -> VerificationReport:
    """The one record of an identity instance on f.

    `sides()` gives (lhs, rhs).  It runs only when the flags named in `gate`
    hold, every flag by default, and both sides are 0 otherwise.  `where`
    holds the denominator d and the instance fields l, lam, char_index and
    sqrt_branch that apply, and goes to build_report as it is."""
    lhs = rhs = 0j
    if all(hyps[k] for k in (hyps if gate is None else gate)):
        lhs, rhs = sides()
    return build_report(
        theorem_id=tid, p=f.p, e=f.e, q=f.q, lhs=lhs, rhs=rhs, hypotheses=hyps, **where
    )


# ----------------------------------------------------------------------
# curve-trace identities


def verify_ono(f: Field, lam: Fraction | int) -> VerificationReport:
    """3F2(phi,phi,phi; eps,eps | (1+lambda)/lambda) against the squared
    trace of the quadratic member of the curve family."""
    lam = Fraction(lam)
    q, h = f.q, f.m // 2

    def sides():
        aq = character_sum_count(f, CurveSpec(2, lam)).a_q
        lhs = series_value(f, [h, h, h], [0, 0], f.from_rational((1 + lam) / lam))
        return lhs, _phi(f, -lam) * (aq * aq - q) / q**2

    return _record("ono_3f2", f, _lambda_flags(f, 2, lam), sides, d=q * q, l=2, lam=lam)


def verify_main_square(f: Field, l: int, lam: Fraction | int) -> VerificationReport:
    """a_q**2 against the 3F2((1+lambda)/lambda) double-sum expansion.

    The expansion applies Jacobi-ratio coefficients to order-l character
    powers S^i; the summand for a given i only makes sense when S^i stays
    clear of orders 3 and 4, which is recorded per i as a hypothesis flag.

    With W_i the sum over x of S^i((x-1)(x^2+lambda)), so a_q = -sum W_i,
    the i-th summand (its q^2 and q parts together) equals W_{l-i}^2.  For
    odd l the right side is therefore sum W_i^2 + (l-1)(q-1) - (l-3) a_q,
    and equals a_q^2 only if the cross terms W_i W_j (i != j) sum to
    (l-1)(q-1) - (l-3) a_q.  For even l the i-th tail term is W_{l-2i} / q,
    so the right side is sum W_i^2 + (l-2)(q-1) - (l-2) a_q - 2 sum W_{2i}.
    At l = 5, 7 and 10 they differ on every good instance with q <= 150,
    and those instances are reported as fail.  For l = 2 the expansion is
    the classical single-series identity and holds.
    """
    lam = Fraction(lam)
    m, q, h = f.m, f.q, f.m // 2
    u = m // l
    hyps = _lambda_flags(f, l, lam)
    hyps["congruence"] = m % l == 0
    hyps["l_not_divisible_by_12"] = l % 3 != 0 or l % 4 != 0
    # the per-summand flags only exist once l divides q-1
    if all(hyps.values()):
        for i in range(1, l):
            hyps[f"summand_{i}_order_not_3"] = (3 * i) % l != 0
            hyps[f"summand_{i}_order_not_4"] = (2 * i * u) % m != h
        for i in range(1, l // 2 if l % 2 == 0 else 1):
            hyps[f"tail_{i}_order_not_3"] = (6 * i) % l != 0

    def sides():
        aq = character_sum_count(f, CurveSpec(l, lam)).a_q
        one_plus = f.from_rational(1 + lam)
        arg = f.from_rational((1 + lam) / lam)
        c1 = f.from_rational(-4 * lam**3)
        c2 = f.from_rational(-4 * lam * (1 + lam) ** 2)
        phi_neg_lam = _phi(f, -lam)
        term1 = term2 = 0j
        for i in range(1, l):
            si = (i * u) % m
            jratio = f.jacobi_c(3 * si, -si) / f.jacobi_c(si, si)
            term1 += (
                jratio
                / f.char_value(si, c1)
                * series_value(f, [3 * si, si, 2 * si + h], [4 * si, 2 * si], arg)
            )
            term2 += phi_neg_lam * jratio / f.char_value(si, c2)
        rhs = q * q * term1 + q * term2
        if l % 2:
            rhs += (l - 1) * m - (l - 3) * aq
        else:
            tail = 0j
            for i in range(1, l // 2):
                si = (i * u) % m
                tail += (
                    f.jacobi_c(h, -2 * si)
                    / f.jacobi_c(si + h, -3 * si)
                    * series_value(f, [3 * si, 3 * si + h], [4 * si], one_plus)
                )
            rhs += (l - 2) * m - (l - 2) * aq - 2 * q * tail
        return aq * aq, rhs

    return _record("aq_square_3f2", f, hyps, sides, d=1, l=l, lam=lam)


def verify_2f1_trace(
    f: Field, l: int, lam: Fraction | int, sqrt_branch: str = "first"
) -> VerificationReport:
    """-a_q against the q-scaled sum of 2F1(1+lambda) values.

    For l coprime to 3 with (q-1)/l even the tops are square roots of
    character powers; both root branches are legal arguments and the one
    used is recorded.  For l = 3 the sum needs no square roots, and a branch
    other than "first" is a ValueError.  The right side carries the points
    at infinity - 1, which is 2 at l = 3.
    """
    lam = Fraction(lam)
    _check_choice(sqrt_branch, SQRT_BRANCHES, "square-root branch")
    m, q, h = f.m, f.q, f.m // 2
    u = m // l
    hyps = _lambda_flags(f, l, lam)
    hyps["congruence"] = m % l == 0
    if l == 3:
        _no_branch("trace_2f1_cubic", sqrt_branch)
        tid, where = "trace_2f1_cubic", {}
    else:
        tid, where = "trace_2f1", {"sqrt_branch": sqrt_branch}
        hyps["l_coprime_to_3"] = l % 3 != 0
        hyps["even_ratio"] = hyps["congruence"] and u % 2 == 0

    def sides():
        aq = character_sum_count(f, CurveSpec(l, lam)).a_q
        one_plus = f.from_rational(1 + lam)
        if l == 3:
            total = sum(series_value(f, [h, 0], [i * u], one_plus) for i in (1, 2))
        else:
            total = 0j
            for i in range(1, l):
                r, j_phi, j_root = _sqrt_jacobi(f, -i * u, sqrt_branch)
                total += j_phi / j_root * series_value(f, [r + h, r], [2 * i * u], one_plus)
        return -aq, _plus_infinity(f, l, q * total)

    return _record(tid, f, hyps, sides, d=1, l=l, lam=lam, **where)


def verify_lambda_third(f: Field, l: int) -> VerificationReport:
    """-a_q at lambda = 1/3 against the closed binomial-bracket evaluation
    q sum_i chi^i(27/8) ((chi_3 | chi^i) + (chi_3^2 | chi^i)) over the powers
    of the order-l character chi, plus the points at infinity - 1 (2 when
    3 | l and q = 1 mod 3, else 0); for q = 2 mod 3 the sum is 0."""
    lam = Fraction(1, 3)
    hyps = {"p_not_3": f.p != 3, "congruence": f.m % l == 0}

    def sides():
        q, m = f.q, f.m
        aq = character_sum_count(f, CurveSpec(l, lam)).a_q
        if q % 3 == 2:  # one point at infinity
            return -aq, 0j
        return -aq, _plus_infinity(f, l, q * sum(_third_term(f, i * (m // l)) for i in range(1, l)))

    return _record("lambda_third", f, hyps, sides, d=1, l=l, lam=lam)


def verify_mccarthy(f: Field) -> list[VerificationReport]:
    """Both closed forms for the trace of the quadratic curve at lambda=1/3:
    one through a single binomial coefficient, one through Gauss sums.

    The Gauss-sum form carries an extra phi(-1) factor relative to the
    binomial form; dropping it breaks every q = 3 (mod 4) instance.
    """
    lam = Fraction(1, 3)
    hyps = {"congruence": f.q % 3 == 1}
    q, m3, h = f.q, f.m // 3, f.m // 2

    @cache
    def both():
        aq = character_sum_count(f, CurveSpec(2, lam)).a_q
        lhs2 = -_phi(f, -2) * aq
        quotient = f.gauss_c(m3) * f.gauss_c(h) / f.gauss_c(m3 + h)
        return (lhs2 / q, 2 * f.binom_c(m3, h).real), (lhs2, 2 * _phi(f, -1) * quotient.real)

    where = {"l": 2, "lam": lam}
    return [
        _record("mccarthy_binomial", f, dict(hyps), lambda: both()[0], d=q, **where),
        _record("mccarthy_gauss", f, dict(hyps), lambda: both()[1], d=1, **where),
    ]


# ----------------------------------------------------------------------
# special series values


def verify_3f2_at_4(chi: Character) -> VerificationReport:
    """3F2 at argument 4 for a character avoiding orders 1, 3, 4.

    Sides are evaluated for every character when computable so that
    boundary orders produce recorded data; the order restriction only
    drives the skip status.
    """
    f, s = chi.field, chi.index
    hyps = {"order_admissible": chi.order not in (1, 3, 4), "p_not_3": f.p != 3}

    def sides():
        q, h = f.q, f.m // 2
        lhs = series_value(f, [-3 * s, -s, -2 * s + h], [-4 * s, -2 * s], f.from_rational(4))
        base = -_phi(f, -3) * f.char_value(s, f.from_rational(16)) / q
        if q % 3 != 1:
            return lhs, base
        bracket = _cubic_bracket(f, s)
        c = f.char_value(s, f.from_rational(Fraction(-16, 27)))
        return lhs, c * f.jacobi_c(-s, -s) / f.jacobi_c(-3 * s, s) * bracket * bracket + base

    return _record("3f2_at_4", f, hyps, sides, gate=("p_not_3",), char_index=s)


def verify_2f1_specials(
    chi: Character, part: str, sqrt_branch: str = "first"
) -> VerificationReport:
    """The four 2F1 special values at arguments 4/3, -1/3, 4 and 1/4 for a
    square character.

    All square roots are tied to the chosen branch r of sqrt(S**-3): the
    roots of S**-1, S**3 and S that appear move together with r.  Both
    branches are legal and recorded separately.  Orders 1 and 3 are flagged
    out because the transformation behind the identities excludes them; the
    sides are still evaluated and reported for those orders.
    """
    _check_choice(part, SPECIAL_PARTS, "special-value part")
    _check_choice(sqrt_branch, SQRT_BRANCHES, "square-root branch")
    f, s = chi.field, chi.index
    hyps = {
        "is_square": s % 2 == 0,
        "order_not_1": s != 0,
        "order_not_3": chi.order != 3,
        "p_not_3": f.p != 3,
    }

    def sides():
        q, m, h = f.q, f.m, f.m // 2
        r, j_phi, j_root = _sqrt_jacobi(f, s, sqrt_branch)
        root_inv = (-2 * s - r) % m  # square root of the inverse character
        v = (-r - s) % m  # the square root of S itself on this branch
        jratio = j_root / j_phi
        bracket = _cubic_bracket(f, s) if q % 3 == 1 else 0j
        if part == "i":
            lhs = series_value(f, [r + h, r], [-2 * s], f.from_rational(Fraction(4, 3)))
            coeff = f.char_value(s, f.from_rational(Fraction(8, 27))) * jratio
        elif part == "ii":
            lhs = series_value(f, [r + h, r], [h - s], f.from_rational(Fraction(-1, 3)))
            branch_sign = -1.0 if (v + h) % 2 else 1.0  # (sqrt(S) phi)(-1)
            coeff = f.char_value(s, f.from_rational(Fraction(8, 27))) * jratio / branch_sign
        elif part == "iii":
            lhs = series_value(f, [r + h, root_inv], [-2 * s], f.from_rational(4))
            c = f.char_value(v, f.from_rational(Fraction(-64, 27)))
            coeff = c * jratio / _phi(f, -3)
        else:
            lhs = series_value(f, [r + h, v + h], [h - s], f.from_rational(Fraction(1, 4)))
            c = f.char_value(v, f.from_rational(Fraction(-1, 27)))
            coeff = c * jratio / _phi(f, 3)
        return lhs, coeff * bracket

    gate = ("is_square", "p_not_3")
    where = {"char_index": s, "sqrt_branch": sqrt_branch}
    return _record(f"2f1_special_{part}", f, hyps, sides, gate=gate, **where)


# ----------------------------------------------------------------------
# corollaries


def verify_corollary_c3(f: Field) -> list[VerificationReport]:
    """Prime-field cubic member at lambda = -1/2: the trace against the
    x**2 + 3y**2 = p representation, and the matching 2F1(1/2) sum."""
    if f.e != 1:
        raise ValueError(f"the cubic corollary needs a prime field, got q = {f.q}")
    p = f.p
    lam = Fraction(-1, 2)
    hyps = {"congruence": p % 3 == 1}

    @cache
    def both():
        x, y = cornacchia_3(p)
        sym = 1 if x % 3 == 1 else -1
        aq = character_sum_count(f, CurveSpec(3, lam)).a_q
        phi2 = _phi(f, 2)
        predicted = phi2 * (-1.0 if (x + y - 1) % 2 else 1.0) * sym * 2 * x
        m3, h = f.m // 3, f.m // 2
        half = f.from_rational(Fraction(1, 2))
        lhs2 = p * (
            series_value(f, [h, 0], [m3], half) + series_value(f, [h, 0], [2 * m3], half)
        )
        infinity = points_at_infinity(f, 3)  # 3, as p = 1 (mod 3)
        rhs2 = phi2 * (-1.0 if (x + y) % 2 else 1.0) * sym * 2 * x - (infinity - 1)
        return (aq, predicted), (lhs2, rhs2)

    return [
        _record("c3_point_count", f, dict(hyps), lambda: both()[0], d=1, l=3, lam=lam),
        _record("c3_2f1_sum", f, dict(hyps), lambda: both()[1], d=1, l=3, lam=lam),
    ]


def verify_corollary_chi4(f: Field, lam: Fraction | int) -> VerificationReport:
    """The 3F2((1+lambda)/lambda) value as a squared 2F1(1+lambda) with an
    order-4 character, available when q = 1 (mod 4)."""
    lam = Fraction(lam)
    hyps = {"congruence_mod_4": f.m % 4 == 0}
    hyps.update(_lambda_flags(f, 2, lam))
    q, h, m4 = f.q, f.m // 2, f.m // 4

    def sides():
        lhs = series_value(f, [h, h, h], [0, 0], f.from_rational((1 + lam) / lam))
        inner = series_value(f, [-m4, m4], [0], f.from_rational(1 + lam))
        sign = _phi(f, lam)
        return lhs, sign * inner * inner - sign / q

    # the order-4 character exists whenever q = 1 (mod 4), whatever lambda is
    chi4 = m4 if hyps["congruence_mod_4"] else None
    return _record("chi4_square", f, hyps, sides, lam=lam, char_index=chi4)


def verify_corollary_lcm(f: Field, l: int) -> VerificationReport:
    """-a_q at lambda = 1/3 via real parts of binomial brackets, under the
    congruence q = 1 (mod lcm(3, l)); branches on odd / even l.  The right
    side carries the points at infinity - 1, which is 2 when 3 | l."""
    lam = Fraction(1, 3)
    hyps = {"congruence_mod_lcm": f.m % lcm(3, l) == 0, "p_not_3": f.p != 3}

    def sides():
        q, m, h = f.q, f.m, f.m // 2
        m3, u = m // 3, m // l
        aq = character_sum_count(f, CurveSpec(l, lam)).a_q
        # i up to (l-1)/2 for odd l and (l-2)/2 for even l
        terms = sum(_third_term(f, i * u).real for i in range(1, (l - 1) // 2 + 1))
        if l % 2:
            return -aq, _plus_infinity(f, l, 2 * q * terms)
        return -aq, _plus_infinity(f, l, 2 * q * (_phi(f, -2) * f.binom_c(m3, h).real + terms))

    return _record("lcm_third_trace", f, hyps, sides, d=1, l=l, lam=lam)


# ----------------------------------------------------------------------
# the character-sum building blocks behind the theorems


def verify_charsum_lemmas(
    chi: Character, lam: Fraction | int, part: str, sqrt_branch: str = "first"
) -> VerificationReport:
    """The four evaluations of W(S) = sum of S((x-1)(x**2+lambda)), S = chi.

    Parts: "square_3f2" expresses a 3F2((1+lambda)/lambda) through W**2;
    "one_third" closes W at lambda = 1/3 (any nontrivial S); "sqrt_2f1"
    rewrites W as a 2F1(1+lambda) for square S away from order 3; and
    "order3_2f1" does the same for order-3 S with trivial-top series.
    The candidate argument 1+lambda is used for "order3_2f1" whose source
    leaves the argument implicit.  Only "sqrt_2f1" has a square-root
    branch, and "one_third" holds at lambda = 1/3 alone: another branch or
    lambda there is a ValueError, not dropped.
    """
    _check_choice(part, LEMMA_PARTS, "lemma part")
    _check_choice(sqrt_branch, SQRT_BRANCHES, "square-root branch")
    if part != "sqrt_2f1":
        _no_branch(f"charsum_{part}", sqrt_branch)
    lam = Fraction(lam)
    if part == "one_third" and lam != Fraction(1, 3):
        raise ValueError(f"charsum_one_third holds at lambda = 1/3 only, got {lam}")
    f, s = chi.field, chi.index
    q, h = f.q, f.m // 2
    where = {"lam": lam, "char_index": s}
    if part == "one_third":
        hyps = {"nontrivial_character": s != 0, "p_not_3": f.p != 3}

        def sides():
            lhs = curve_char_sum(f, s, f.from_rational(lam))
            if q % 3 == 2:
                return lhs, 0j
            c = f.from_rational(Fraction(-8, 27))
            return lhs, q * f.char_value(s, c) * _cubic_bracket(f, s)

    elif part == "square_3f2":
        hyps = {"order_not_1": s != 0, "order_not_3": chi.order != 3, "order_not_4": chi.order != 4}
        hyps.update(_lambda_flags(f, 2, lam))

        def sides():
            arg = f.from_rational((1 + lam) / lam)
            w = curve_char_sum(f, s, f.from_rational(lam))
            lhs = series_value(f, [-3 * s, -s, -2 * s + h], [-4 * s, -2 * s], arg)
            c1 = f.from_rational(-4 * lam**3)
            coeff = f.jacobi_c(-s, -s) / (q * q * f.char_value(s, c1) * f.jacobi_c(-3 * s, s))
            return lhs, coeff * w * w - f.char_value(2 * s, arg) * _phi(f, -lam) / q

    elif part == "sqrt_2f1":
        hyps = {"is_square": s % 2 == 0, "order_not_1": s != 0, "order_not_3": chi.order != 3}
        hyps.update(_lambda_flags(f, 2, lam))
        where["sqrt_branch"] = sqrt_branch

        def sides():
            r, j_phi, j_root = _sqrt_jacobi(f, s, sqrt_branch)
            lhs = curve_char_sum(f, s, f.from_rational(lam))
            one_plus = f.from_rational(1 + lam)
            return lhs, q * j_phi / j_root * series_value(f, [r + h, r], [-2 * s], one_plus)

    else:
        hyps = {"order_3": chi.order == 3}
        hyps.update(_lambda_flags(f, 2, lam))

        def sides():
            w = curve_char_sum(f, s, f.from_rational(lam))
            return w, q * series_value(f, [h, 0], [s], f.from_rational(1 + lam))

    return _record(f"charsum_{part}", f, hyps, sides, **where)


# ----------------------------------------------------------------------
# the theorem catalog and the sweep


def _characters(f: Field, c: SweepConfig) -> list[Character]:
    """The canonical character of each configured order l dividing q-1."""
    return [character_of_order(f, l) for l in c.l_values if f.m % l == 0]


# Theorem key -> the records it yields on one field under a SweepConfig.
# Rows name the verifiers through this module's globals, looked up at call
# time, so a rebinding of a verify_* name reaches the sweep as well.
# The keys are in the order of the theorem ids they yield, and no id comes
# from two keys, so the rows sorted one by one and taken in this order are
# the field's records sorted by report_sort_key: row_blocks relies on it.
CATALOG = {
    "specials": lambda f, c: [
        verify_2f1_specials(chi, part, branch)
        for chi in _characters(f, c)
        for part in SPECIAL_PARTS
        for branch in SQRT_BRANCHES
    ],
    "3f2at4": lambda f, c: [verify_3f2_at_4(chi) for chi in _characters(f, c)],
    "main": lambda f, c: [
        verify_main_square(f, l, lam) for l in c.l_values for lam in c.lambdas
    ],
    "c3": lambda f, c: verify_corollary_c3(f) if f.e == 1 else [],
    "charsum_lemmas": lambda f, c: [
        verify_charsum_lemmas(chi, lam, part, branch)
        for chi in _characters(f, c)
        for part, lams, branches in (
            ("square_3f2", c.lambdas, SQRT_BRANCHES[:1]),
            ("one_third", (Fraction(1, 3),), SQRT_BRANCHES[:1]),
            ("sqrt_2f1", c.lambdas, SQRT_BRANCHES),
            ("order3_2f1", c.lambdas if chi.order == 3 else (), SQRT_BRANCHES[:1]),
        )
        for lam in lams
        for branch in branches
    ],
    "chi4": lambda f, c: [verify_corollary_chi4(f, lam) for lam in c.lambdas],
    "lambda_third": lambda f, c: [verify_lambda_third(f, l) for l in c.l_values],
    "lcm": lambda f, c: [verify_corollary_lcm(f, l) for l in c.l_values],
    "mccarthy": lambda f, c: verify_mccarthy(f),
    "ono": lambda f, c: [verify_ono(f, lam) for lam in c.lambdas],
    "trace": lambda f, c: [
        verify_2f1_trace(f, l, lam, branch)
        for l in c.l_values
        for lam in c.lambdas
        for branch in (SQRT_BRANCHES[:1] if l == 3 else SQRT_BRANCHES)
    ],
}
THEOREM_KEYS = tuple(CATALOG)


@dataclass
class SweepConfig:
    """A sweep's grid; its q_cap, from 3 to DEFAULT_Q_CAP, can only lower that cap."""

    prime_min: int = 5
    prime_max: int = 13
    degrees: tuple[int, ...] = (1, 2)
    l_values: tuple[int, ...] = (2, 3, 4, 5)
    lambdas: tuple[Fraction, ...] = (
        Fraction(1),
        Fraction(2),
        Fraction(1, 3),
        Fraction(-1, 2),
        Fraction(3, 2),
    )
    theorems: tuple[str, ...] = ("all",)
    q_cap: int = 2000

    def __post_init__(self):
        if self.prime_min > self.prime_max:
            raise ValueError("prime_min must not exceed prime_max")
        if not 3 <= self.q_cap <= DEFAULT_Q_CAP:
            raise ValueError(f"q_cap must be from 3 to {DEFAULT_Q_CAP}, got {self.q_cap}")
        if not self.theorems:
            raise ValueError("no theorem key given")
        for name in self.theorems:
            if name != "all" and name not in THEOREM_KEYS:
                raise ValueError(f"unknown theorem key {name!r}")
        if any(l < 2 for l in self.l_values):
            raise ValueError(f"every exponent l must be at least 2, got {self.l_values}")
        if any(e < 1 for e in self.degrees):
            raise ValueError(f"every extension degree must be at least 1, got {self.degrees}")
        self.lambdas = tuple(Fraction(x) for x in self.lambdas)
        # a repeated l or lambda would repeat records, a repeated degree a field
        repeatable = (("l", self.l_values), ("lambda", self.lambdas), ("degree", self.degrees))
        for what, values in repeatable:
            if len(set(values)) < len(values):
                raise ValueError(f"repeated {what} value in {', '.join(map(str, values))}")


def _odd_primes(lo: int, hi: int) -> Iterator[int]:
    """The odd primes in [lo, hi] in increasing order, each tested when asked for."""
    return (n for n in range(max(lo, 3) | 1, hi + 1, 2) if is_prime(n))


def row_blocks(config: SweepConfig) -> Iterator[list[VerificationReport]]:
    """The records of the selected catalog rows, one list per (field, row):
    fields of the grid in increasing q, rows in CATALOG order, each list
    sorted by report_sort_key.  Taken in order, the lists are the sweep's
    records sorted by report_sort_key.

    The grid is checked by the call itself, before any field is built: a
    prime range with no odd prime gives no fields; one whose fields all
    exceed q_cap is an error.  Primes above q_cap have no field under it, so
    the scan stops there.  Each field (q <= q_cap <= DEFAULT_Q_CAP) is built
    only when its first list is asked for, each row only when its list is."""
    keys = [k for k in THEOREM_KEYS if "all" in config.theorems or k in config.theorems]
    lo, hi, cap = config.prime_min, config.prime_max, config.q_cap
    primes = _odd_primes(lo, min(hi, cap))
    grid = sorted((p**e, p, e) for p in primes for e in config.degrees if fits_cap(p, e, cap))
    # any() stops at the first odd prime at or above lo; prime gaps are small.
    if not grid and any(_odd_primes(lo, hi)):
        raise ValueError(f"no field of the grid has q = p^e <= q_cap = {config.q_cap}")
    fields = (Field(p, e) for _, p, e in grid)
    return (
        sorted(CATALOG[key](f, config), key=report_sort_key) for f in fields for key in keys
    )


def sweep(config: SweepConfig) -> list[VerificationReport]:
    """Every record of row_blocks, in its order: increasing q, then
    report_sort_key within a field."""
    return list(chain.from_iterable(row_blocks(config)))
