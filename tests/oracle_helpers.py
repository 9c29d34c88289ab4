"""Reference implementations used to cross-check the package.

The naive prime-field oracles, which import nothing from the package, are
in `naive_oracles`.  `weil_predict` reads no field at all: it predicts the
traces of a curve over F_{p^e} from those over F_p, ..., F_{p^g}, in
integers.

The oracles after it take a package `Field` of any degree: the loop
oracles sum its scalar binomials over k one at a time,
`curve_values_by_field_ops` evaluates the curve polynomial at every x by
scalar field ops, `binom_row` builds a whole binomial row from Jacobi
weights by bincount and inverse FFT, and `scalar_field_tables` rebuilds
its exp, dlog and trace tables one power of the generator at a time.
Greene's exact character sums are here too, since no command of the
package reads them: `CyclotomicSum` holds a sum of roots of unity as
integer counts, and `jacobi_sum`, `gauss_sum` and `g_sum` give one sum
each in that form, independent of the field's Gauss-sum table.
With them are the small helpers that only the tests call: `hgf_2f1`,
`evans_F_star`, `sqrt_character`, `delta_char`, `genus`,
`hasse_weil_bound` and `summarize`.

The every-element oracles at the end take a package `Field` too and
return one value per element encoding: `series_every_x` a series at every
argument, `greene_transform_sides` both sides of Greene's two 2F1
argument transformations, `curve_char_sums_all_lambda` a curve character
sum W_s at every lambda, `affine_counts_all_lambda` the affine point count
of the curve at every lambda, and `ono_3f2_every_lambda`,
`aq_square_every_lambda`, `trace_cubic_every_lambda`,
`trace_2f1_every_lambda`, `chi4_square_every_lambda` and
`charsum_every_lambda` both sides of Ono's 3F2 evaluation, of the
squared-trace expansion, of the cubic and square-root trace identities,
of the chi_4 corollary and of the three lambda-valued character-sum
lemmas at every admissible lambda.
"""

from dataclasses import dataclass
from math import gcd

import numpy as np

from hgfq.characters import Character, same_field
from hgfq.hgf import evans_F, series_value


def weil_predict(traces, p: int, g: int, e_max: int) -> dict[int, int]:
    """a_{p^e} for g < e <= e_max from traces = [a_p, ..., a_{p^g}] of a
    genus-g curve with good reduction at p.

    a_{p^e} is the e-th power sum s_e of the 2g inverse roots of the
    L-polynomial L(T) = 1 + c_1 T + ... + c_{2g} T^{2g}, and Newton's
    identities k c_k = -(s_k + c_1 s_{k-1} + ... + c_{k-1} s_1) give c_1,
    ..., c_g.  The functional equation c_{2g-i} = p^{g-i} c_i gives the rest,
    and Newton's identities then give every s_e.  For g = 1 that is
    a_{p^2} = a_p^2 - 2p.  Traces that fit no such polynomial raise
    ValueError.
    """
    if len(traces) != g:
        raise ValueError(f"need the {g} traces a_p, ..., a_(p^{g})")
    s = [0, *map(int, traces)]
    c = [1]
    for k in range(1, g + 1):
        ck, rem = divmod(-sum(c[i] * s[k - i] for i in range(k)), k)
        if rem:
            raise ValueError(f"the traces {traces} fit no L-polynomial at p = {p}")
        c.append(ck)
    c += [p ** (i - g) * c[2 * g - i] for i in range(g + 1, 2 * g + 1)]
    c += [0] * max(0, e_max - 2 * g)
    for k in range(g + 1, e_max + 1):
        s.append(-k * c[k] - sum(c[i] * s[k - i] for i in range(1, k)))
    return {e: s[e] for e in range(g + 1, e_max + 1)}


def series_loop(field, tops, bottoms, x: int) -> complex:
    """The (n+1)F_n series as a Python loop over k of scalar `field.binom_c` products."""
    if x == 0:
        return 0j
    m = field.m
    dx = field.dlog(x)
    total = 0j
    for k in range(m):
        term = field.binom_c(tops[0] + k, k)
        for t, b in zip(tops[1:], bottoms):
            term *= field.binom_c(t + k, b + k)
        total += term * field.zeta[(k * dx) % m]
    return total * field.q / m


def evans_F_loop(field, a: int, b: int, x: int) -> complex:
    """F(A, B; x) as a Python loop over k of scalar `field.binom_c` products."""
    x4 = field.div(x, field.from_rational(4))
    if x4 == 0:
        return 0j
    m = field.m
    d = field.dlog(x4)
    total = 0j
    for k in range(m):
        term = field.binom_c(a + 2 * k, k) * field.binom_c(a + k, b + k)
        total += term * field.zeta[(k * d) % m]
    return total * field.q / m


def trace_frobenius(field) -> list[int]:
    """Tr(x) = x + x**p + ... + x**(p**(e-1)) for every encoding x, by scalar field ops."""
    out = []
    for x in range(field.q):
        s = 0
        for i in range(field.e):
            s = field.add(s, field.pow(x, field.p**i))
        out.append(s)
    return out


def curve_values_by_field_ops(field, lam: int) -> list[int]:
    """(x-1)(x**2 + lambda) for every encoding x, by scalar field ops.

    The oracle for `curves.curve_values`, which reads residues mod p on a
    prime field and runs this same loop only when e > 1."""
    out = []
    for x in range(field.q):
        out.append(field.mul(field.sub(x, 1), field.add(field.mul(x, x), lam)))
    return out


def binom_row(field, t, b, s):
    """The row k -> (chi_{t+sk} | chi_{b+k}), a complex (q-1)-vector.

    With v = 1/(x-1), (chi_{t+sk} | chi_{b+k}) = 1/q * sum over x of
    zeta^(t dlog x + b dlog v + k (s dlog x + dlog v)): one inverse DFT
    of the weights bucketed by s dlog x + dlog v.  The oracle for
    `Field.binom_row(t, b)` at s = 1 and for `hgf.evans_row(a)` at
    (a, 0, 2): it shares nothing with the field's Gauss-sum table but the
    dlog and zeta tables.
    """
    m = field.m
    t, b, s = int(t) % m, int(b) % m, int(s) % m
    jx = np.arange(1, m, dtype=np.int64)  # x = g^jx runs over F_q minus {0, 1}
    lv = (m // 2 - field.log_one_minus[1:]) % m  # 1/(x-1) = -1/(1-x)
    w = field.zeta.take((t * jx + b * lv) % m)
    bins = (s * jx + lv) % m
    spectrum = np.empty(m, dtype=complex)
    spectrum.real = np.bincount(bins, w.real, m)
    spectrum.imag = np.bincount(bins, w.imag, m)
    row = np.fft.ifft(spectrum)
    row *= m / field.q
    return row


def _poly_mul_mod(a, b, tail, p):
    """a b modulo x^e + tail(x) over F_p, for digit lists of length e, low to high."""
    e = len(tail)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(2 * e - 2, e - 1, -1):
        c, prod[k] = prod[k], 0
        if c:
            for j, tj in enumerate(tail):
                prod[k - e + j] = (prod[k - e + j] - c * tj) % p
    return prod[:e]


def scalar_field_tables(field):
    """(exp, dlog, trace) of a package `Field` by one scalar pass over the powers of its generator.

    The oracle for `Field._build_tables`: it reads only p, e, the modulus
    and the generator.  dlog[0] is -1.  The trace is F_p-linear, so it is
    the sum over j of digit_j(x) Tr(x^j), each Tr(x^j) a Frobenius sum.
    """
    p, e, q, m, tail = field.p, field.e, field.q, field.m, field._tail
    places = [p**j for j in range(e)]

    def digits(n):
        return [n // v % p for v in places]

    def encode(ds):
        return sum(c * v for c, v in zip(ds, places))

    exp, dlog = [0] * m, [-1] * q
    gen, cur = digits(field.generator), digits(1)
    for k in range(m):
        exp[k] = n = encode(cur)
        dlog[n] = k
        cur = _poly_mul_mod(cur, gen, tail, p)
    basis = []
    for j in range(e):
        frobenius = [digits(exp[dlog[places[j]] * p**i % m]) for i in range(e)]
        s = [sum(col) % p for col in zip(*frobenius)]
        assert not any(s[1:]), "trace outside the prime subfield"
        basis.append(s[0])
    trace = [sum(c * t for c, t in zip(digits(x), basis)) % p for x in range(q)]
    return exp, dlog, trace


@dataclass(frozen=True)
class CyclotomicSum:
    """Exact sum of counts[i] * zeta_order**exponents[i] over distinct increasing exponents."""

    order: int
    exponents: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_counts(cls, order: int, dense: np.ndarray) -> "CyclotomicSum":
        """The sum with dense[t] copies of zeta_order**t."""
        exponents = np.flatnonzero(dense)
        return cls(order, exponents, dense[exponents].astype(np.int64))

    def to_complex(self) -> complex:
        phases = np.exp(2j * np.pi * self.exponents / self.order)
        return complex(self.counts @ phases)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclotomicSum)
            and self.order == other.order
            and np.array_equal(self.exponents, other.exponents)
            and np.array_equal(self.counts, other.counts)
        )


def jacobi_sum(a: Character, b: Character) -> CyclotomicSum:
    """J(A, B) = sum over x of A(x) B(1-x), as exact root-of-unity counts."""
    field = same_field(a, b)
    return CyclotomicSum.from_counts(field.m, field.jacobi_counts(a.index, b.index))


def gauss_sum(chi: Character) -> CyclotomicSum:
    """G(chi) = sum over x of chi(x) zeta_p**trace(x), with x = g^t for t in [0, q-1).

    Exponents are composed over roots of unity of order (q-1)*p, which is
    lcm(q-1, p) since p never divides q-1.
    """
    field = chi.field
    m, p = field.m, field.p
    order = m * p
    t = np.arange(m, dtype=np.int64) * (chi.index % m) % m
    t = (p * t + m * field._trace_pow) % order
    exponents, counts = np.unique(t, return_counts=True)
    return CyclotomicSum(order, exponents, counts.astype(np.int64))


def g_sum(a: Character, b: Character, x: int) -> CyclotomicSum:
    """g(A, B; x) = sum over t of A(1-t) B(1-x*t^2).

    t = 0 gives 1 and t = 1 gives 0; every other t is g^s for s in [1, q-1),
    read off the field's table Z[s] = dlog(1 - g^s), also at s = dlog(x t^2).
    """
    field = same_field(a, b)
    field.check(x)
    m = field.m
    z = field.log_one_minus
    exps = a.index % m * z[1:]
    if x != 0:
        k = (field.dlog(x) + 2 * np.arange(1, m, dtype=np.int64)) % m  # dlog(x t^2)
        exps = (exps + b.index % m * z[k])[k != 0]  # k = 0: 1 - x t^2 is 0
    counts = np.bincount(exps % m, minlength=m)
    counts[0] += 1  # t = 0
    return CyclotomicSum.from_counts(m, counts)


def g_sum_c(a: Character, b: Character, x: int) -> complex:
    return g_sum(a, b, x).to_complex()


def hgf_2f1(a: Character, b: Character, c: Character, x: int) -> complex:
    return series_value(same_field(a, b, c), [a.index, b.index], [c.index], x)


def evans_F_star(a: Character, b: Character, x: int) -> complex:
    """F(A, B; x) plus A B(-1) Abar(x/4) / q; both terms vanish at x = 0."""
    field = a.field
    f = evans_F(a, b, x)
    if x == 0:
        return f
    x4 = field.div(x, field.from_rational(4))
    ab_sign = -1.0 if (a.index + b.index) % 2 else 1.0
    return f + ab_sign * field.char_value(-a.index, x4) / field.q


def sqrt_character(chi: Character) -> tuple[Character, Character] | None:
    """The two square roots of chi when its index is even, else None."""
    if chi.index % 2:
        return None
    half = chi.index // 2
    return (
        Character(chi.field, half),
        Character(chi.field, half + chi.field.m // 2),
    )


def delta_char(chi: Character) -> int:
    """1 on the trivial character, 0 otherwise."""
    return 1 if chi.index == 0 else 0


def genus(l: int) -> int:
    """Genus of the smooth projective model; a standard superelliptic
    formula for a squarefree cubic, external to the identities themselves."""
    return ((l - 1) * 2 - gcd(l, 3) + 1) // 2


def hasse_weil_bound(l: int, q: int) -> float:
    return 2 * genus(l) * q**0.5


def summarize(reports) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "skip": 0}
    for r in reports:
        out[r.status] += 1
    return out


def series_every_x(field, tops, bottoms):
    """The (n+1)F_n series at every element encoding x, a complex q-vector.

    With P the product of the rows k -> (chi_{t+k} | chi_{b+k}) of
    `Field.binom_row` for t, b in zip(tops, [0, *bottoms]), the series at
    x != 0 is q/(q-1) times the sum over k of P[k] zeta^(k dlog x), which is
    q * ifft(P)[dlog x]: one inverse DFT gives every x.  The entry at x = 0
    is 0, as `series_value` gives there.
    """
    product = np.ones(field.m, dtype=complex)
    for t, b in zip(tops, [0, *bottoms]):
        product *= field.binom_row(t, b)
    values = field.q * np.fft.ifft(product)[np.array(field._dlog)]
    values[0] = 0
    return values


def greene_transform_sides(field, series, a, b, c):
    """{variant: (lhs, rhs)} for Greene's two 2F1 argument transformations,
    each side a complex q-vector over the element encodings x.

    `series[a, b, c]` is 2F1(A, B; C | x) at every x, from `series_every_x`.
    Variant "i" rewrites the series at 1 - x with bottom A B / C, plus delta
    terms at x = 1 and x = 0; variant "ii" rewrites it at x/(x-1) with the
    prefactor C(-1) Abar(1-x), whose first term is 0 at x = 1, plus a delta
    term at x = 1 (Greene 1987).
    """
    m, q = field.m, field.q
    x = np.arange(q)
    one_minus = np.array([field.sub(1, v) for v in range(q)])
    ratio = np.array([field.div(v, field.sub(v, 1)) if v != 1 else 0 for v in range(q)])
    abar = np.array([field.char_value(-a, v) for v in one_minus])
    a_sign = -1.0 if a % 2 else 1.0
    c_sign = -1.0 if c % 2 else 1.0
    at_one = a_sign * field.binom_c(b, c - a) * (x == 1)
    lhs = series[a, b, c]
    rhs_i = a_sign * series[a, b, (a + b - c) % m][one_minus] + at_one
    rhs_i -= field.binom_c(b, c) * (x == 0)
    first_ii = np.where(x == 1, 0j, c_sign * abar * series[a, (c - b) % m, c][ratio])
    return {"i": (lhs, rhs_i), "ii": (lhs, first_ii + at_one)}


def curve_char_sums_all_lambda(field, s):
    """W_s(lambda) = sum over x of chi_s((x-1)(x^2 + lambda)) at every
    lambda in F_q, a complex q-vector over the encodings of lambda.

    With c_s[u] the sum of chi_s(x-1) over the x with x^2 = u, W_s(lambda)
    = sum over u of c_s[u] chi_s(u + lambda): a correlation on the additive
    group (Z/p)^e, so one `fftn` over the encodings reshaped to (p,)*e gives
    every lambda.  It shares only the exp and dlog tables with
    `curves.curve_histogram`.
    """
    p, q, m = field.p, field.q, field.m
    shape = (p,) * field.e
    dlog = np.array(field._dlog)  # -1 at 0
    x = np.arange(q)
    x_minus_1 = x - x % p + (x - 1) % p  # only the low digit moves
    x_squared = np.zeros(q, dtype=np.int64)
    x_squared[1:] = np.array(field._exp)[2 * dlog[1:] % m]
    chi = np.where(x == 0, 0j, field.zeta[s * dlog % m])
    w = chi[x_minus_1]
    c = np.bincount(x_squared, w.real, q) + 1j * np.bincount(x_squared, w.imag, q)
    spectrum = q * np.fft.ifftn(c.reshape(shape)) * np.fft.fftn(chi.reshape(shape))
    return np.fft.ifftn(spectrum).reshape(q)


def affine_counts_all_lambda(field, l):
    """The affine points on y^l = (x-1)(x^2 + lambda) at every lambda in
    F_q, an integer q-vector over the encodings of lambda.

    With g = gcd(l, q-1), the count is q plus W_s(lambda) summed over the
    g - 1 nontrivial characters chi_s of order dividing g, each W_s from
    `curve_char_sums_all_lambda`.
    """
    q, m = field.q, field.m
    g = gcd(l, m)
    total = np.zeros(q)
    for s in range(m // g, m, m // g):
        total += curve_char_sums_all_lambda(field, s).real
    return q + np.rint(total).astype(np.int64)


def _admissible_lambdas(field):
    """(lambda, lambda + 1) as encoding arrays over the lambdas with lambda (lambda + 1) != 0."""
    lam = np.arange(1, field.q)
    lam_plus_1 = lam - lam % field.p + (lam + 1) % field.p
    keep = lam_plus_1 != 0
    return lam[keep], lam_plus_1[keep]


def ono_3f2_every_lambda(field):
    """(lambdas, lhs, rhs) for Ono's evaluation q^2 3F2(phi, phi, phi; eps,
    eps | (1+lambda)/lambda) = phi(-lambda)(a_q^2 - q) at every lambda with
    lambda (lambda + 1) != 0, as arrays over those lambdas.

    lhs is q^2 times `series_every_x` at (1+lambda)/lambda, a complex
    vector; rhs is an integer vector, with a_q = q - affine from
    `affine_counts_all_lambda` at l = 2 (one point at infinity).
    """
    q, m, h = field.q, field.m, field.m // 2
    dlog = np.array(field._dlog)
    lam, lam_plus_1 = _admissible_lambdas(field)
    arg = np.array(field._exp)[(dlog[lam_plus_1] - dlog[lam]) % m]
    lhs = q * q * series_every_x(field, [h, h, h], [0, 0])[arg]
    a_q = q - affine_counts_all_lambda(field, 2)[lam]
    phi_neg_lam = np.where((dlog[lam] + h) % 2, -1, 1)  # -1 = g^h
    return lam, lhs, phi_neg_lam * (a_q * a_q - q)


def aq_square_every_lambda(field, l):
    """(lambdas, a_q^2, rhs) for the squared-trace expansion that
    `verifier.verify_main_square` evaluates, at every lambda with
    lambda (lambda + 1) != 0, as arrays over those lambdas.

    With S the character of index u = (q-1)/l, of order l, and
    R_i = J(S^3i, S^-i) / J(S^i, S^i), rhs is
    q^2 sum_i R_i Sbar^i(-4 lambda^3) 3F2(S^3i, S^i, S^2i phi; S^4i, S^2i |
    (1+lambda)/lambda) + q phi(-lambda) sum_i R_i Sbar^i(-4 lambda (1+lambda)^2)
    over 1 <= i < l, plus (l-1)(q-1) - (l-3) a_q for odd l and, for even l,
    (l-2)(q-1) - (l-2) a_q - 2q times the tail
    sum_i J(phi, S^-2i) / J(S^i phi, S^-3i) 2F1(S^3i, S^3i phi; S^4i | 1+lambda)
    over 1 <= i < l/2, which is empty for l = 2.  The series come from
    `series_every_x`, each character value from the dlog of its argument,
    and a_q = q - affine from `affine_counts_all_lambda` (one point at
    infinity, as 3 does not divide l).
    """
    q, m, h = field.q, field.m, field.m // 2
    if m % l or l % 3 == 0 or l % 4 == 0:
        raise ValueError(f"need an l prime to 3 and 4 dividing q - 1 = {m}, not {l}")
    u = m // l
    dlog = np.array(field._dlog)
    lam, lam_plus_1 = _admissible_lambdas(field)
    log_lam, log_lam_plus_1 = dlog[lam], dlog[lam_plus_1]
    arg = np.array(field._exp)[(log_lam_plus_1 - log_lam) % m]
    log_minus_4 = h + field.dlog(field.from_rational(4))  # -1 = g^h
    log_c1 = log_minus_4 + 3 * log_lam  # -4 lambda^3
    log_c2 = log_minus_4 + log_lam + 2 * log_lam_plus_1  # -4 lambda (1+lambda)^2
    phi_neg_lam = np.where((log_lam + h) % 2, -1, 1)
    a_q = q - affine_counts_all_lambda(field, l)[lam]
    term1 = np.zeros(len(lam), dtype=complex)
    term2 = np.zeros(len(lam), dtype=complex)
    for i in range(1, l):
        si = i * u % m
        ratio = field.jacobi_c(3 * si, -si) / field.jacobi_c(si, si)
        series = series_every_x(field, [3 * si, si, 2 * si + h], [4 * si, 2 * si])
        term1 += ratio * field.zeta[-si * log_c1 % m] * series[arg]
        term2 += phi_neg_lam * ratio * field.zeta[-si * log_c2 % m]
    rhs = q * q * term1 + q * term2
    if l % 2:
        rhs += (l - 1) * m - (l - 3) * a_q
    else:
        tail = np.zeros(len(lam), dtype=complex)
        for i in range(1, l // 2):
            si = i * u % m
            ratio = field.jacobi_c(h, -2 * si) / field.jacobi_c(si + h, -3 * si)
            tail += ratio * series_every_x(field, [3 * si, 3 * si + h], [4 * si])[lam_plus_1]
        rhs += (l - 2) * m - (l - 2) * a_q - 2 * q * tail
    return lam, a_q * a_q, rhs


def trace_cubic_every_lambda(field):
    """(lambdas, lhs, rhs) for the cubic trace identity that
    `verifier.verify_2f1_trace` evaluates at l = 3, W_u + W_2u = q sum over
    i = 1, 2 of 2F1(phi, eps; chi_3^i | 1+lambda), at every lambda with
    lambda (lambda + 1) != 0, as complex arrays over those lambdas.

    u = (q-1)/3 is the index of the cubic character chi_3, so q = 1 (mod 3).
    lhs is -a_q - 2, the trace without its 3 - 1 points at infinity: each
    W from `curve_char_sums_all_lambda`.  rhs reads `series_every_x` at
    1 + lambda.
    """
    q, m, h = field.q, field.m, field.m // 2
    if m % 3:
        raise ValueError(f"need q = 1 (mod 3), not q = {q}")
    u = m // 3
    lam, lam_plus_1 = _admissible_lambdas(field)
    lhs = sum(curve_char_sums_all_lambda(field, i * u)[lam] for i in (1, 2))
    rhs = q * sum(series_every_x(field, [h, 0], [i * u])[lam_plus_1] for i in (1, 2))
    return lam, lhs, rhs


def trace_2f1_every_lambda(field, l, sqrt_branch):
    """(lambdas, lhs, rhs) for the trace identity that
    `verifier.verify_2f1_trace` evaluates for l prime to 3, at every lambda
    with lambda (lambda + 1) != 0, as complex arrays over those lambdas.

    u = (q-1)/l must be even.  For 1 <= i < l, S_i = chi_{-iu} and R_i =
    chi_{r_i} is a square root of S_i^-3 = chi_{3iu}: r_i = 3iu mod (q-1),
    halved, on the "first" branch, and r_i + (q-1)/2 (R_i times phi) on the
    "second".  rhs is q sum over i of J(phi, S_i) / J(S_i^-2 R_i^-1, phi
    R_i^-1) 2F1(R_i phi, R_i; S_i^-2 | 1+lambda), the series read from
    `series_every_x` at 1 + lambda.  lhs is -a_q = W_u + ... + W_(l-1)u,
    each W from `curve_char_sums_all_lambda`; there is one point at
    infinity, so the right side carries no constant.
    """
    q, m, h = field.q, field.m, field.m // 2
    if m % l or l % 3 == 0 or (m // l) % 2:
        raise ValueError(f"need l prime to 3 with (q-1)/l even, not l = {l} at q = {q}")
    u = m // l
    lam, lam_plus_1 = _admissible_lambdas(field)
    lhs = sum(curve_char_sums_all_lambda(field, i * u)[lam] for i in range(1, l))
    rhs = np.zeros(len(lam), dtype=complex)
    for i in range(1, l):
        r = 3 * i * u % m // 2 + {"first": 0, "second": h}[sqrt_branch]
        ratio = field.jacobi_c(h, -i * u) / field.jacobi_c(2 * i * u - r, h - r)
        rhs += ratio * series_every_x(field, [r + h, r], [2 * i * u])[lam_plus_1]
    return lam, lhs, q * rhs


def chi4_square_every_lambda(field):
    """(lambdas, lhs, rhs) for the identity that `verifier.verify_corollary_chi4`
    evaluates, 3F2(phi, phi, phi; eps, eps | (1+lambda)/lambda) =
    phi(lambda) 2F1(chi_4bar, chi_4; eps | 1+lambda)^2 - phi(lambda)/q, at
    every lambda with lambda (lambda + 1) != 0, as complex arrays over those
    lambdas.

    chi_4 = chi_u with u = (q-1)/4, so q = 1 (mod 4).  Both series are read
    from `series_every_x`, phi(lambda) from the parity of dlog lambda.
    """
    q, m, h = field.q, field.m, field.m // 2
    if m % 4:
        raise ValueError(f"need q = 1 (mod 4), not q = {q}")
    u = m // 4
    dlog = np.array(field._dlog)
    lam, lam_plus_1 = _admissible_lambdas(field)
    arg = np.array(field._exp)[(dlog[lam_plus_1] - dlog[lam]) % m]
    lhs = series_every_x(field, [h, h, h], [0, 0])[arg]
    inner = series_every_x(field, [-u, u], [0])[lam_plus_1]
    phi_lam = np.where(dlog[lam] % 2, -1.0, 1.0)
    return lam, lhs, phi_lam * inner * inner - phi_lam / q


def charsum_every_lambda(field, s, part, sqrt_branch):
    """(lambdas, lhs, rhs) for a lambda-valued part of
    `verifier.verify_charsum_lemmas` on S = chi_s, at every lambda with
    lambda (lambda + 1) != 0, as complex arrays over those lambdas.

    W = W_s(lambda) comes from `curve_char_sums_all_lambda`, every series
    from `series_every_x`, and each character value from the dlog of its
    argument.  The parts, each refused with a ValueError outside its
    premises on S:
    - "square_3f2", S of order other than 1, 3 and 4: lhs is
      3F2(S^-3, S^-1, S^-2 phi; S^-4, S^-2 | (1+lambda)/lambda), and rhs is
      J(S^-1, S^-1) / (q^2 S(-4 lambda^3) J(S^-3, S)) W^2
      - S^2((1+lambda)/lambda) phi(-lambda) / q;
    - "sqrt_2f1", S a square of order other than 1 and 3: lhs is W, and rhs
      is q J(phi, S) / J(S^-2 R^-1, phi R^-1) 2F1(R phi, R; S^-2 | 1+lambda)
      for R = chi_r a square root of S^-3: r = -3s mod (q-1), halved, on
      the "first" branch, and r + (q-1)/2 (R times phi) on the "second";
    - "order3_2f1", S of order 3: lhs is W, and rhs is
      q 2F1(phi, eps; S | 1+lambda).
    Only "sqrt_2f1" reads sqrt_branch.
    """
    q, m, h = field.q, field.m, field.m // 2
    s %= m
    order = m // gcd(s, m)
    premises = {
        "square_3f2": order not in (1, 3, 4),
        "sqrt_2f1": s % 2 == 0 and order not in (1, 3),
        "order3_2f1": order == 3,
    }
    if not premises[part]:
        raise ValueError(f"charsum_{part} does not hold for chi_{s} at q = {q}")
    lam, lam_plus_1 = _admissible_lambdas(field)
    w = curve_char_sums_all_lambda(field, s)[lam]
    if part == "square_3f2":
        dlog = np.array(field._dlog)
        log_arg = (dlog[lam_plus_1] - dlog[lam]) % m
        arg = np.array(field._exp)[log_arg]
        lhs = series_every_x(field, [-3 * s, -s, h - 2 * s], [-4 * s, -2 * s])[arg]
        log_c1 = h + field.dlog(field.from_rational(4)) + 3 * dlog[lam]  # -4 lambda^3, -1 = g^h
        coeff = field.jacobi_c(-s, -s) / (q * q * field.jacobi_c(-3 * s, s))
        coeff = coeff * field.zeta[-s * log_c1 % m]  # 1 / S(-4 lambda^3)
        phi_neg_lam = np.where((dlog[lam] + h) % 2, -1.0, 1.0)
        return lam, lhs, coeff * w * w - field.zeta[2 * s * log_arg % m] * phi_neg_lam / q
    if part == "sqrt_2f1":
        r = -3 * s % m // 2 + {"first": 0, "second": h}[sqrt_branch]
        ratio = field.jacobi_c(h, s) / field.jacobi_c(-2 * s - r, h - r)
        return lam, w, q * ratio * series_every_x(field, [r + h, r], [-2 * s])[lam_plus_1]
    return lam, w, q * series_every_x(field, [h, 0], [s])[lam_plus_1]
