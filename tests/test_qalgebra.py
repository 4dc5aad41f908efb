import random
from fractions import Fraction

import pytest

import cactusgrowth.qalgebra as qalgebra
from cactusgrowth.qalgebra import (
    _dense_exact_div,
    DimensionMismatch,
    DivisionByZero,
    LaurentPoly,
    QMatrix,
    RationalFunction,
    matmul,
    parse_laurent,
    parse_rational,
    q_int,
    render_grid,
    render_laurent,
    render_rational,
)


def test_q_int_two():
    assert render_laurent(q_int(2)) == "q + q^-1"


def test_q_int_zero_and_negative():
    assert q_int(0).is_zero()
    assert q_int(-3) == -q_int(3)
    assert q_int(-3) == LaurentPoly({2: -1, 0: -1, -2: -1})


def test_q_int_closed_form():
    # [n] (q - q^-1) == q^n - q^-n
    delta = LaurentPoly({1: 1, -1: -1})
    for n in range(-8, 9):
        expected = LaurentPoly({n: 1, -n: -1}) if n else LaurentPoly.zero()
        assert q_int(n) * delta == expected


def test_ratfn_sum_keeps_two_over_two():
    half = RationalFunction(LaurentPoly.one(), q_int(2))
    total = half + half
    assert total == RationalFunction(LaurentPoly(2), q_int(2))
    assert total.num == LaurentPoly({1: 2})
    assert total.den == LaurentPoly({2: 1, 0: 1})


def test_three_times_one():
    assert RationalFunction(q_int(3)) * RationalFunction(q_int(1)) == RationalFunction(q_int(3))


def test_catalan_style_identity_a4():
    # [a]^2 - [a-1][a+1] = 1 expanded by hand for a = 4:
    # [4]^2 = q^6 + 2q^4 + 3q^2 + 4 + 3q^-2 + 2q^-4 + q^-6
    # [3][5] = q^6 + 2q^4 + 3q^2 + 3 + 3q^-2 + 2q^-4 + q^-6
    sq = {6: 1, 4: 2, 2: 3, 0: 4, -2: 3, -4: 2, -6: 1}
    prod = {6: 1, 4: 2, 2: 3, 0: 3, -2: 3, -4: 2, -6: 1}
    assert q_int(4) * q_int(4) == LaurentPoly(sq)
    assert q_int(3) * q_int(5) == LaurentPoly(prod)
    assert q_int(4) * q_int(4) - q_int(3) * q_int(5) == LaurentPoly.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        RationalFunction.one() / RationalFunction.zero()
    with pytest.raises(DivisionByZero):
        RationalFunction(LaurentPoly.one(), LaurentPoly.zero())


def test_q_plucker_grid():
    for m in range(-10, 11):
        for n in range(-10, 11):
            assert q_int(m) * q_int(n + 1) - q_int(m + 1) * q_int(n) == q_int(m - n)


def test_quantum_integer_recurrences():
    for a in range(1, 21):
        assert q_int(a - 1) + q_int(a + 1) == q_int(2) * q_int(a)
        assert q_int(a) * q_int(a) - q_int(a - 1) * q_int(a + 1) == LaurentPoly.one()


def _rand_poly(rng):
    return LaurentPoly({rng.randint(-5, 5): rng.randint(-6, 6) for _ in range(rng.randint(0, 5))})


def _rand_ratfn(rng):
    den = LaurentPoly.zero()
    while den.is_zero():
        den = _rand_poly(rng)
    return RationalFunction(_rand_poly(rng), den)


def _fraction_long_division(a, b):
    """Reference long division in Q[q] on dense lists: (quotient, remainder)."""
    r = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = r[k + len(b) - 1] / b[-1]
        quot[k] = c
        for i, bi in enumerate(b):
            r[k + i] -= c * bi
    return quot, r


def _dense_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _rand_dense(rng, length, lead):
    return [rng.randint(-6, 6) for _ in range(length - 1)] + [lead]


def test_exact_division_agrees_with_fraction_long_division():
    rng = random.Random(1997)
    for _ in range(300):
        g = _rand_dense(rng, rng.randint(1, 6), rng.choice([-3, -1, 1, 2, 5]))
        h = _rand_dense(rng, rng.randint(1, 5), rng.choice([-4, -2, 2, 3, 6]))  # never monic
        a = _dense_mul(g, h)
        quot, rem = _fraction_long_division(a, h)
        assert not any(rem) and quot == g
        assert _dense_exact_div(a, h) == g
        # a nonzero remainder below deg h: inexact in Q[q]
        if len(h) > 1:
            inexact = list(a)
            inexact[rng.randrange(len(h) - 1)] += rng.choice([-2, -1, 1, 3])
            assert any(_fraction_long_division(inexact, h)[1])
            with pytest.raises(ValueError):
                _dense_exact_div(inexact, h)
        # exact in Q[q] but the quotient g/2 leaves Z[q]
        if any(c % 2 for c in g):
            quot, rem = _fraction_long_division(a, [2 * c for c in h])
            assert not any(rem) and any(c.denominator != 1 for c in quot)
            with pytest.raises(ValueError):
                _dense_exact_div(a, [2 * c for c in h])


def test_exact_division_edge_cases():
    with pytest.raises(ValueError):
        _dense_exact_div([1, 2], [2])  # (1 + 2q) / 2 is not integral
    with pytest.raises(ValueError):
        _dense_exact_div([1], [1, 1])  # a shorter than b, nonzero
    assert _dense_exact_div([], [3, 1]) == []
    with pytest.raises(DivisionByZero):
        _dense_exact_div([1, 2], [])


def test_monomial_denominator_fast_path_matches_the_gcd_path():
    """num / q^k skips the gcd; the same fraction with a common factor p in
    num and den, whose den is no monomial, goes through the gcd path."""
    rng = random.Random(23)
    for _ in range(300):
        num, k, p = _rand_poly(rng), rng.randint(-6, 6), _rand_poly(rng)
        if p.is_zero() or p._coeffs == (1,):
            continue
        fast = qalgebra._canonicalize(num, LaurentPoly.q(k))
        assert fast == qalgebra._canonicalize(num * p, LaurentPoly.q(k) * p)
        assert fast[1] == LaurentPoly.one()


def test_canonicalization_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        x = _rand_ratfn(rng)
        assert RationalFunction(x.num, x.den) == x
        assert not x.den.is_zero()
        assert x.den.coeff(0) != 0  # genuine polynomial, nonzero constant term
        assert max(x.den.items(), key=lambda kv: kv[0])[1] > 0  # positive leading coefficient


def test_field_axioms_randomized():
    rng, poly_rng = random.Random(7), random.Random(8)
    one = RationalFunction.one()
    for _ in range(60):
        x, y, z = (_rand_ratfn(rng) for _ in range(3))
        # a sum that cancels an end term is trimmed, and every way of writing p stores it alike
        a, b = _rand_poly(poly_rng), _rand_poly(poly_rng)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        for p in (a, b, a + b, a * b):
            terms = dict(p.items())
            for same in (LaurentPoly(terms), parse_laurent(str(p)), LaurentPoly({-99: 0, **terms, 99: 0})):
                assert same == p and hash(same) == hash(p)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        # the text kept after canonicalisation is the canonical form's
        for v in (x, y, z, x + y, x * y):
            assert str(v) == render_rational(v)
            assert parse_rational(str(v)) == v
        if not x.is_zero():
            assert x * x.inverse() == one
            assert (x / x) == one


def test_cancellation_across_num_den():
    # ([2][3]) / [2] reduces to [3]
    x = RationalFunction(q_int(2) * q_int(3), q_int(2))
    assert x == RationalFunction(q_int(3))
    assert x.den == LaurentPoly.one()


def test_render_parse_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        x = _rand_ratfn(rng)
        assert parse_rational(render_rational(x)) == x
    for _ in range(200):
        p = _rand_poly(rng)
        assert parse_laurent(render_laurent(p)) == p
    assert parse_laurent("q^2 + 1 + q^-2") == q_int(3)
    assert parse_laurent("0").is_zero()
    assert parse_laurent("-2q + 3") == LaurentPoly({1: -2, 0: 3})


def test_matmul_identity_and_diag():
    rng = random.Random(5)
    a = QMatrix([[_rand_ratfn(rng) for _ in range(3)] for _ in range(3)])
    assert matmul(QMatrix.identity(3), a) == a
    assert matmul(a, QMatrix.identity(3)) == a
    d1 = QMatrix.diagonal([RationalFunction.q_power(1), RationalFunction.q_power(-1)])
    d2 = QMatrix.diagonal([RationalFunction.q_power(-1), RationalFunction.q_power(1)])
    assert matmul(d1, d2) == QMatrix.identity(2)


def test_render_grid():
    assert render_grid(0, 0, {}) == ""
    assert render_grid(3, 3, {}) == "[ 0  0  0 ]\n[ 0  0  0 ]\n[ 0  0  0 ]"
    assert render_grid(1, 1, {(0, 0): RationalFunction.one()}) == "[ 1 ]"
    # every cell is padded to the widest entry, absent ones included
    wide = RationalFunction(LaurentPoly.one(), q_int(2))
    assert render_grid(2, 2, {(0, 0): wide, (1, 0): RationalFunction.q_power(1)}) == (
        "[ (q) / (q^2 + 1)                0 ]\n"
        "[               q                0 ]")
    m = QMatrix([[wide, RationalFunction.zero()], [RationalFunction.q_power(1), RationalFunction.zero()]])
    assert m.pretty() == render_grid(2, 2, {(0, 0): wide, (1, 0): RationalFunction.q_power(1)})


def test_render_grid_renders_a_shared_entry_once(monkeypatch):
    calls = []
    real = qalgebra.render_rational
    monkeypatch.setattr(qalgebra, "render_rational", lambda r: calls.append(r) or real(r))
    x = RationalFunction(q_int(3), q_int(2))
    text = real(x)
    zero = "0".rjust(len(text))
    assert render_grid(2, 3, {(0, 0): x, (1, 1): x, (0, 2): x}) == (
        f"[ {text}  {zero}  {text} ]\n[ {zero}  {text}  {zero} ]")
    assert calls == [x]
    # the text stays with the object
    render_grid(1, 1, {(0, 0): x})
    assert calls == [x]


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul(QMatrix.zeros(2, 3), QMatrix.zeros(2, 3))


def test_tau_block_squares_to_identity():
    # the 2x2 block of the involutive generator at axial distance a
    for a in range(2, 7):
        inv_a = RationalFunction(LaurentPoly.one(), q_int(a))
        coeff = RationalFunction(q_int(a - 1) * q_int(a + 1), q_int(a) * q_int(a))
        block = QMatrix([[inv_a, coeff], [RationalFunction.one(), -inv_a]])
        assert matmul(block, block) == QMatrix.identity(2)


def test_canonical_form_agrees_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def small_poly(rng):
        return LaurentPoly({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})

    def nonzero_poly(rng):
        p = LaurentPoly.zero()
        while p.is_zero():
            p = small_poly(rng)
        return p

    def poly(p, shift=12):
        # q^shift p as a sympy polynomial; a shared power of q leaves a ratio alone
        return sympy.Poly.from_dict({(e + shift,): c for e, c in p.items()}, q, domain="ZZ")

    def cancels_to_zero(a, b, c, d):
        # a/b - c/d through sympy's cancel
        num, _ = (a * d - c * b).cancel(b * d, include=True)
        return num.is_zero

    rng = random.Random(2017)
    for k in range(300):
        a, b = small_poly(rng), nonzero_poly(rng)
        if k % 2:  # the same function written another way
            m = nonzero_poly(rng)
            c, d = a * m, b * m
        else:
            c, d = small_poly(rng), nonzero_poly(rng)
        x, y = RationalFunction(a, b), RationalFunction(c, d)
        assert (x == y) == cancels_to_zero(poly(a), poly(b), poly(c), poly(d)), (a, b, c, d)
        assert cancels_to_zero(poly(x.num), poly(x.den), poly(a), poly(b))
        if x.is_zero():
            assert x.den == LaurentPoly.one()
        else:
            assert poly(x.num, -x.num.valuation()).gcd(poly(x.den, 0)).is_one
