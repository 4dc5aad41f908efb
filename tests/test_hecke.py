from collections import Counter
from fractions import Fraction

import pytest

from cactusgrowth.cactus import CactusGen, CactusWord, admissible_pairs, s_to_tau
from cactusgrowth.hecke import (
    IndexOutOfRange,
    _GRID_CACHE,
    _GRID_DIMENSION,
    _SHAPE_TABLE_CACHE,
    SeminormalRep,
    _coefficients,
    _content_vector,
    _kept_grid,
    cactus_matrix,
    generator_entries,
    generator_grid,
    jm_matrix,
    jm_word_product,
    sigma_vv,
    t_matrix,
    t_squared_inverse_sqrt,
    tau_matrix,
    tau_via_jm,
    tau_word_matrix,
    shape_table,
    u_matrix,
)
from cactusgrowth.oracles import StandardTableau, enumerate_syt, partitions_of, syt_from_string
from cactusgrowth.qalgebra import LaurentPoly, QMatrix, RationalFunction, parse_rational, q_int, render_grid
from cactusgrowth.suites import check_hecke_shape, relation_words

ONE = RationalFunction.one()
ZERO = RationalFunction.zero()


def rf(num, den=None):
    return RationalFunction(num, den if den is not None else LaurentPoly.one())


def test_content_vector_determines_tableau():
    for shape in partitions_of(5):
        rep = SeminormalRep(shape)
        seen = {}
        for k, t in enumerate(rep.basis):
            cv = tuple(rep.content(k, e) for e in range(1, rep.r + 1))
            assert cv not in seen
            seen[cv] = t


def test_content_values():
    t = syt_from_string("124/35")
    rep = SeminormalRep((3, 2))
    k = rep.index(t)
    assert tuple(rep.content(k, e) for e in range(1, 6)) == (0, 1, -1, 2, 0)
    assert rep.axial(k, 1) == 1
    assert rep.axial(k, 2) == -2


def test_basis_order_row_reading():
    rep = SeminormalRep((2, 1))
    assert [str(t) for t in rep.basis] == ["12/3", "13/2"]
    assert rep.dimension == 2


def _fresh_build(shape):
    """The basis, contents, index map and basis line built from scratch, as
    each representation built them before the shape table."""
    basis = tuple(sorted(enumerate_syt(shape), key=lambda t: t.rows))
    contents = tuple(tuple(t.content(e) for e in range(1, sum(shape) + 1)) for t in basis)
    return basis, contents, {c: k for k, c in enumerate(contents)}, "basis: " + " ".join(map(str, basis))


def test_shape_table_equals_a_fresh_build():
    for n in range(1, 7):
        for shape in partitions_of(n):
            basis, contents, index, line = _fresh_build(shape)
            table = shape_table(shape)
            assert table.basis == basis
            assert table.contents == contents == tuple(_content_vector(t.rows, n) for t in basis)
            assert table.index == index and table.basis_line == line
            rep = SeminormalRep(shape)
            for k, t in enumerate(basis):
                assert rep.index(t) == k
                for i in range(1, n):
                    c = contents[k]
                    swapped = c[:i - 1] + (c[i], c[i - 1]) + c[i + 1:]
                    assert rep.swap(k, i) == (None if abs(c[i] - c[i - 1]) == 1 else index[swapped])


def test_representations_of_one_shape_share_one_table():
    assert SeminormalRep((3, 2)).table is SeminormalRep((3, 2)).table
    assert SeminormalRep((2, 1, 0)).table is SeminormalRep([2, 1]).table
    # every shape with at most 8 boxes stays memoized
    assert shape_table.cache_info().maxsize == _SHAPE_TABLE_CACHE > sum(len(partitions_of(n)) for n in range(1, 9))


def test_shape_tables_past_the_bound_keep_no_more_bases():
    """The basis each shape table sorts comes from enumerate_syt, whose
    cache is bounded too, at the same bound (above the 66 shapes with at
    most 8 boxes): shapes past it leave both caches full, not growing."""
    shapes = [shape for n in range(1, 11) for shape in partitions_of(n)]
    assert len(shapes) == 138 > _SHAPE_TABLE_CACHE
    for shape in shapes:
        shape_table(shape)
    for cached in (shape_table, enumerate_syt):
        info = cached.cache_info()
        assert info.currsize == info.maxsize == _SHAPE_TABLE_CACHE


def test_generator_grid_is_the_grid_rendered_afresh():
    """On every shape with at most 6 boxes, generator_grid for u, t and tau at
    each i is render_grid of generator_entries built afresh; a grid of
    dimension at most _GRID_DIMENSION is kept, so a second request reads the
    kept text, and an index out of range is refused every time and never kept."""
    _kept_grid.cache_clear()
    kept = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            small = rep.dimension <= _GRID_DIMENSION
            for which in ("u", "t", "tau"):
                for i in range(1, n):
                    fresh = render_grid(rep.dimension, rep.dimension, generator_entries(rep, i, which))
                    assert generator_grid(rep, i, which) == fresh
                    assert (generator_grid(SeminormalRep(shape), i, which) is generator_grid(rep, i, which)) == small
                for i in (0, n):
                    for _ in range(2):
                        with pytest.raises(IndexOutOfRange):
                            generator_grid(rep, i, which)
            kept += 3 * (n - 1) if small else 0
            assert _kept_grid.cache_info().currsize == kept
    assert kept <= _GRID_CACHE


def test_a_grid_above_the_kept_dimension_is_not_kept():
    """The kept grids are bounded in size, not only in number: a grid of a
    larger representation is rendered on every request and never kept."""
    _kept_grid.cache_clear()
    rep = SeminormalRep((4, 2, 1))
    assert rep.dimension > _GRID_DIMENSION
    grid = generator_grid(rep, 1, "u")
    assert grid == render_grid(rep.dimension, rep.dimension, generator_entries(rep, 1, "u"))
    assert generator_grid(rep, 1, "u") is not grid
    assert _kept_grid.cache_info().currsize == 0


def test_a_zero_inside_a_shape_is_refused_and_trailing_zeros_are_dropped():
    with pytest.raises(ValueError, match="not weakly decreasing"):
        SeminormalRep((2, 0, 1))
    with pytest.raises(ValueError, match="not weakly decreasing"):
        check_hecke_shape((0, 2, 1))
    assert SeminormalRep((2, 1, 0, 0)).shape == (2, 1)
    assert check_hecke_shape((2, 1, 0)).passed


def test_single_row_and_column_actions():
    # adjacent entries in one row: u acts by zero; in one column: by -[2]
    row = SeminormalRep((3,))
    col = SeminormalRep((1, 1, 1))
    for i in (1, 2):
        assert u_matrix(row, i) == QMatrix.zeros(1, 1)
        assert u_matrix(col, i) == QMatrix([[rf(-q_int(2))]])
        assert t_matrix(row, i) == QMatrix([[RationalFunction.q_power(1)]])
        assert t_matrix(col, i) == QMatrix([[rf(-LaurentPoly.q(-1))]])
        assert tau_matrix(row, i) == QMatrix.identity(1)
        assert tau_matrix(col, i) == QMatrix([[rf(-LaurentPoly.one())]])


def test_two_one_block_entries():
    rep = SeminormalRep((2, 1))
    u2 = u_matrix(rep, 2)
    # basis (12/3, 13/2); 13/2 has axial distance +2 at position 2
    inv2 = rf(LaurentPoly.one(), q_int(2))
    coeff = rf(q_int(1) * q_int(3), q_int(2) * q_int(2))
    assert u2[0, 0] == -rf(q_int(-3), q_int(-2))  # = -[3]/[2] on the negative side
    assert u2[1, 1] == -rf(q_int(1), q_int(2))
    assert u2[0, 1] == ONE
    assert u2[1, 0] == coeff
    assert u2 * u2 == u2.scale(rf(-q_int(2)))
    tau2 = tau_matrix(rep, 2)
    assert tau2[1, 1] == inv2 and tau2[0, 0] == -inv2


def test_u_quadratic_and_braid_all_shapes():
    neg2 = rf(-q_int(2))
    for n in range(2, 7):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            for i in range(1, n):
                u = u_matrix(rep, i)
                assert u * u == u.scale(neg2)
            for i in range(1, n - 1):
                u1, u2 = u_matrix(rep, i), u_matrix(rep, i + 1)
                assert u1 * u2 * u1 - u1 == u2 * u1 * u2 - u2
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert u_matrix(rep, i) * u_matrix(rep, j) == u_matrix(rep, j) * u_matrix(rep, i)


def test_t_braid_and_quadratic():
    for shape in ((2, 1), (3, 1), (2, 2), (2, 1, 1)):
        rep = SeminormalRep(shape)
        n = sum(shape)
        ident = QMatrix.identity(rep.dimension)
        for i in range(1, n - 1):
            t1, t2 = t_matrix(rep, i), t_matrix(rep, i + 1)
            assert t1 * t2 * t1 == t2 * t1 * t2
        for i in range(1, n):
            t = t_matrix(rep, i)
            # (t - q)(t + q^-1) = 0
            q = RationalFunction.q_power(1)
            qinv = RationalFunction.q_power(-1)
            assert (t - ident.scale(q)) * (t + ident.scale(qinv)) == QMatrix.zeros(rep.dimension, rep.dimension)


def test_jm_diagonal_and_word_product():
    for n in range(2, 6):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            for i in range(n):
                jm = jm_matrix(rep, i)
                assert jm == jm_word_product(rep, i)
                for k, t in enumerate(rep.basis):
                    expected = RationalFunction.q_power(2 * t.content(i + 1))
                    assert jm[k, k] == expected


def test_jm_half_powers():
    rep = SeminormalRep((3, 2))
    for i in range(5):
        half = jm_matrix(rep, i, Fraction(1, 2))
        assert half * half == jm_matrix(rep, i, 1)
        assert jm_matrix(rep, i, Fraction(-1, 2)) * half == QMatrix.identity(rep.dimension)


def test_jm_lowest_case():
    rep = SeminormalRep((2,))
    assert jm_matrix(rep, 1) == QMatrix([[RationalFunction.q_power(2)]])


def test_tau_factorization_matches():
    for n in range(2, 7):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            for i in range(1, n):
                assert tau_matrix(rep, i) == tau_via_jm(rep, i)
                assert tau_matrix(rep, i) * tau_matrix(rep, i) == QMatrix.identity(rep.dimension)


def test_sigma_vv():
    for shape in ((2,), (1, 1), (2, 1), (2, 2), (3, 1)):
        rep = SeminormalRep(shape)
        s = sigma_vv(rep)
        assert s == tau_matrix(rep, 1)
        assert s * s == QMatrix.identity(rep.dimension)
        assert t_matrix(rep, 1) * t_squared_inverse_sqrt(rep) == s


def test_t_squared_inverse_sqrt_is_not_t_inverse():
    # they agree where u vanishes (single row) but differ elsewhere
    rep = SeminormalRep((1, 1))
    assert t_squared_inverse_sqrt(rep) != t_matrix(rep, 1, inverse=True)
    rep2 = SeminormalRep((2, 1))
    assert t_squared_inverse_sqrt(rep2) != t_matrix(rep2, 1, inverse=True)


def _swapped_index(rep, t, i):
    """Index of t with i, i+1 exchanged, or None when the checked
    constructor refuses that filling."""
    rows = tuple(tuple({i: i + 1, i + 1: i}.get(v, v) for v in row) for row in t.rows)
    try:
        return rep.index(StandardTableau(rows))
    except ValueError:
        return None


def test_swap_exists_iff_axial_distance_is_not_one():
    for n in range(1, 9):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            for k, t in enumerate(rep.basis):
                for i in range(1, n):
                    assert rep.swap(k, i) == _swapped_index(rep, t, i), (str(t), i)


def _reference_generators(rep, i):
    """u_i, tau_i, t_i and t_i^-1 entry by entry from the formulas in the
    module docstring, each entry a fresh RationalFunction."""
    d = rep.dimension
    u = [[ZERO] * d for _ in range(d)]
    tau = [[ZERO] * d for _ in range(d)]
    for k, t in enumerate(rep.basis):
        a = t.content(i + 1) - t.content(i)
        u[k][k] = RationalFunction(-q_int(a - 1), q_int(a))
        tau[k][k] = RationalFunction(LaurentPoly.one(), q_int(a))
        j = _swapped_index(rep, t, i)
        if j is not None:
            for m in (u, tau):
                m[j][k] = ONE if a > 0 else RationalFunction(q_int(a - 1) * q_int(a + 1), q_int(a) * q_int(a))
    u, ident = QMatrix(u), QMatrix.identity(d)
    return {"u": u, "tau": QMatrix(tau),
            "t": u + ident.scale(RationalFunction.q_power(1)), "t_inv": u + ident.scale(RationalFunction.q_power(-1))}


def test_generators_equal_entrywise_reference():
    for n in range(2, 8):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            for i in range(1, n):
                ref = _reference_generators(rep, i)
                got = {"u": u_matrix(rep, i), "tau": tau_matrix(rep, i),
                       "t": t_matrix(rep, i), "t_inv": t_matrix(rep, i, inverse=True)}
                for which, m in got.items():
                    assert m == ref[which], (shape, i, which)
                    fresh = QMatrix([[parse_rational(str(e)) for e in row] for row in m.entries])
                    assert m.pretty() == fresh.pretty(), (shape, i, which)


def test_generator_entries_are_the_reference_columns():
    # at most two nonzeros per column (the diagonal and the swap), and built
    # densely they are the entrywise reference
    for n in range(2, 8):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            d = rep.dimension
            for i in range(1, n):
                ref = _reference_generators(rep, i)
                for which in ("u", "tau", "t", "t_inv"):
                    entries = generator_entries(rep, i, which)
                    assert not any(c.is_zero() for c in entries.values())
                    assert max(Counter(k for _, k in entries).values(), default=0) <= 2
                    dense = [[ZERO] * d for _ in range(d)]
                    for (j, k), c in entries.items():
                        dense[j][k] = c
                    assert QMatrix(dense) == ref[which], (shape, i, which)


def test_coefficient_table_is_bounded_by_shape_size():
    _coefficients.cache_clear()
    for n in range(2, 8):
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            for i in range(1, n):
                u_matrix(rep, i), tau_matrix(rep, i), t_matrix(rep, i), t_matrix(rep, i, inverse=True)
    assert _coefficients.cache_info().currsize <= 2 * 7


def test_simultaneous_block_structure():
    # u_i only couples a tableau to itself and its i-swap
    for shape in ((3, 2), (2, 2, 1)):
        rep = SeminormalRep(shape)
        n = sum(shape)
        for i in range(1, n):
            u = u_matrix(rep, i)
            for a in range(rep.dimension):
                for b in range(rep.dimension):
                    if a != b and rep.swap(b, i) != a:
                        assert u[a, b].is_zero()


def test_cactus_matrix_s12_is_tau1():
    rep = SeminormalRep((2, 1))
    assert cactus_matrix(CactusWord(3, (CactusGen(1, 2),)), rep) == tau_matrix(rep, 1)


def test_cactus_matrix_relations():
    from cactusgrowth.cactus import admissible_pairs

    for shape in ((2, 1), (2, 2), (3, 1)):
        n = sum(shape)
        rep = SeminormalRep(shape)
        ident = QMatrix.identity(rep.dimension)
        for kind, params in admissible_pairs(n):
            if kind == "involution":
                p, q = params
                assert cactus_matrix(CactusWord(n, (CactusGen(p, q), CactusGen(p, q))), rep) == ident
            elif kind == "disjoint":
                p, q, k, l = params
                a = cactus_matrix(CactusWord(n, (CactusGen(p, q), CactusGen(k, l))), rep)
                b = cactus_matrix(CactusWord(n, (CactusGen(k, l), CactusGen(p, q))), rep)
                assert a == b
            else:
                p, q, k, l = params
                a = cactus_matrix(CactusWord(n, (CactusGen(p, q), CactusGen(k, l))), rep)
                b = cactus_matrix(CactusWord(n, (CactusGen(p + q - l, p + q - k), CactusGen(p, q))), rep)
                assert a == b


def _grouped_product(w, rep):
    # per generator, the product of tau_matrix over its tau word; then the
    # product over generators, rightmost acting first
    out = QMatrix.identity(rep.dimension)
    for g in w.gens:
        mat = QMatrix.identity(rep.dimension)
        for i in s_to_tau(g):
            mat = mat * tau_matrix(rep, i)
        out = out * mat
    return out


def test_cactus_matrix_equals_grouped_generator_products():
    for n in range(1, 5):
        cases = set()
        for kind, params in admissible_pairs(n):
            lhs, rhs = relation_words(kind, params, n)
            cases.update((CactusWord(n, lhs.gens[:1]), lhs, rhs))
        for shape in partitions_of(n):
            rep = SeminormalRep(shape)
            for w in cases:
                assert cactus_matrix(w, rep) == _grouped_product(w, rep), (shape, str(w))


def test_tau_word_matrix_with_repeated_indices():
    rep = SeminormalRep((3, 2))
    seq = (1, 2, 1, 3, 2, 1, 4, 3, 1, 2)
    uncached = QMatrix.identity(rep.dimension)
    for i in seq:
        uncached = uncached * tau_matrix(rep, i)
    assert tau_word_matrix(seq, rep) == uncached
    assert tau_word_matrix((), rep) == QMatrix.identity(rep.dimension)


def test_conjugation_identity():
    # diag(q^r, q^-s) tau-block == t-block diag(q^-s, q^r) whenever r + s = a
    from cactusgrowth.suites import _formula_block

    for a in range(2, 7):
        tau_b = _formula_block(a, tau_diag=True)
        t_b = _formula_block(a, tau_diag=False)
        for rr in range(0, a + 1):
            ss = a - rr
            d1 = QMatrix.diagonal([RationalFunction.q_power(rr), RationalFunction.q_power(-ss)])
            d2 = QMatrix.diagonal([RationalFunction.q_power(-ss), RationalFunction.q_power(rr)])
            assert d1 * tau_b == t_b * d2


def test_index_bounds():
    rep = SeminormalRep((2, 1))
    with pytest.raises(IndexOutOfRange):
        u_matrix(rep, 3)
    with pytest.raises(IndexOutOfRange):
        jm_matrix(rep, 3)
    with pytest.raises(IndexOutOfRange):
        cactus_matrix(CactusWord(4, (CactusGen(1, 4),)), rep)
