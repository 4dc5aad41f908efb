from collections import Counter

import pytest

import cactusgrowth.crystal as crystal_module
from cactusgrowth.crystal import (
    BadParameter,
    Crystal,
    CyclicGraph,
    SizeLimit,
    build_minuscule,
    decompose,
    tensor,
    tensor_power,
    trivial_crystal,
    weyl_dimension,
    weyl_orbit_weights,
)
from cactusgrowth.suites import check_crystal, check_morphism, materialized_census
from cactusgrowth.weights import CartanContext, ContextMismatch, weyl_orbit
from cactusgrowth.words import SL2_STEP, VECTOR, enumerate_hw_words, exterior

GL2 = CartanContext("GL", 2)
GL3 = CartanContext("GL", 3)
GL4 = CartanContext("GL", 4)
SP4 = CartanContext("Sp", 2)
SP6 = CartanContext("Sp", 3)
SL2 = CartanContext("SL2", 1)


def test_sl2_crystal():
    c = build_minuscule(SL2, "sl2")
    assert c.n == 2
    assert c.e(1, 1) == 0 and c.e(1, 0) is None
    assert c.f(1, 0) == 1
    assert c.eps(1, 0) == 0 and c.phi(1, 0) == 1
    assert c.eps(1, 1) == 1 and c.phi(1, 1) == 0


def test_gl3_vector_chain():
    c = build_minuscule(GL3, "vector")
    # elements 1 -> 2 -> 3 under lowering; raising reverses
    assert c.e(1, 1) == 0
    assert c.e(2, 2) == 1
    assert c.eps(1, 1) == 1
    assert c.phi(2, 1) == 1


def test_exterior_square_gl3():
    c = build_minuscule(GL3, "exterior", 2)
    assert c.n == 3
    assert sorted(c.labels) == ["12", "13", "23"]
    assert weyl_orbit_weights(c)


def test_sp4_vector():
    c = build_minuscule(SP4, "vector")
    assert c.n == 4
    assert c.weights == ((1, 0), (0, 1), (0, -1), (-1, 0))
    assert weyl_orbit_weights(c)
    # chain under lowering: 1 -> 2 -> -2 -> -1 with labels 1, 2, 1
    assert c.f(1, 0) == 1
    assert c.f(2, 1) == 2
    assert c.f(1, 2) == 3


def test_bad_parameters():
    for args in ((GL3, "exterior", 4), (GL3, "sl2"), (SP4, "exterior", 2), (SL2, "exterior", 1), (GL3, "spin")):
        with pytest.raises(BadParameter):
            build_minuscule(*args)
    for power in (tensor_power, decompose):
        with pytest.raises(BadParameter, match="r >= 0"):
            power(build_minuscule(GL3, "vector"), -1)


# every minuscule crystal of GL(1..5), Sp(2..8) and SL2, with its highest weight
MINUSCULE_GRID = [(CartanContext("GL", n), kind, k, (1,) * k + (0,) * (n - k))
                  for n in range(1, 6) for kind, k in (("vector", 1), *(("exterior", k) for k in range(n + 1)))]
MINUSCULE_GRID += [(CartanContext("Sp", n), "vector", 1, (1,) + (0,) * (n - 1)) for n in range(1, 5)]
MINUSCULE_GRID += [(SL2, "sl2", 1, (1,)), (SL2, "vector", 1, (1,))]


@pytest.mark.parametrize("ctx, kind, k, top", MINUSCULE_GRID)
def test_minuscule_crystal_is_the_orbit_with_its_root_edges(ctx, kind, k, top):
    # the weights are the Weyl orbit of the highest weight in descending
    # order, and e_i joins x to x + alpha_i exactly when both lie in it
    c = build_minuscule(ctx, kind, k)
    orbit = weyl_orbit(ctx.family, top)
    assert c.weights == tuple(sorted(orbit, reverse=True))
    for i in ctx.index_set():
        root = ctx.simple_root(i)
        raised = {(x, tuple(a + b for a, b in zip(x, root))) for x in orbit}
        assert {(c.weights[x], c.weights[y]) for x, y in c.e_maps[i].items()} == {p for p in raised if p[1] in orbit}


def test_highest_weight_is_eps_zero():
    c = build_minuscule(GL3, "vector")
    power = tensor_power(c, 3)
    for x in power.highest_weight_elements():
        assert all(power.eps(i, x) == 0 for i in GL3.index_set())


def test_sl2_tensor_rule():
    c = build_minuscule(SL2, "sl2")
    cc = tensor(c, c)
    minus_minus = 1 * c.n + 1
    # e(- (x) -) = - (x) +
    assert cc.e(1, minus_minus) == 1 * c.n + 0
    hw = cc.highest_weight_elements()
    assert sorted(cc.labels[x] for x in hw) == ["+(x)+", "+(x)-"]


def test_gl2_hw_count_r3():
    c = build_minuscule(GL2, "vector")
    power = tensor_power(c, 3)
    # one tableau of shape (3) plus two of shape (2,1)
    assert len(power.highest_weight_elements()) == 3


def test_gl2_hw_weights_r4():
    c = build_minuscule(GL2, "vector")
    power = tensor_power(c, 4)
    weights = sorted(power.weights[x] for x in power.highest_weight_elements())
    assert weights == [(2, 2), (2, 2), (3, 1), (3, 1), (3, 1), (4, 0)]


def test_decompose_gl2_r2():
    c = build_minuscule(GL2, "vector")
    assert decompose(c, 2) == {(2, 0): (1, 3), (1, 1): (1, 1)}


def test_decompose_sl2_catalan():
    c = build_minuscule(SL2, "sl2")
    census = decompose(c, 4)
    assert census[(0,)] == (2, 1)
    assert decompose(c, 0) == {(0,): (1, 1)}


def test_decompose_totals():
    for base, ctx in ((build_minuscule(GL2, "vector"), GL2), (build_minuscule(GL3, "vector"), GL3)):
        for r in range(4):
            census = decompose(base, r)
            assert sum(cnt * size for cnt, size in census.values()) == base.n**r


def test_tensor_context_mismatch():
    with pytest.raises(ContextMismatch):
        tensor(build_minuscule(GL2, "vector"), build_minuscule(GL3, "vector"))


def test_size_limit():
    c = build_minuscule(GL3, "vector")
    with pytest.raises(SizeLimit):
        tensor_power(c, 4, size_cap=50)


@pytest.mark.parametrize("kind, k, r, cap", [
    ("exterior", 2, 10**9, 10**6),  # a one-element factor: |B|^r = 1, but r is over the cap
    ("vector", 1, 12, 100),         # 2^12 > 100
    ("vector", 1, 10**18, 10**6),   # |B|^r is never formed
])
def test_tensor_power_refused_before_any_level(monkeypatch, kind, k, r, cap):
    def no_level(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(crystal_module, "tensor", no_level)
    with pytest.raises(SizeLimit) as power:
        tensor_power(build_minuscule(GL2, kind, k), r, size_cap=cap)
    # the census is refused by the same check, with the same message
    with pytest.raises(SizeLimit) as census:
        decompose(build_minuscule(GL2, kind, k), r, size_cap=cap)
    assert str(census.value) == str(power.value)


def test_tensor_power_at_the_cap_is_built():
    c = build_minuscule(GL2, "vector")
    assert tensor_power(c, 6, size_cap=64).n == 64
    assert tensor_power(build_minuscule(GL2, "exterior", 2), 5, size_cap=5).n == 1


def test_cyclic_graph_rejected():
    with pytest.raises(CyclicGraph):
        Crystal(SL2, ("a", "b"), {1: {0: 1, 1: 0}}, ((1,), (-1,)))


def test_cycle_away_from_element_zero_rejected():
    # 1 -> 0 is a chain; 3 -> 4 -> 3 is a cycle; 2 is isolated
    with pytest.raises(CyclicGraph):
        Crystal(SL2, "abcde", {1: {1: 0, 3: 4, 4: 3}}, ((1,), (-1,), (0,), (0,), (0,)))


def test_non_injective_raising_map_rejected():
    # 1 -> 0 <- 2 has no cycle; it fails injectivity, not acyclicity
    with pytest.raises(ValueError, match="not injective") as info:
        Crystal(SL2, "abc", {1: {1: 0, 2: 0}}, ((1,), (-1,), (-1,)))
    assert not isinstance(info.value, CyclicGraph)


@pytest.mark.parametrize("e_maps", [
    {1: {1: 5}},   # target outside 0..n-1
    {1: {-1: 0}},  # negative key
    {2: {1: 0}},   # SL2 has only e_1
])
def test_malformed_raising_map_rejected(e_maps):
    with pytest.raises(ValueError):
        Crystal(SL2, ("+", "-"), e_maps, ((1,), (-1,)))


def test_weight_compatibility_enforced():
    with pytest.raises(ValueError):
        Crystal(SL2, ("a", "b"), {1: {1: 0}}, ((1,), (1,)))


def test_rectify_fixed_on_hw():
    c = build_minuscule(GL2, "vector")
    power = tensor_power(c, 4)
    for x in power.highest_weight_elements():
        assert power.rectify(x) == x


def test_rectify_lands_in_same_component():
    c = build_minuscule(GL2, "vector")
    power = tensor_power(c, 4)
    comp_of = {}
    for comp in power.components():
        for x in comp:
            comp_of[x] = comp[0]
    for x in range(power.n):
        y = power.rectify(x)
        assert power.is_highest_weight(y)
        assert comp_of[x] == comp_of[y]


def test_edge_weight_consistency():
    for c in (build_minuscule(GL3, "vector"), build_minuscule(SP4, "vector"), build_minuscule(GL4, "exterior", 2)):
        for i in c.context.index_set():
            root = c.context.simple_root(i)
            for x, y in c.e_maps[i].items():
                assert tuple(a - b for a, b in zip(c.weights[y], c.weights[x])) == root


def test_crystal_suite():
    report = check_crystal(r_max=4, catalan_r=8)
    assert report.passed, report.failures[:3]


def test_morphism_suite():
    report = check_morphism()
    assert report.passed, report.failures[:3]


def _chain_length(m, x):
    k = 0
    while x in m:
        x = m[x]
        k += 1
    return k


def _reference_powers(c):
    """Labels, weights and e-maps of c^(x)r for r = 0, 1, ... from the
    per-element definitions: the one-element crystal "1" at r = 0, c itself
    at r = 1, then eps and phi by walking chains and the tensor rule element
    by element."""
    index_set = c.context.index_set()
    yield ["1"], [(0,) * c.context.rank], {i: {} for i in index_set}
    labels, weights, e_maps = list(c.labels), list(c.weights), {i: dict(c.e_maps[i]) for i in index_set}
    c_eps = {i: [_chain_length(c.e_maps[i], y) for y in range(c.n)] for i in index_set}
    while True:
        yield labels, weights, e_maps
        b_f = {i: {y: x for x, y in m.items()} for i, m in e_maps.items()}
        new_maps = {}
        for i in index_set:
            m = {}
            for x in range(len(labels)):
                for y in range(c.n):
                    if _chain_length(b_f[i], x) >= c_eps[i][y]:
                        if x in e_maps[i]:
                            m[x * c.n + y] = e_maps[i][x] * c.n + y
                    elif y in c.e_maps[i]:
                        m[x * c.n + y] = x * c.n + c.e_maps[i][y]
            new_maps[i] = m
        labels = [f"{lx}(x){ly}" for lx in labels for ly in c.labels]
        weights = [tuple(a + d for a, d in zip(wx, wy)) for wx in weights for wy in c.weights]
        e_maps = new_maps


POWER_CASES = [
    (GL2, "vector", 1), (GL3, "vector", 1), (GL4, "vector", 1), (GL4, "exterior", 2),
    (SP4, "vector", 1), (SP6, "vector", 1), (SL2, "sl2", 1),
]


@pytest.mark.parametrize("ctx, kind, k", POWER_CASES)
def test_tensor_power_equals_per_element_reference(ctx, kind, k):
    c = build_minuscule(ctx, kind, k)
    for r, (labels, weights, e_maps) in enumerate(_reference_powers(c)):
        if c.n ** r > 4096:
            break
        power = tensor_power(c, r)
        assert power.labels == tuple(labels) and power.weights == tuple(weights)
        assert power.e_maps == e_maps
        for i, m in e_maps.items():
            f = {y: x for x, y in m.items()}
            assert [power.eps(i, x) for x in range(power.n)] == [_chain_length(m, x) for x in range(power.n)]
            assert [power.phi(i, x) for x in range(power.n)] == [_chain_length(f, x) for x in range(power.n)]


@pytest.mark.parametrize("ctx, kind, k", POWER_CASES)
def test_tensor_power_by_squaring_equals_the_left_nested_product(ctx, kind, k):
    c = build_minuscule(ctx, kind, k)
    nested = trivial_crystal(ctx)
    for r in range(13):
        if c.n ** r > 4096:
            break
        power = tensor_power(c, r)
        assert (power.labels, power.weights, power.e_maps) == (nested.labels, nested.weights, nested.e_maps)
        assert (power._eps, power._phi) == (nested._eps, nested._phi)
        nested = c if r == 0 else tensor(nested, c)


def _tables(c):
    return c.e_maps, c._f_maps, c._eps, c._phi


@pytest.mark.parametrize("ctx, kind, k", POWER_CASES)
def test_trusted_products_equal_a_validated_rebuild(ctx, kind, k):
    # tensor fills eps/phi by the tensor rule and skips validation; the
    # validating constructor walks the chains of the same graph
    c = build_minuscule(ctx, kind, k)
    powers = [tensor_power(c, r) for r in range(13) if c.n ** r <= 4096]
    products = [tensor(powers[a], powers[b])
                for a in range(len(powers)) for b in range(len(powers)) if c.n ** (a + b) <= 4096]
    for t in powers + products:
        assert _tables(Crystal(t.context, t.labels, t.e_maps, t.weights)) == _tables(t)


CENSUS_CASES = [
    # the crystals of the benchmark's one-shot requests
    (GL2, "vector", 1, 5), (GL2, "vector", 1, 7), (GL3, "vector", 1, 4), (GL3, "vector", 1, 5),
    (SL2, "sl2", 1, 6), (SL2, "sl2", 1, 8), (SP4, "vector", 1, 3), (SP4, "vector", 1, 4),
    *[(GL4, "exterior", 2, r) for r in range(5)],
    *[(SP6, "vector", 1, r) for r in range(4)],
]


@pytest.mark.parametrize("ctx, kind, k, r", CENSUS_CASES)
def test_census_counts_highest_weight_words(ctx, kind, k, r):
    # one component per highest-weight word, grouped by the word's final corner
    step = exterior(k) if kind == "exterior" else SL2_STEP if kind == "sl2" else VECTOR
    finals = Counter(w.corners[-1] for w in enumerate_hw_words(ctx, (step,) * r))
    c = build_minuscule(ctx, kind, k)
    census = decompose(c, r)
    assert {wt: count for wt, (count, _) in census.items()} == dict(finals)
    assert sum(count * size for count, size in census.values()) == c.n ** r


@pytest.mark.parametrize("ctx, kind, k, r", CENSUS_CASES)
def test_census_equals_the_materialized_census(ctx, kind, k, r):
    c = build_minuscule(ctx, kind, k)
    assert decompose(c, r) == materialized_census(c, r)


@pytest.mark.parametrize("ctx, kind, k, r", CENSUS_CASES)
def test_weyl_dimension_is_the_component_size(ctx, kind, k, r):
    # the formula alone, against every component of the materialized power
    power = tensor_power(build_minuscule(ctx, kind, k), r)
    for comp in power.components():
        (top,) = [x for x in comp if power.is_highest_weight(x)]
        assert weyl_dimension(ctx, power.weights[top]) == len(comp)


def test_census_of_a_one_element_crystal():
    c = build_minuscule(GL3, "exterior", 3)
    assert decompose(c, 0) == {(0, 0, 0): (1, 1)}
    assert decompose(c, 7) == {(7, 7, 7): (1, 1)} == materialized_census(c, 7)


def test_weyl_dimension_refuses_a_weight_that_is_not_dominant():
    GL2 = CartanContext("GL", 2)
    for ctx, wt in [(GL2, (0, 1)), (GL3, (0, 2, 0)), (CartanContext("Sp", 4), (0, 1))]:
        with pytest.raises(ValueError, match="not a dominant weight"):
            weyl_dimension(ctx, wt)
    # a crystal that is not normal: two isolated elements, one of weight
    # (0, 1), which is then a highest weight that is not dominant
    c = Crystal(GL2, ("a", "b"), {}, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="not a dominant weight"):
        decompose(c, 1)
