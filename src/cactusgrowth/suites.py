"""Exhaustive invariant suites shared by `verify` and the acceptance tests.

Each suite function returns a SuiteReport with the number of checks run and
a list of failure descriptions (empty on success).  All checks are exact;
there are no tolerances anywhere.  The cactus relations are read from
relation_words and the tau-presentation relators from tau_relators, both
for the word action and for seminormal matrices;
check_hecke_shape is the identity battery of one Hecke shape, run by
check_hecke on every shape and by `hecke check` on one.  SUITES, at the
end, is the one table of suite bounds and acceptance budgets.
"""
from __future__ import annotations

import random
from functools import reduce
from typing import Callable, NamedTuple, Sequence

from . import cactus as cact
from . import crystal as crys
from . import growth, hecke, oracles, windows, words
from .cactus import CactusGen, CactusWord, TauGen, q_element, word
from .qalgebra import LaurentPoly, QMatrix, RationalFunction, q_int
from .weights import GL, SL2, SP, CartanContext, dom, dominant, weyl_orbit
from .words import StepKind, enumerate_hw_words


class BadParams(ValueError):
    """Relation parameters do not satisfy the relation's side condition."""


def relation_words(kind: str, params: Sequence[int], r: int) -> tuple[CactusWord, CactusWord]:
    """The two words a defining relation equates.

    kind 'involution': params (p, q);  s(p,q) s(p,q) = e.
    kind 'disjoint':   params (p, q, k, l) with [p,q] and [k,l] disjoint:
                       s(p,q) s(k,l) = s(k,l) s(p,q).
    kind 'nested':     params (p, q, k, l) with [k,l] inside [p,q]:
                       s(p,q) s(k,l) = s(p+q-l, p+q-k) s(p,q).
    """
    if kind == "involution":
        p, q = params
        return word(r, (p, q), (p, q)), word(r)
    if kind == "disjoint":
        p, q, k, l = params
        if not (q < k or l < p):
            raise BadParams(f"[{p},{q}] and [{k},{l}] are not disjoint")
        return word(r, (p, q), (k, l)), word(r, (k, l), (p, q))
    if kind == "nested":
        p, q, k, l = params
        if not (p <= k < l <= q):
            raise BadParams(f"[{k},{l}] is not nested in [{p},{q}]")
        return word(r, (p, q), (k, l)), word(r, (p + q - l, p + q - k), (p, q))
    raise BadParams(f"unknown relation kind {kind!r}")


def relation_check(kind: str, params: Sequence[int], r: int,
                   action: Callable[[CactusWord, object], object], x: object) -> bool:
    """Check a defining relation (see relation_words) on one point of an action."""
    lhs, rhs = relation_words(kind, params, r)
    return action(lhs, x) == action(rhs, x)


def tau_to_s(t: TauGen, r: int) -> CactusWord:
    """tau_i as a word in prefix reversals."""
    i = t.i
    if i >= r:
        raise ValueError(f"tau_{i} needs r > {i}")
    if i == 1:
        return word(r, (1, 2))
    if i == 2:
        return word(r, (1, 2), (1, 3), (1, 2))
    return word(r, (1, i), (1, i + 1), (1, i), (1, i - 1))


def tau_relators(r: int) -> list[tuple[tuple[int, int, int], tuple[int, ...]]]:
    """The third relation of the tau presentation at r strands: for every
    i+1 < j < k <= r, the tau word q_{k-1} q_{k-j} q_{k-1} tau_i (a
    conjugate of tau_i q_{k-1} q_{k-j} q_{k-1}) squares to the identity.
    Returns ((i, j, k), tau word) pairs."""
    return [
        ((i, j, k), q_element(k - 1) + q_element(k - j) + q_element(k - 1) + (i,))
        for i in range(1, r) for j in range(i + 2, r) for k in range(j + 1, r + 1)
    ]


class SuiteReport:
    __slots__ = ("name", "checks", "failures")

    def __init__(self, name: str, checks: int = 0, failures: list[str] | None = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    def ok(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(message)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.passed else f"{len(self.failures)} FAILED"
        return f"{self.name}: {self.checks} checks, {status}"


def standard_word_suites(r: int) -> list[tuple[str, CartanContext, tuple[StepKind, ...]]]:
    """The four exhaustive highest-weight-word families used throughout."""
    gl2 = CartanContext(GL, 2)
    gl3 = CartanContext(GL, 3)
    gl4 = CartanContext(GL, 4)
    sp4 = CartanContext(SP, 2)
    return [
        ("GL(2) vector", gl2, (words.VECTOR,) * r),
        ("GL(3) vector", gl3, (words.VECTOR,) * r),
        ("GL(4) wedge2", gl4, (words.exterior(2),) * r),
        ("Sp(4) vector", sp4, (words.VECTOR,) * r),
    ]


def _action_tables(ctx: CartanContext, kinds: Sequence[StepKind]):
    """Precompute the action of every generator on every word of the family."""
    all_words = enumerate_hw_words(ctx, kinds)
    index = {w: k for k, w in enumerate(all_words)}
    r = len(kinds)
    tables: dict[tuple[int, int], list[int]] = {}
    for p in range(1, r + 1):
        for q in range(p + 1, r + 1):
            g = CactusWord(r, (CactusGen(p, q),))
            tables[(p, q)] = [index[growth.act(g, w)] for w in all_words]
    return all_words, tables


def _apply(tables, w: CactusWord, x: int) -> int:
    """Apply a word rightmost-first through the lookup tables."""
    for g in reversed(w.gens):
        x = tables[(g.p, g.q)][x]
    return x


def check_cactus(r_max: int) -> SuiteReport:
    """Defining relations of the cactus group under the word action, the
    permutation image homomorphism, tau involutivity and locality, and the
    s(1,*) reduction, exhaustively."""
    rep = SuiteReport(f"cactus relations (r <= {r_max})")
    for r in range(2, r_max + 1):
        pairs = cact.admissible_pairs(r)
        for kind, params in pairs:
            rep.ok(
                relation_check(kind, params, r, lambda w, x: _perm_on(w, x), tuple(range(1, r + 1))),
                f"perm image fails {kind} {params} at r={r}",
            )
        for name, ctx, kinds in standard_word_suites(r):
            all_words, tables = _action_tables(ctx, kinds)
            n = len(all_words)
            for kind, params in pairs:
                lhs, rhs = relation_words(kind, params, r)
                good = all(_apply(tables, lhs, x) == _apply(tables, rhs, x) for x in range(n))
                rep.ok(good, f"{name} r={r}: {kind} {params} fails on the word action")
            # tau involutivity and distant commutation on the same families
            for i in range(1, r):
                good = all(words.tau(words.tau(w, i), i) == w for w in all_words)
                rep.ok(good, f"{name} r={r}: tau_{i} not involutive")
                for j in range(i + 2, r):
                    good = all(
                        words.tau(words.tau(w, i), j) == words.tau(words.tau(w, j), i) for w in all_words
                    )
                    rep.ok(good, f"{name} r={r}: tau_{i}, tau_{j} do not commute")
            # the s(1,q) reduction acts like the generator it rewrites
            for p in range(1, r + 1):
                for q in range(p + 1, r + 1):
                    reduced = cact.reduce_to_s1q(CactusGen(p, q), r)
                    direct = tables[(p, q)]
                    good = all(_apply(tables, reduced, x) == direct[x] for x in range(n))
                    rep.ok(good, f"{name} r={r}: reduction of s({p},{q}) acts differently")
            # evacuation involutivity
            good = all(growth.evacuation(growth.evacuation(w)) == w for w in all_words)
            rep.ok(good, f"{name} r={r}: evacuation not involutive")
    # tau <-> s dictionary round trip on permutation images
    for r in range(2, r_max + 1):
        for p in range(1, r + 1):
            for q in range(p + 1, r + 1):
                g = CactusGen(p, q)
                tau_word = cact.s_to_tau(g)
                perm = tuple(range(1, r + 1))
                for i in reversed(tau_word):
                    perm = _perm_on(tau_to_s(TauGen(i), r), perm)
                rep.ok(
                    perm == _perm_on(CactusWord(r, (g,)), tuple(range(1, r + 1))),
                    f"tau dictionary round trip fails for s({p},{q}) at r={r}",
                )
    return rep


def _perm_on(w: CactusWord, x: tuple[int, ...]) -> tuple[int, ...]:
    img = cact.perm_image(w)
    return tuple(x[img[i] - 1] for i in range(len(x)))


def check_tau_presentation(r: int) -> SuiteReport:
    """The third relation of the tau presentation,
    (tau_i q_{k-1} q_{k-j} q_{k-1})^2 = 1 for i+1 < j < k, on the word
    action for GL(2) and GL(3) families."""
    rep = SuiteReport(f"tau presentation (r = {r})")
    for name, ctx, kinds in standard_word_suites(r)[:2]:
        all_words = enumerate_hw_words(ctx, kinds)
        for (i, j, k), seq in tau_relators(r):
            good = all(reduce(words.tau, seq[::-1] * 2, w) == w for w in all_words)  # rightmost tau first
            rep.ok(good, f"{name}: (tau_{i} q_{k-1} q_{k-j} q_{k-1})^2 != 1")
    return rep


def check_hecke_shape(shape: Sequence[int], rep: SuiteReport | None = None) -> SuiteReport:
    """The exact identity battery in the seminormal representation of one
    shape (drives `hecke check`); records into rep when given."""
    shape = tuple(shape)
    if rep is None:
        rep = SuiteReport(f"hecke identities for shape {shape}")
    n = sum(shape)
    neg2 = RationalFunction(-q_int(2))
    srep = hecke.SeminormalRep(shape)
    ident = QMatrix.identity(srep.dimension)
    us = {i: hecke.u_matrix(srep, i) for i in range(1, n)}
    ts = {i: hecke.t_matrix(srep, i) for i in range(1, n)}
    taus = {i: hecke.tau_matrix(srep, i) for i in range(1, n)}
    for i in range(1, n):
        rep.ok(us[i] * us[i] == us[i].scale(neg2), f"{shape}: u_{i}^2 != -[2]u_{i}")
        rep.ok(taus[i] * taus[i] == ident, f"{shape}: tau_{i}^2 != 1")
        rep.ok(taus[i] == hecke.tau_via_jm(srep, i), f"{shape}: tau_{i} != J^(1/2) t J^(-1/2)")
        rep.ok(
            ts[i] * hecke.t_matrix(srep, i, inverse=True) == ident,
            f"{shape}: t_{i} t_{i}^-1 != 1",
        )
    for i in range(1, n - 1):
        rep.ok(
            us[i] * us[i + 1] * us[i] - us[i] == us[i + 1] * us[i] * us[i + 1] - us[i + 1],
            f"{shape}: modified braid fails at {i}",
        )
        rep.ok(ts[i] * ts[i + 1] * ts[i] == ts[i + 1] * ts[i] * ts[i + 1], f"{shape}: braid fails at {i}")
    for i in range(1, n):
        for j in range(i + 2, n):
            rep.ok(us[i] * us[j] == us[j] * us[i], f"{shape}: u_{i} u_{j} do not commute")
    jms = {i: hecke.jm_matrix(srep, i) for i in range(n)}
    for i in range(n):
        rep.ok(jms[i] == hecke.jm_word_product(srep, i), f"{shape}: J_{i} word product mismatch")
        for j in range(n):
            rep.ok(jms[i] * jms[j] == jms[j] * jms[i], f"{shape}: J_{i} J_{j} do not commute")
    # off-block entries vanish: u_i couples only T and its i-swap
    for i in range(1, n):
        for a in range(srep.dimension):
            for b in range(srep.dimension):
                if a != b and srep.swap(b, i) != a:
                    rep.ok(us[i][a, b].is_zero(), f"{shape}: u_{i} couples non-swap pair")
    if n >= 2:
        sig = hecke.sigma_vv(srep)
        rep.ok(sig == taus[1], f"{shape}: sigma_VV != tau_1")
        rep.ok(sig * sig == ident, f"{shape}: sigma_VV not involutive")
        rep.ok(
            ts[1] * hecke.t_squared_inverse_sqrt(srep) == sig,
            f"{shape}: t (t^2)^(-1/2) != sigma_VV",
        )
    return rep


def check_hecke(max_boxes: int) -> SuiteReport:
    """Exact matrix identities in every seminormal representation with at
    most max_boxes boxes."""
    rep = SuiteReport(f"hecke seminormal (shapes <= {max_boxes} boxes)")
    for n in range(2, max_boxes + 1):
        for shape in oracles.partitions_of(n):
            check_hecke_shape(shape, rep)
    # the 2x2 conjugation identity, as a pure q-identity for a <= 6
    for a in range(2, 7):
        tau_block = _formula_block(a, tau_diag=True)
        t_block = _formula_block(a, tau_diag=False)
        for rr in range(0, a + 1):
            ss = a - rr
            d1 = QMatrix.diagonal([RationalFunction.q_power(rr), RationalFunction.q_power(-ss)])
            d2 = QMatrix.diagonal([RationalFunction.q_power(-ss), RationalFunction.q_power(rr)])
            rep.ok(d1 * tau_block == t_block * d2, f"conjugation identity fails for a={a}, r={rr}")
    return rep


def _formula_block(a: int, tau_diag: bool) -> QMatrix:
    coeff = RationalFunction(q_int(a - 1) * q_int(a + 1), q_int(a) * q_int(a))
    one = RationalFunction.one()
    if tau_diag:
        d1 = RationalFunction(LaurentPoly.one(), q_int(a))
        d2 = -d1
    else:
        d1 = RationalFunction(LaurentPoly.q(a), q_int(a))
        d2 = RationalFunction(-LaurentPoly.q(-a), q_int(a))
    return QMatrix([[d1, coeff], [one, d2]])


def check_hecke_cactus(r_max: int, max_boxes: int, bk_r: int) -> SuiteReport:
    """Cactus relations as exact matrix identities, plus the third relation
    of the tau presentation on seminormal matrices."""
    rep = SuiteReport("cactus relations in seminormal matrices")
    for r in range(2, r_max + 1):
        for shape in oracles.partitions_of(r):
            if sum(shape) > max_boxes:
                continue
            srep = hecke.SeminormalRep(shape)
            for kind, params in cact.admissible_pairs(r):
                lhs, rhs = relation_words(kind, params, r)
                rep.ok(hecke.cactus_matrix(lhs, srep) == hecke.cactus_matrix(rhs, srep),
                       f"{shape}: {kind} {params} fails")
    # (tau_i q_{k-1} q_{k-j} q_{k-1})^2 = 1, admissible triples at r = bk_r
    for shape in oracles.partitions_of(bk_r):
        srep = hecke.SeminormalRep(shape)
        ident = QMatrix.identity(srep.dimension)
        for (i, j, k), seq in tau_relators(bk_r):
            m = hecke.tau_word_matrix(seq, srep)
            rep.ok(m * m == ident, f"{shape}: (tau_{i} q_{k-1} q_{k-j} q_{k-1})^2 != 1")
    return rep


def check_oracles(max_boxes: int, bk_shape: tuple[int, ...], bk_entries: int) -> SuiteReport:
    """Growth-diagram operations against the classical tableau algorithms."""
    rep = SuiteReport(f"oracle equivalence (tableaux <= {max_boxes} boxes)")
    for n in range(1, max_boxes + 1):
        for shape in oracles.partitions_of(n):
            for t in oracles.enumerate_syt(shape):
                w = words.syt_to_word(t.rows, rank=len(shape))
                rep.checks += 3
                if words.word_to_syt(growth.evacuation(w)) != oracles.evacuation_oracle(t).rows:
                    rep.failures.append(f"evacuation mismatch at {t}")
                if words.word_to_syt(growth.promotion(w)) != oracles.promotion_oracle(t).rows:
                    rep.failures.append(f"promotion mismatch at {t}")
                bad = False
                for i in range(1, n - 1):
                    g = CactusWord(n, (CactusGen(i, i + 2),))
                    if words.word_to_syt(growth.act(g, w)) != oracles.dual_knuth(t, i).rows:
                        bad = True
                if bad:
                    rep.failures.append(f"dual Knuth mismatch at {t}")
    # Bender-Knuth against the conjugate-sequence local move, on int tuples
    shapes = [sh for n in range(sum(bk_shape) + 1) for sh in oracles.partitions_of(n)
              if len(sh) <= len(bk_shape) and all(a <= b for a, b in zip(sh, bk_shape))]
    ctx = CartanContext(GL, max(len(bk_shape), bk_entries))
    for sh in sorted(shapes):
        for t in oracles.enumerate_ssyt(sh, bk_entries):
            w = words.word_from_corners(ctx, oracles.conjugates(oracles.gt_levels(t.rows, bk_entries), ctx.rank))
            for i in range(1, bk_entries):
                rep.checks += 1
                if oracles.rows_from_dual_corners(words.tau(w, i).corners) != oracles.bender_knuth_rows(t.rows, i):
                    rep.failures.append(f"BK mismatch at {t}, i={i}")
    # matching action preserves noncrossing and matches the figure bijection
    for r in range(2, 9, 2):
        for m in oracles.all_matchings(r):
            for p in range(2, r + 1):
                out = oracles.matching_action(p, m)
                rep.ok(len(out.pairs) == r // 2, f"matching action broke {m}")
    return rep


def materialized_census(c: crys.Crystal, r: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The census of crys.decompose read off the materialized B^r: its
    components, each with exactly one highest-weight element, grouped by
    that element's weight, with equal sizes within a group."""
    power = crys.tensor_power(c, r)
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    for comp in power.components():
        hws = [x for x in comp if power.is_highest_weight(x)]
        if len(hws) != 1:
            raise ValueError(f"component with {len(hws)} highest weight elements")
        key = power.weights[hws[0]]
        count, size = out.get(key, (0, 0))
        if count and size != len(comp):
            raise ValueError(f"components of weight {key} have unequal sizes")
        out[key] = (count + 1, len(comp))
    return out


def check_crystal(r_max: int, catalan_r: int) -> SuiteReport:
    """Brute-force crystal checks: the census against the materialized power,
    Catalan counts, rectify equivalence, tensor associativity, and the
    word/element dictionary."""
    rep = SuiteReport("crystal brute force")
    gl2 = crys.build_minuscule(CartanContext(GL, 2), "vector")
    gl3 = crys.build_minuscule(CartanContext(GL, 3), "vector")
    sl2 = crys.build_minuscule(CartanContext(SL2, 1), "sl2")
    for c, name in ((gl2, "GL(2)"), (gl3, "GL(3)"), (sl2, "SL2")):
        for r in range(0, r_max + 1):
            census = crys.decompose(c, r)
            rep.ok(census == materialized_census(c, r), f"{name} r={r}: census {census} disagrees with B^{r}")
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for r in range(0, catalan_r + 1):
        power = crys.tensor_power(sl2, r)
        count = sum(1 for x in power.highest_weight_elements() if power.weights[x] == (0,))
        expected = catalan[r // 2] if r % 2 == 0 else 0
        rep.ok(count == expected, f"SL2 r={r}: {count} weight-0 highest elements, expected {expected}")
        rep.ok(count == len(oracles.all_matchings(r)), f"SL2 r={r}: matchings disagree")
    # rectification through rectangles == raising-operator ascent
    for r in range(1, r_max + 1):
        power = crys.tensor_power(gl2, r)
        for x in range(power.n):
            target = power.rectify(x)
            got = _rectify_via_rectangle(gl2, r, x)
            rep.ok(got == tuple(_letters_path(gl2, r, target)[1:]),
                   f"GL(2) r={r}: rectangle rectify disagrees at {x}")
    # tensor associativity on labelled graphs
    for c in (gl2, sl2, gl3):
        rep.ok(_associativity_holds(c), f"associativity fails for {c}")
    # built crystals have Weyl-transitive weight sets
    sp4 = crys.build_minuscule(CartanContext(SP, 2), "vector")
    wedge = crys.build_minuscule(CartanContext(GL, 4), "exterior", 2)
    for c in (gl2, gl3, sl2, sp4, wedge):
        rep.ok(crys.weyl_orbit_weights(c), f"{c} weights not a single orbit")
    # highest weight characterization in B (x) C
    for b, c in ((gl2, gl2), (sl2, sl2), (gl3, gl3)):
        t = crys.tensor(b, c)
        for x in range(b.n):
            for y in range(c.n):
                idx = x * c.n + y
                predicted = b.is_highest_weight(x) and all(
                    c.eps(i, y) <= b.phi(i, x) for i in b.context.index_set()
                )
                rep.ok(t.is_highest_weight(idx) == predicted, f"hw characterization fails at {idx}")
    # epsilon/phi of a tensor pair from the factor statistics, against the
    # chains that the validating constructor walks in the product graph
    for b, c in ((gl2, gl2), (sl2, sl2), (gl3, gl3), (sp4, sp4)):
        product = crys.tensor(b, c)
        t = crys.Crystal(product.context, product.labels, product.e_maps, product.weights)
        for x in range(b.n):
            for y in range(c.n):
                idx = x * c.n + y
                for i in b.context.index_set():
                    eps = b.eps(i, x) + max(0, c.eps(i, y) - b.phi(i, x))
                    phi = c.phi(i, y) + max(0, b.phi(i, x) - c.eps(i, y))
                    rep.ok(t.eps(i, idx) == eps, f"eps formula fails at {idx}")
                    rep.ok(t.phi(i, idx) == phi, f"phi formula fails at {idx}")
    return rep


def _letters_path(base: crys.Crystal, r: int, x: int) -> list[tuple[int, ...]]:
    """Partial-weight corner path of a pure tensor element (base-n digits)."""
    digits = []
    idx = x
    for _ in range(r):
        digits.append(idx % base.n)
        idx //= base.n
    digits.reverse()
    path = [(0,) * base.context.rank]
    for d in digits:
        path.append(tuple(a + b for a, b in zip(path[-1], base.weights[d])))
    return path


def _rectify_via_rectangle(base: crys.Crystal, r: int, x: int):
    """Rectify an arbitrary pure tensor through a rectangular diagram with a
    single-row highest-weight padding word on the left."""
    ctx = base.context
    left = words.word_from_corners(ctx, [(k,) + (0,) * (ctx.rank - 1) for k in range(r + 1)])
    base_point = left.corners[-1]
    path = _letters_path(base, r, x)
    top = [tuple(a + b for a, b in zip(base_point, c)) for c in path]
    return windows.complete_rectangle(ctx, top, left.corners).bottom_row()[1:]


def _associativity_holds(c: crys.Crystal) -> bool:
    left = crys.tensor(crys.tensor(c, c), c)
    right = crys.tensor(c, crys.tensor(c, c))
    if left.n != right.n:
        return False
    # (x*n + y)*n + z on the left corresponds to x*n^2 + (y*n + z) on the right
    n = c.n
    relabel = {(x * n + y) * n + z: x * n * n + y * n + z for x in range(n) for y in range(n) for z in range(n)}
    for i in left.context.index_set():
        lmap = {relabel[a]: relabel[b] for a, b in left.e_maps[i].items()}
        if lmap != right.e_maps[i]:
            return False
    return left.weights == tuple(right.weights[relabel[k]] for k in range(left.n))


def check_morphism() -> SuiteReport:
    """The local move is a crystal morphism: on small materialized tensor
    powers, the permutation of components induced by tau_i commutes with
    every raising operator."""
    rep = SuiteReport("tau is a crystal morphism")
    for ctx, kind, r in ((CartanContext(GL, 2), "vector", 3), (CartanContext(GL, 3), "vector", 3),
                         (CartanContext(SL2, 1), "sl2", 4)):
        base = crys.build_minuscule(ctx, kind)
        power = crys.tensor_power(base, r)
        weight_to_letter = {w: i for i, w in enumerate(base.weights)}
        word_to_element = {}
        for x in power.highest_weight_elements():
            path = _letters_path(base, r, x)
            word_to_element[tuple(path)] = x
        for i in range(1, r):
            mapping = _morphism_from_tau(base, power, r, i, word_to_element, weight_to_letter)
            good = len(set(mapping.values())) == power.n
            for x in range(power.n):
                for j in ctx.index_set():
                    ex = power.e(j, x)
                    if ex is None:
                        good = good and power.e(j, mapping[x]) is None
                    else:
                        good = good and power.e(j, mapping[x]) == mapping[ex]
            rep.ok(good, f"{ctx} r={r}: tau_{i} does not extend to a morphism")
    return rep


def _morphism_from_tau(base, power, r, i, word_to_element, weight_to_letter):
    ctx = base.context
    mapping: dict[int, int] = {}
    for corners, x in word_to_element.items():
        w = words.word_from_corners(ctx, corners)
        target = words.tau(w, i)
        y = word_to_element[tuple(target.corners)]
        # extend from the highest weight element down its component by f-paths
        stack = [(x, y)]
        seen = {x}
        mapping[x] = y
        while stack:
            a, b = stack.pop()
            for j in ctx.index_set():
                fa, fb = power.f(j, a), power.f(j, b)
                if (fa is None) != (fb is None):
                    raise ValueError("component shapes differ")
                if fa is not None and fa not in seen:
                    seen.add(fa)
                    mapping[fa] = fb
                    stack.append((fa, fb))
    return mapping


def check_wall_crossing(r_max: int) -> SuiteReport:
    """Cross-implementation equality: the wall-crossing operator on windows
    agrees with the evacuation-based action on the top row, for every
    generator, on the exhaustive GL(2) family, through windows of depth 4."""
    rep = SuiteReport(f"wall crossing vs action (GL(2), r <= {r_max})")
    ctx = CartanContext(GL, 2)
    for r in range(2, r_max + 1):
        for w in enumerate_hw_words(ctx, (words.VECTOR,) * r):
            win = growth.build_cylinder(w, 4)
            for p in range(1, r + 1):
                for q in range(p + 1, r + 1):
                    crossed = growth.wall_cross(CactusGen(p, q), win)
                    direct = growth.act(CactusWord(r, (CactusGen(p, q),)), w)
                    rep.ok(
                        crossed.row_word(0) == direct,
                        f"r={r}, s({p},{q}) on {w}: wall crossing disagrees with the action",
                    )
                    rep.ok(windows.validate_window(crossed), f"r={r}: crossed window invalid")
    return rep


def check_algebra(seed: int) -> SuiteReport:
    """Quantum-integer identities, and exact field axioms and the render/parse
    round trip on 40 random rational functions each."""
    rep = SuiteReport("exact q-arithmetic")
    for m in range(-10, 11):
        for n in range(-10, 11):
            rep.ok(
                q_int(m) * q_int(n + 1) - q_int(m + 1) * q_int(n) == q_int(m - n),
                f"[{m}][{n}+1] - [{m}+1][{n}] != [{m}-{n}]",
            )
    for a in range(1, 21):
        rep.ok(q_int(a - 1) + q_int(a + 1) == q_int(2) * q_int(a), f"[a-1]+[a+1] != [2][a] at a={a}")
        rep.ok(
            q_int(a) * q_int(a) - q_int(a - 1) * q_int(a + 1) == LaurentPoly.one(),
            f"[a]^2 - [a-1][a+1] != 1 at a={a}",
        )
    rng = random.Random(seed)

    def rand_poly() -> LaurentPoly:
        return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))})

    def rand_ratfn() -> RationalFunction:
        den = LaurentPoly.zero()
        while den.is_zero():
            den = rand_poly()
        return RationalFunction(rand_poly(), den)

    for _ in range(40):
        x, y, z = rand_ratfn(), rand_ratfn(), rand_ratfn()
        rep.ok((x + y) + z == x + (y + z), "associativity of + fails")
        rep.ok((x * y) * z == x * (y * z), "associativity of * fails")
        rep.ok(x * (y + z) == x * y + x * z, "distributivity fails")
        rep.ok(x + y == y + x and x * y == y * x, "commutativity fails")
        if not x.is_zero():
            rep.ok(x * x.inverse() == RationalFunction.one(), "inverse fails")
        # canonicalization idempotence: rebuilding from the stored pair is a no-op
        rebuilt = RationalFunction(x.num, x.den)
        rep.ok(rebuilt == x, "canonical form is not idempotent")
    from .qalgebra import parse_rational, render_rational

    for _ in range(40):
        x = rand_ratfn()
        rep.ok(parse_rational(render_rational(x)) == x, f"render/parse round trip fails on {x}")
    return rep


def check_weights() -> SuiteReport:
    """dom orbit constancy (exhaustive small ranks), strip conditions."""
    rep = SuiteReport("weights and dominance")
    from itertools import product as iproduct

    for family, rank in ((GL, 2), (GL, 3), (GL, 4), (SP, 2), (SP, 3), (SL2, 1)):
        ctx = CartanContext(family, rank)
        bound = 3 if rank <= 3 else 2
        for coords in iproduct(range(-bound, bound + 1), repeat=rank):
            d = dom(family, coords)
            rep.ok(dominant(family, d), f"dom({coords}) not dominant in {ctx}")
            rep.ok(dom(family, d) == d, f"dom not idempotent at {coords}")
            for orb in weyl_orbit(family, coords):
                if dom(family, orb) != d:
                    rep.ok(False, f"dom not orbit-constant at {coords} in {ctx}")
                    break
            else:
                rep.ok(True, "")
    return rep


class Suite(NamedTuple):
    """One row of SUITES: the check, its kwargs under `verify --tiny`, its
    kwargs at the acceptance bounds (what plain `verify` runs), and the id of
    the acceptance criterion it belongs to (None for none)."""
    check: Callable[..., SuiteReport]
    tiny: dict
    full: dict
    acceptance: int | None


# The one place for suite bounds and budgets.  `verify` runs the rows in this
# order (cli._COMMANDS lists the same names), --r and --maxsize replacing
# r_max and max_boxes; acceptance id k runs its rows within BUDGETS[k] s.
SUITES: dict[str, Suite] = {
    "algebra": Suite(check_algebra, {"seed": 0}, {"seed": 0}, None),
    "weights": Suite(check_weights, {}, {}, None),
    "crystal": Suite(check_crystal, {"r_max": 3, "catalan_r": 6}, {"r_max": 5, "catalan_r": 10}, 5),
    "cactus": Suite(check_cactus, {"r_max": 3}, {"r_max": 6}, 3),
    "taupresentation": Suite(check_tau_presentation, {"r": 5}, {"r": 5}, 3),
    "hecke": Suite(check_hecke, {"max_boxes": 4}, {"max_boxes": 6}, 4),
    "heckecactus": Suite(check_hecke_cactus, {"r_max": 3, "max_boxes": 3, "bk_r": 4},
                         {"r_max": 4, "max_boxes": 4, "bk_r": 5}, 4),
    "oracle": Suite(check_oracles, {"max_boxes": 5, "bk_shape": (2, 2, 1), "bk_entries": 4},
                    {"max_boxes": 8, "bk_shape": (4, 3, 2, 1), "bk_entries": 5}, 2),
    "morphism": Suite(check_morphism, {}, {}, 5),
    "wallcross": Suite(check_wall_crossing, {"r_max": 3}, {"r_max": 5}, 6),
}
BUDGETS: dict[int, float] = {2: 30.0, 3: 60.0, 4: 60.0, 5: 30.0, 6: 30.0}
