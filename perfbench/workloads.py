"""The four workloads.

Each workload builds its inputs in `setup`, runs one pass over all of them in
`run_pass` (the order comes from the seed and is the same in every pass of a
run, so that an operation's times can be matched across passes), runs a few
of its rounds in `probe_pass`, and hands back in
`samples` growth-diagram cells and matrix-entry pairs taken from its own
inputs, on which single layer calls are timed in a traced run.

Every check compares the program's output with a separate computation
(wall crossing, the classical tableau oracles, exact matrix identities,
reparsing) or with a property the method must have; none compares with a
stored copy of earlier output.
"""
from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from typing import Callable, Optional

from harness import Fault, Recorder
from layers import HALF, HECKE_BOXES, Calls

R = 6
GENS = [(p, q) for p in range(1, R + 1) for q in range(p + 1, R + 1)]
WINDOW_DEPTH = 4
CELL_SAMPLES = 600
ENTRY_SAMPLES = 400


def triangle_cells(m, w) -> list:
    """(kappa, lambda, nu) of every cell of the triangular diagram of w."""
    rows = m.growth.triangle_rows(w)
    return [(rows[a][j - 1], rows[a - 1][j], rows[a - 1][j + 1])
            for a in range(1, len(rows)) for j in range(1, len(rows[a]))]


def matrix_entries(mats, rng: random.Random, count: int) -> list:
    """Seeded pairs of nonzero entries drawn from the given matrices."""
    pool = [e for mat in mats for row in mat.entries for e in row if not e.is_zero()]
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


def standard_families(m) -> list:
    """The four r = 6 highest-weight-word families of the cactus suite."""
    W, Wo = m.weights, m.words
    return [
        ("GL(2) vector", W.CartanContext("GL", 2), (Wo.VECTOR,) * R),
        ("GL(3) vector", W.CartanContext("GL", 3), (Wo.VECTOR,) * R),
        ("GL(4) wedge2", W.CartanContext("GL", 4), (Wo.exterior(2),) * R),
        ("Sp(4) vector", W.CartanContext("Sp", 2), (Wo.VECTOR,) * R),
    ]


# -- cactus_tables -------------------------------------------------------------


class CactusTables:
    """Every generator s(p,q) on every word of the four r = 6 families, each
    result checked against wall crossing on the word's depth-4 window; then
    the defining relations through the tables and per-word involutions."""

    name = "cactus_tables"

    def setup(self, m, c: Calls, seed: int):
        rng = random.Random(seed)
        fams = []
        for name, ctx, kinds in standard_families(m):
            words = c.enumerate_words(ctx, kinds)
            order = list(range(len(words)))
            rng.shuffle(order)
            # windows: each word's depth-4 window, built on its first round;
            # verified: (x, p, q) -> corners of an action that passed every check
            fams.append(SimpleNamespace(name=name, ctx=ctx, words=words, order=order, windows={}, verified={},
                                        index={w.corners: k for k, w in enumerate(words)}))
        rng.shuffle(fams)
        return SimpleNamespace(m=m, families=fams)

    def run_pass(self, st, c: Calls, rec: Recorder) -> None:
        for fam in st.families:
            table = {g: [None] * len(fam.words) for g in GENS}
            for x in fam.order:
                self.word_round(c, rec, fam, x, table)
            self.relations(c, rec, fam, table)

    def probe_pass(self, st, c: Calls, rec: Recorder) -> None:
        fam = st.families[0]
        table = {g: [None] * len(fam.words) for g in GENS}
        for x in range(3):
            self.word_round(c, rec, fam, x, table)

    def samples(self, st, c: Calls, rng: random.Random):
        words = [w for fam in st.families for w in fam.words]
        cells = [cell for w in rng.sample(words, 60) for cell in triangle_cells(st.m, w)]
        return rng.sample(cells, min(CELL_SAMPLES, len(cells))), None

    def word_round(self, c: Calls, rec: Recorder, fam, x: int, table) -> None:
        """The 15 actions on word x.  On the word's first round each action
        is checked in full and the per-word involutions are checked; on
        later rounds an action that passed is compared with its verified
        result, and one that did not is checked in full again."""
        w = fam.words[x]
        first = x not in fam.windows
        if first:
            fam.windows[x] = c.build_cylinder(w, WINDOW_DEPTH)
        for p, q in GENS:
            rec.op(self.generator_op, c, w, p, q,
                   check=lambda res, p=p, q=q: self.check_generator(c, fam, w, p, q, *res, table, x))
        if not first:
            return
        label = f"{fam.name} {w}"
        rec.check(c.evacuation(c.evacuation(w)) == w, f"{label}: evacuation is not an involution")
        pr = c.promotion(w)
        rec.check(pr == c.act(c.cactus_word(R, ((1, R), (2, R))), w),
                  f"{label}: promotion != s(1,r) s(2,r)")
        rec.check(c.promotion_inverse(pr) == w, f"{label}: promotion_inverse does not undo promotion")
        for i in range(1, R):
            rec.check(c.tau(c.tau(w, i), i) == w, f"{label}: tau_{i} is not an involution")

    @staticmethod
    def generator_op(c: Calls, w, p: int, q: int):
        """The timed part of an operation: s(p,q) applied to w."""
        g = c.cactus_word(R, ((p, q),))
        return g, (c.act_prefix if p == 1 else c.act_inner)(g, w)

    @staticmethod
    def check_generator(c: Calls, fam, w, p: int, q: int, g, out, table, x: int) -> Optional[str]:
        table[(p, q)][x] = fam.index.get(out.corners)
        known = fam.verified.get((x, p, q))
        if known is not None:
            return None if out.corners == known else f"s({p},{q}) on {w}: gives {out}, verified {known} earlier"
        if out.corners[-1] != w.corners[-1]:
            return f"s({p},{q}) on {w}: final corner {out.corners[-1]} != {w.corners[-1]}"
        if not c.dominant(fam.ctx, out.corners):
            return f"s({p},{q}) on {w}: a corner is not dominant"
        try:
            c.word(fam.ctx, out.steps, out.corners)
        except ValueError as exc:
            return f"s({p},{q}) on {w}: not a highest-weight word ({exc})"
        crossed = c.wall_cross(g.gens[0], fam.windows[x])
        if crossed.rows[0] != out.corners:
            return f"s({p},{q}) on {w}: act gives {out}, wall crossing {crossed.rows[0]}"
        fam.verified[(x, p, q)] = out.corners
        return None

    @staticmethod
    def relations(c: Calls, rec: Recorder, fam, table) -> None:
        """The defining relations, read through the action tables."""
        if any(None in col for col in table.values()):
            rec.check(False, f"{fam.name}: an action left the family")
            return

        def ap(gens, x):
            for g in reversed(gens):
                x = table[g][x]
            return x

        xs = range(len(fam.words))
        for kind, params in c.admissible(R):
            if kind == "involution":
                pq = params
                good = all(ap([pq, pq], x) == x for x in xs)
            elif kind == "disjoint":
                pq, kl = params[:2], params[2:]
                good = all(ap([pq, kl], x) == ap([kl, pq], x) for x in xs)
            else:
                p, q, k, l = params
                good = all(ap([(p, q), (k, l)], x) == ap([(p + q - l, p + q - k), (p, q)], x) for x in xs)
            rec.check(good, f"{fam.name}: {kind} relation {params} fails")


# -- oracle_crosscheck ---------------------------------------------------------


class OracleCrosscheck:
    """Growth evacuation, promotion and s(i,i+2) against the Schützenberger,
    jeu-de-taquin and dual-Knuth oracles on every standard tableau with at
    most 8 boxes; tau_i against Bender-Knuth on every semistandard tableau
    inside (4,3,2,1) with entries <= 5."""

    name = "oracle_crosscheck"
    MAX_BOXES = 8
    BK_SHAPE = (4, 3, 2, 1)
    BK_ENTRIES = 5

    def setup(self, m, c: Calls, seed: int):
        O, W = m.oracles, m.weights
        syts = [t for n in range(1, self.MAX_BOXES + 1) for shape in O.partitions_of(n)
                for t in c.enumerate_syt(shape)]
        bound = W.Partition(self.BK_SHAPE)
        shapes = [sh for n in range(bound.size() + 1) for sh in O.partitions_of(n)
                  if bound.contains(W.Partition(sh))]
        ssyts = [t for sh in shapes for t in c.enumerate_ssyt(sh, self.BK_ENTRIES)]
        ops = [(self.syt_op, t) for t in syts] + [(self.ssyt_op, t) for t in ssyts]
        ctx = W.CartanContext("GL", max(len(self.BK_SHAPE), self.BK_ENTRIES))
        random.Random(seed).shuffle(ops)
        return SimpleNamespace(m=m, syts=syts, ssyts=ssyts, ops=ops, ctx=ctx)

    def run_pass(self, st, c: Calls, rec: Recorder) -> None:
        for fn, t in st.ops:
            rec.op(fn, c, st, t)

    def probe_pass(self, st, c: Calls, rec: Recorder) -> None:
        for t in [t for t in st.syts if t.n == 6][:4]:
            rec.op(self.syt_op, c, st, t)
        for t in st.ssyts[-4:]:
            rec.op(self.ssyt_op, c, st, t)

    def samples(self, st, c: Calls, rng: random.Random):
        words = [st.m.words.syt_to_word(t.rows, rank=len(t.rows)) for t in rng.sample(st.syts, 120)]
        cells = [cell for w in words for cell in triangle_cells(st.m, w)]
        return rng.sample(cells, min(CELL_SAMPLES, len(cells))), None

    @staticmethod
    def syt_op(c: Calls, st, t) -> Optional[str]:
        n = t.n
        w = c.syt_to_word(t.rows, len(t.rows))
        if c.word_to_syt(c.evacuation(w)) != c.evacuation_oracle(t).rows:
            return f"evacuation mismatch at {t}"
        if c.word_to_syt(c.promotion(w)) != c.promotion_oracle(t).rows:
            return f"promotion mismatch at {t}"
        for i in range(1, n - 1):
            g = c.cactus_word(n, ((i, i + 2),))
            out = (c.act_prefix if i == 1 else c.act_inner)(g, w)
            if c.word_to_syt(out) != c.dual_knuth(t, i).rows:
                return f"s({i},{i + 2}) disagrees with the dual Knuth move at {t}"
        return None

    @classmethod
    def ssyt_op(cls, c: Calls, st, t) -> Optional[str]:
        rank = st.ctx.rank
        seq = c.dual_sequence(t, cls.BK_ENTRIES)
        w = c.word_from_corners(st.ctx, [p.padded(rank) for p in seq])
        for i in range(1, cls.BK_ENTRIES):
            moved = c.tau(w, i)
            back = c.from_dual_sequence([c.partition(x for x in cor if x) for cor in moved.corners])
            if back != c.bender_knuth(t, i):
                return f"tau_{i} disagrees with Bender-Knuth at {t}"
        return None


# -- hecke_identities ----------------------------------------------------------


class HeckeIdentities:
    """The exact identity battery on every seminormal representation with 2
    to 6 boxes, the cactus relations as matrix identities up to 4 boxes, and
    the third tau-presentation relation at r = 5."""

    name = "hecke_identities"
    CACTUS_MAX_BOXES = 4
    TAU_PRESENTATION_R = 5

    def setup(self, m, c: Calls, seed: int):
        Q = m.qalgebra
        shapes = [sh for n in HECKE_BOXES for sh in m.oracles.partitions_of(n)]
        reps = {sh: c.rep(sh) for sh in shapes}
        rounds = [(self.battery, sh) for sh in shapes]
        rounds += [(self.cactus_relations, sh) for sh in shapes if sum(sh) <= self.CACTUS_MAX_BOXES]
        rounds += [(self.tau_presentation, sh) for sh in shapes if sum(sh) == self.TAU_PRESENTATION_R]
        rounds.append((self.conjugation, None))
        random.Random(seed).shuffle(rounds)
        return SimpleNamespace(m=m, reps=reps, rounds=rounds, neg2=Q.RationalFunction(-Q.q_int(2)))

    def run_pass(self, st, c: Calls, rec: Recorder) -> None:
        for fn, shape in st.rounds:
            fn(c, st, rec, shape)

    def probe_pass(self, st, c: Calls, rec: Recorder) -> None:
        for n in HECKE_BOXES:
            self.battery(c, st, rec, (n - 1, 1))
        self.cactus_relations(c, st, rec, (2, 1))
        self.tau_presentation(c, st, rec, (4, 1))
        self.conjugation(c, st, rec, None)

    def samples(self, st, c: Calls, rng: random.Random):
        H = st.m.hecke
        mats = []
        for shape in rng.sample(sorted(st.reps), 8):
            rep = st.reps[shape]
            for i in range(1, rep.r):
                mats += [H.u_matrix(rep, i), H.tau_matrix(rep, i), H.t_matrix(rep, i)]
        return None, matrix_entries(mats, rng, ENTRY_SAMPLES)

    @staticmethod
    def battery(c: Calls, st, rec: Recorder, shape) -> None:
        rep = st.reps[shape]
        n, d = rep.r, rep.dimension
        mm, eq = c.matmul[n], c.mateq
        ident = c.identity(d)
        us = {i: c.u(rep, i) for i in range(1, n)}
        ts = {i: c.t(rep, i) for i in range(1, n)}
        tinv = {i: c.t(rep, i, inverse=True) for i in range(1, n)}
        taus = {i: c.tau_matrix(rep, i) for i in range(1, n)}
        jms = {i: c.jm(rep, i) for i in range(n)}
        jm_half = {i: c.jm(rep, i, HALF) for i in range(n)}
        jm_neg_half = {i: c.jm(rep, i, -HALF) for i in range(n)}

        def ident_op(ok: Callable[[], bool], label: str) -> None:
            rec.op(lambda: None if ok() else f"{shape}: {label}")

        for i in range(1, n):
            ident_op(lambda: eq(mm(us[i], us[i]), c.scale(us[i], st.neg2)), f"u_{i}^2 != -[2]u_{i}")
            ident_op(lambda: eq(mm(taus[i], taus[i]), ident), f"tau_{i}^2 != 1")
            ident_op(lambda: eq(taus[i], mm(mm(jm_half[i - 1], ts[i]), jm_neg_half[i])),
                     f"tau_{i} != J^(1/2) t J^(-1/2)")
            ident_op(lambda: eq(mm(ts[i], tinv[i]), ident), f"t_{i} t_{i}^-1 != 1")
        for i in range(1, n - 1):
            u1, u2, t1, t2 = us[i], us[i + 1], ts[i], ts[i + 1]
            ident_op(lambda: eq(c.matsub(mm(mm(u1, u2), u1), u1), c.matsub(mm(mm(u2, u1), u2), u2)),
                     f"modified braid fails at {i}")
            ident_op(lambda: eq(mm(mm(t1, t2), t1), mm(mm(t2, t1), t2)), f"braid fails at {i}")
        for i in range(1, n):
            for j in range(i + 2, n):
                ident_op(lambda: eq(mm(us[i], us[j]), mm(us[j], us[i])), f"u_{i} u_{j} do not commute")
        for i in range(n):
            ident_op(lambda: eq(jms[i], c.jm_word_product(rep, i)), f"J_{i} != its braid-word product")
            for j in range(n):
                ident_op(lambda: eq(mm(jms[i], jms[j]), mm(jms[j], jms[i])), f"J_{i} J_{j} do not commute")
        for i in range(1, n):
            ident_op(lambda: all(c.is_zero_entry(us[i], a, b) for b in range(d) for a in range(d)
                                 if a != b and c.swap(rep, b, i) != a),
                     f"u_{i} couples a tableau with another than its {i}-swap")
        sig = c.sigma(rep)
        ident_op(lambda: eq(sig, taus[1]), "sigma_VV != tau_1")
        ident_op(lambda: eq(mm(sig, sig), ident), "sigma_VV is not an involution")
        ident_op(lambda: eq(mm(ts[1], c.t_sq_inv_sqrt(rep)), sig), "t (t^2)^(-1/2) != sigma_VV")

    @staticmethod
    def cactus_relations(c: Calls, st, rec: Recorder, shape) -> None:
        rep = st.reps[shape]
        r = rep.r
        ident = c.identity(rep.dimension)

        def image(*pairs):
            return c.cactus_matrix(c.cactus_word(r, pairs), rep)

        for kind, params in c.admissible(r):
            if kind == "involution":
                pq = params
                rec.op(lambda: None if c.mateq(image(pq, pq), ident) else f"{shape}: s{pq}^2 != 1")
            elif kind == "disjoint":
                pq, kl = params[:2], params[2:]
                rec.op(lambda: None if c.mateq(image(pq, kl), image(kl, pq))
                       else f"{shape}: disjoint relation {params} fails")
            else:
                p, q, k, l = params
                rec.op(lambda: None if c.mateq(image((p, q), (k, l)), image((p + q - l, p + q - k), (p, q)))
                       else f"{shape}: nested relation {params} fails")

    @staticmethod
    def tau_presentation(c: Calls, st, rec: Recorder, shape) -> None:
        """(tau_i q_{k-1} q_{k-j} q_{k-1})^2 = 1 for i + 1 < j < k <= r."""
        rep = st.reps[shape]
        r = rep.r
        ident = c.identity(rep.dimension)
        for i in range(1, r):
            for j in range(i + 2, r):
                for k in range(j + 1, r + 1):
                    seq = c.q_element(k - 1) + c.q_element(k - j) + c.q_element(k - 1) + (i,)
                    mat = c.tau_word_matrix(seq, rep)
                    rec.op(lambda: None if c.mateq(c.matmul[r](mat, mat), ident)
                           else f"{shape}: (tau_{i} q_{k - 1} q_{k - j} q_{k - 1})^2 != 1")

    @staticmethod
    def conjugation(c: Calls, st, rec: Recorder, _shape) -> None:
        """The 2x2 identity diag(q^r, q^-s) tau-block = t-block diag(q^-s, q^r)."""
        Q = st.m.qalgebra
        RF, LP, qi = Q.RationalFunction, Q.LaurentPoly, Q.q_int
        for a in range(2, 7):
            coeff = c.canon(qi(a - 1) * qi(a + 1), qi(a) * qi(a))
            d_tau = c.canon(LP.one(), qi(a))
            tau_block = c.matrix([[d_tau, coeff], [RF.one(), -d_tau]])
            t_block = c.matrix([[c.canon(LP.q(a), qi(a)), coeff], [RF.one(), c.canon(-LP.q(-a), qi(a))]])
            for rr in range(a + 1):
                ss = a - rr
                d1 = Q.QMatrix.diagonal([RF.q_power(rr), RF.q_power(-ss)])
                d2 = Q.QMatrix.diagonal([RF.q_power(-ss), RF.q_power(rr)])
                rec.op(lambda: None if c.mateq(c.matmul_block(d1, tau_block), c.matmul_block(t_block, d2))
                       else f"conjugation identity fails for a={a}, r={rr}")


# -- cli_requests --------------------------------------------------------------

# Requests per pass.  The ROADMAP defines one-shot CLI latency by `act` and
# `hecke matrix`, so those two make up the bulk of the mix; each other
# command is there for coverage of its layers and its input checks.
MIX = {"act": 72, "evacuate": 8, "promote": 8, "tau": 8, "cylinder": 8, "validate": 8,
       "hecke_matrix": 72, "oracle": 8, "crystal_decompose": 8}
BK_SHAPES = ((3, 2, 1), (3, 3, 1), (2, 2, 2), (4, 2, 1), (3, 2, 2))
# the shapes (taken in turn) and crystals requested are the same in every
# run; the seed picks the operator and index
HECKE_SHAPES = ((2, 1), (3, 1), (2, 2), (2, 1, 1), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
                (3, 2), (2, 2, 1), (3, 1, 1))
CRYSTALS = (("GL", 2, "vector", 5), ("GL", 2, "vector", 7), ("GL", 3, "vector", 4), ("GL", 3, "vector", 5),
            ("SL2", 1, "sl2", 6), ("SL2", 1, "sl2", 8), ("Sp", 2, "vector", 3), ("Sp", 2, "vector", 4))
FIXED_WORD = '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [1, 0], [1, 1], [2, 1]]}'
# Malformed requests, the same in every run.  Each must exit 2 or 3 with a
# one-line message; the first five are the known faults (see README).
MALFORMED = (
    ["act", "--word", "s(1,2)", "--json", "{}"],
    ["act", "--word", "s(1,2)", "--json", '{"context": {"family": "GL", "rank": 2}}'],
    ["evacuate", "--json", "[1]"],
    ["cylinder", "--depth", "0", "--json", FIXED_WORD],
    ["cylinder", "--depth", "-3", "--json", FIXED_WORD],
    ["act", "--word", "s(1,9)", "--json", FIXED_WORD],
    ["promote", "--json", "not json"],
    ["tau", "--i", "0", "--json", FIXED_WORD],
    ["evacuate", "--json", '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [0, 1]]}'],
    ["hecke", "matrix", "--shape", "3,2", "--op", "tau", "--i", "7"],
    ["hecke", "matrix", "--shape", "3,x"],
    ["oracle", "evacuate", "--tableau", "21/3"],
    ["--max-size", "100", "crystal", "decompose", "--family", "GL", "--rank", "2", "--r", "12"],
)
CELL_RE = re.compile(r"\s{2,}")


class CliRequests:
    """A seeded mix of one-shot requests through cli.main(argv), with a
    fixed share of malformed ones."""

    name = "cli_requests"

    def setup(self, m, c: Calls, seed: int, workdir: str = ".bench_out/requests"):
        rng = random.Random(seed)
        O, W, Wo = m.oracles, m.weights, m.words
        os.makedirs(workdir, exist_ok=True)
        syts = [t for n in (5, 6) for sh in O.partitions_of(n) if len(sh) <= 3 for t in O.enumerate_syt(sh)]
        ssyts = [t for sh in BK_SHAPES for t in O.enumerate_ssyt(sh, 5)]
        fams = [(ctx, Wo.enumerate_hw_words(ctx, kinds)) for _, ctx, kinds in standard_families(m)[2:]]
        st = SimpleNamespace(m=m, requests=[], windows=[], hecke=[], crystals=[],
                             bk_ctx=W.CartanContext("GL", 5))
        pool = SimpleNamespace(syts=syts, ssyts=ssyts, fams=fams, workdir=workdir)
        for command, count in MIX.items():
            make = getattr(self, command)
            st.requests += [make(st, rng, k, pool) for k in range(count)]
        st.requests += [("malformed", argv, self.check_malformed) for argv in MALFORMED]
        return st

    def run_pass(self, st, c: Calls, rec: Recorder) -> None:
        for req in st.requests:
            self.request_op(c, st, rec, req)

    def probe_pass(self, st, c: Calls, rec: Recorder) -> None:
        firsts = {}
        for req in st.requests:
            firsts.setdefault(req[0], req)
        for req in firsts.values():
            self.request_op(c, st, rec, req)

    def samples(self, st, c: Calls, rng: random.Random):
        m = st.m
        cells = []
        for rows, ctx in st.windows:
            win = [[m.weights.Weight(ctx, x) for x in row] for row in rows]
            cells += [(win[i + 1][j - 1], win[i][j], win[i][j + 1])
                      for i in range(len(win) - 1) for j in range(1, len(win[i]) - 1)]
        mats = [(c.tau_matrix if op == "tau" else c.u)(c.rep(shape), i) for shape, op, i in st.hecke]
        for family, rank, kind, r in st.crystals:
            crystal = m.words.parse_step_kind(kind).crystal(m.weights.CartanContext(family, rank))
            c.decompose(crystal, r)
        for _ in range(20):
            c.build_parser()
        return rng.sample(cells, min(CELL_SAMPLES, len(cells))), matrix_entries(mats, rng, ENTRY_SAMPLES)

    @staticmethod
    def request_op(c: Calls, st, rec: Recorder, req) -> None:
        """One request through cli.main; only the request itself is timed."""
        kind, argv, check = req

        def send():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = c.request[kind](argv)
            return code, out.getvalue(), err.getvalue()

        rec.op(send, check=lambda res: check(c, st, *res))

    # each request maker returns (command, argv, check); check(c, st, code, stdout, stderr)

    @staticmethod
    def _word_json(w) -> str:
        return json.dumps({"context": {"family": w.context.family, "rank": w.context.rank},
                           "corners": [list(x) for x in w.corners]})

    @staticmethod
    def _parse_word(c: Calls, code: int, out: str, err: str):
        if code != 0:
            raise Fault(f"exit {code}: {err.strip()}")
        return c.word_from_json(json.loads(out))

    def _tableau_request(self, command, st, rng, pool, argv_of, expect):
        """A request on the GL word of a standard tableau, checked against an
        oracle on the tableau itself."""
        t = rng.choice(pool.syts)
        w = st.m.words.syt_to_word(t.rows, rank=len(t.rows))
        argv, extra = argv_of(t, w)

        def check(c, st, code, out, err):
            got = self._parse_word(c, code, out, err)
            if got.corners[-1] != w.corners[-1]:
                return f"{command} {argv}: final corner changed"
            if c.word_to_syt(got) != expect(c, t, extra):
                return f"{command} {argv}: disagrees with the tableau oracle on {t}"
            return None

        return command, argv, check

    def act(self, st, rng, k, pool):
        if k % 2 == 0:
            def argv_of(t, w):
                n = t.n
                choice = rng.randrange(3)
                if choice == 0:
                    return ["act", "--word", f"s(1,{n})", "--json", self._word_json(w)], ("ev", 0)
                if choice == 1:
                    return ["act", "--word", f"s(1,{n}) s(2,{n})", "--json", self._word_json(w)], ("pr", 0)
                i = rng.randrange(1, n - 1)
                return ["act", "--word", f"s({i},{i + 2})", "--json", self._word_json(w)], ("dk", i)

            def expect(c, t, extra):
                how, i = extra
                if how == "ev":
                    return c.evacuation_oracle(t).rows
                if how == "pr":
                    return c.promotion_oracle(t).rows
                return c.dual_knuth(t, i).rows

            return self._tableau_request("act", st, rng, pool, argv_of, expect)
        ctx, words = rng.choice(pool.fams)
        w = rng.choice(words)
        p, q = rng.choice(GENS)
        argv = ["act", "--word", f"s({p},{q})", "--json", self._word_json(w)]

        def check(c, st, code, out, err):
            got = self._parse_word(c, code, out, err)
            if got.corners[-1] != w.corners[-1]:
                return f"act {argv}: final corner changed"
            if not c.dominant(ctx, got.corners):
                return f"act {argv}: a corner is not dominant"
            img = c.perm_image(c.cactus_word(R, ((p, q),)))
            if got.steps != tuple(w.steps[img[i] - 1] for i in range(R)):
                return f"act {argv}: factors are not permuted by the interval reversal"
            return None

        return "act", argv, check

    def evacuate(self, st, rng, k, pool):
        return self._tableau_request(
            "evacuate", st, rng, pool,
            lambda t, w: (["evacuate", "--json", self._word_json(w)], None),
            lambda c, t, extra: c.evacuation_oracle(t).rows)

    def promote(self, st, rng, k, pool):
        return self._tableau_request(
            "promote", st, rng, pool,
            lambda t, w: (["promote", "--json", self._word_json(w)], None),
            lambda c, t, extra: c.promotion_oracle(t).rows)

    def tau(self, st, rng, k, pool):
        t = rng.choice(pool.ssyts)
        i = rng.randrange(1, 5)
        seq = st.m.oracles.dual_sequence(t, 5)
        corners = [p.padded(5) for p in seq]
        argv = ["tau", "--i", str(i), "--json",
                json.dumps({"context": {"family": "GL", "rank": 5}, "corners": [list(x) for x in corners]})]

        def check(c, st, code, out, err):
            got = self._parse_word(c, code, out, err)
            if got.corners[-1] != corners[-1]:
                return f"tau {argv}: final corner changed"
            back = c.from_dual_sequence([c.partition(x for x in cor if x) for cor in got.corners])
            if back != c.bender_knuth(t, i):
                return f"tau_{i} on {t} disagrees with Bender-Knuth"
            return None

        return "tau", argv, check

    def cylinder(self, st, rng, k, pool):
        t = rng.choice(pool.syts)
        depth = rng.randrange(2, 5)
        w = st.m.words.syt_to_word(t.rows, rank=len(t.rows))
        argv = ["cylinder", "--depth", str(depth), "--json", self._word_json(w)]

        def check(c, st, code, out, err):
            if code != 0:
                raise Fault(f"exit {code}: {err.strip()}")
            payload = json.loads(out)
            rows = payload["rows"]
            if len(rows) != depth or tuple(tuple(x) for x in rows[0]) != w.corners:
                return f"cylinder {argv}: wrong depth or top row"
            expect = t
            for row in rows[1:]:
                expect = c.promotion_oracle(expect)
                if c.word_to_syt(c.word_from_corners(w.context, row)) != expect.rows:
                    return f"cylinder {argv}: a row is not the promotion of the row above"
            return None

        return "cylinder", argv, check

    def validate(self, st, rng, k, pool):
        """Windows built from oracle promotions (valid), the same with the
        second row replaced by another tableau (invalid), and plain words."""
        m = st.m
        kind = k % 3
        # a shape with at least two standard tableaux, so that a wrong second row exists
        t = rng.choice(pool.syts if kind == 0 else
                       [s for s in pool.syts if len(s.rows) > 1 and len(s.rows[0]) > 1])
        n_rows = len(t.rows)
        path = os.path.join(pool.workdir, f"validate_{k}.json")
        ctx = {"family": "GL", "rank": n_rows}
        if kind == 2:
            payload = json.loads(self._word_json(m.words.syt_to_word(t.rows, rank=n_rows)))
            expect_valid = True
        else:
            tabs = [t]
            for _ in range(rng.randrange(2, 4)):
                tabs.append(m.oracles.promotion_oracle(tabs[-1]))
            expect_valid = kind == 0
            if not expect_valid:
                others = [s for s in m.oracles.enumerate_syt(tuple(len(r) for r in t.rows)) if s != tabs[1]]
                tabs[1] = rng.choice(others)
            rows = [m.words.syt_to_word(s.rows, rank=n_rows).corners for s in tabs]
            payload = {"context": ctx, "rows": [[list(x) for x in row] for row in rows]}
            if expect_valid:
                st.windows.append((rows, m.weights.CartanContext("GL", n_rows)))
        with open(path, "w") as fh:
            json.dump(payload, fh)
        argv = ["validate", "--input", path]

        def check(c, st, code, out, err):
            want = (0, "valid") if expect_valid else (1, "invalid")
            if (code, out.strip()) != want:
                if code not in (0, 1):
                    raise Fault(f"exit {code}: {err.strip()}")
                return f"validate {path}: got {out.strip()!r}, expected {want[1]!r}"
            return None

        return "validate", argv, check

    def hecke_matrix(self, st, rng, k, pool):
        shape = HECKE_SHAPES[k % len(HECKE_SHAPES)]
        op = rng.choice(("tau", "u"))
        i = rng.randrange(1, sum(shape))
        st.hecke.append((shape, op, i))
        argv = ["hecke", "matrix", "--shape", ",".join(map(str, shape)), "--op", op, "--i", str(i)]
        n = sum(shape)

        def check(c, st, code, out, err):
            if code != 0:
                raise Fault(f"exit {code}: {err.strip()}")
            lines = out.strip().splitlines()
            basis = lines[0].split()[1:]
            mat = c.matrix([[c.parse(cell) for cell in CELL_RE.split(line.strip()[1:-1].strip())]
                            for line in lines[1:]])
            if mat.rows != len(basis) or mat.cols != len(basis):
                return f"hecke {argv}: {mat.rows}x{mat.cols} matrix for {len(basis)} basis tableaux"
            square = c.matmul[n](mat, mat)
            if op == "tau":
                good = c.mateq(square, c.identity(mat.rows))
            else:
                good = c.mateq(square, c.scale(mat, st.m.qalgebra.RationalFunction(-st.m.qalgebra.q_int(2))))
            return None if good else f"hecke {argv}: the printed matrix fails {op}^2"

        return "hecke_matrix", argv, check

    def oracle(self, st, rng, k, pool):
        """The oracle commands, checked against the growth-diagram path."""
        which = ("evacuate", "promote", "dk", "bk")[k % 4]
        if which == "bk":
            t = rng.choice(pool.ssyts)
            i = rng.randrange(1, 5)
            argv = ["oracle", "bk", "--tableau", str(t), "--i", str(i)]

            def expect(c, st):
                seq = c.dual_sequence(t, 5)
                w = c.word_from_corners(st.bk_ctx, [p.padded(5) for p in seq])
                moved = c.tau(w, i)
                return c.from_dual_sequence([c.partition(x for x in cor if x) for cor in moved.corners]).rows
        else:
            t = rng.choice(pool.syts)
            i = rng.randrange(1, t.n - 1)
            argv = ["oracle", which, "--tableau", str(t)] + (["--i", str(i)] if which == "dk" else [])

            def expect(c, st):
                w = c.syt_to_word(t.rows, len(t.rows))
                if which == "evacuate":
                    return c.word_to_syt(c.evacuation(w))
                if which == "promote":
                    return c.word_to_syt(c.promotion(w))
                act = c.act_prefix if i == 1 else c.act_inner
                return c.word_to_syt(act(c.cactus_word(t.n, ((i, i + 2),)), w))

        def check(c, st, code, out, err):
            if code != 0:
                raise Fault(f"exit {code}: {err.strip()}")
            got = tuple(tuple(r) for r in json.loads(out))
            return None if got == expect(c, st) else f"oracle {argv}: disagrees with the growth diagram"

        return "oracle", argv, check

    def crystal_decompose(self, st, rng, k, pool):
        """Component counts against the number of highest-weight words."""
        family, rank, kind, r = CRYSTALS[k]
        st.crystals.append(CRYSTALS[k])
        m = st.m
        ctx = m.weights.CartanContext(family, rank)
        step = m.words.parse_step_kind(kind)
        counts: dict = {}
        for w in m.words.enumerate_hw_words(ctx, (step,) * r):
            counts[w.corners[-1]] = counts.get(w.corners[-1], 0) + 1
        argv = ["crystal", "decompose", "--family", family, "--rank", str(rank), "--kind", kind, "--r", str(r)]

        def check(c, st, code, out, err):
            if code != 0:
                raise Fault(f"exit {code}: {err.strip()}")
            payload = json.loads(out)
            got = {tuple(x["weight"]): x["count"] for x in payload["components"]}
            total = sum(x["count"] * x["size"] for x in payload["components"])
            if got != counts or total != payload["crystal_size"] ** r:
                return f"crystal {argv}: census disagrees with the highest-weight words"
            return None

        return "crystal_decompose", argv, check

    @staticmethod
    def check_malformed(c, st, code, out, err):
        lines = err.strip().splitlines()
        if code not in (2, 3):
            raise Fault(f"malformed request exited {code}")
        if len(lines) != 1 or out or "Traceback" in err:
            raise Fault(f"malformed request printed {len(lines)} lines")
        return None


WORKLOADS = {w.name: w for w in (CactusTables(), OracleCrosscheck(), HeckeIdentities(), CliRequests())}
