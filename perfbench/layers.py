"""Every call the benchmark makes into cactusgrowth, named by layer.

A Calls object binds each entry point the workloads use to a span name of
the form `<module>.<call>`.  With a Tracer every call records a span; without
one the attributes are the program's own functions (or a one-line adapter
where the call is an operator or a method).
"""
from __future__ import annotations

import importlib
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from harness import Tracer, plain

MODULES = ("weights", "words", "cactus", "growth", "crystal", "oracles", "qalgebra", "hecke", "cli")
HECKE_BOXES = range(2, 7)
HALF = Fraction(1, 2)
# request kinds of the cli_requests mix; each has its own span name
CLI_COMMANDS = ("act", "evacuate", "promote", "tau", "cylinder", "validate",
                "hecke_matrix", "oracle", "crystal_decompose", "malformed")


def fresh_import() -> SimpleNamespace:
    """Import cactusgrowth from scratch (dropping any earlier import), so
    that set-up time includes executing the package's modules."""
    for name in [n for n in sys.modules if n == "cactusgrowth" or n.startswith("cactusgrowth.")]:
        del sys.modules[name]
    importlib.import_module("cactusgrowth")
    return SimpleNamespace(**{n: importlib.import_module(f"cactusgrowth.{n}") for n in MODULES})


class Calls:
    def __init__(self, m: SimpleNamespace, tracer: Optional[Tracer] = None):
        w = tracer.wrap if tracer else plain
        W, Wo, C, G, O, Q, H = m.weights, m.words, m.cactus, m.growth, m.oracles, m.qalgebra, m.hecke

        self.dom_w = w("weights.dom_w", W.dom_w)
        self.dominant = w("weights.is_dominant",
                          lambda ctx, corners: all(W.is_dominant(W.Weight(ctx, c)) for c in corners))
        self.partition = w("weights.partition", W.Partition)

        self.word = w("words.construct", Wo.HighestWeightWord)
        self.word_from_corners = w("words.construct", Wo.word_from_corners)
        self.word_from_json = w("words.construct", Wo.word_from_json)
        self.syt_to_word = w("words.construct", Wo.syt_to_word)
        self.word_to_syt = w("words.to_syt", Wo.word_to_syt)
        self.tau = w("words.tau", Wo.tau)
        self.complete_cell = w("words.complete_cell", Wo.complete_cell)
        self.enumerate_words = w("words.enumerate", Wo.enumerate_hw_words)

        self.cactus_word = w("cactus.word",
                             lambda r, pairs: C.CactusWord(r, tuple(C.CactusGen(p, q) for p, q in pairs)))
        self.admissible = w("cactus.admissible", C.admissible_pairs)
        self.perm_image = w("cactus.perm_image", C.perm_image)
        self.q_element = w("cactus.q_element", C.q_element)

        self.act_prefix = w("growth.act_prefix", G.act)
        self.act_inner = w("growth.act_inner", G.act)
        self.act = w("growth.act", G.act)
        self.evacuation = w("growth.evacuation", G.evacuation)
        self.promotion = w("growth.promotion", G.promotion)
        self.promotion_inverse = w("growth.promotion_inverse", G.promotion_inverse)
        self.build_cylinder = w("growth.build_cylinder", G.build_cylinder)
        self.wall_cross = w("growth.wall_cross", G.wall_cross)

        self.decompose = w("crystal.decompose", m.crystal.decompose)

        self.enumerate_syt = w("oracles.enumerate", lambda shape: list(O.enumerate_syt(shape)))
        self.enumerate_ssyt = w("oracles.enumerate", lambda shape, k: list(O.enumerate_ssyt(shape, k)))
        self.evacuation_oracle = w("oracles.evacuation", O.evacuation_oracle)
        self.promotion_oracle = w("oracles.promotion", O.promotion_oracle)
        self.dual_knuth = w("oracles.dual_knuth", O.dual_knuth)
        self.bender_knuth = w("oracles.bender_knuth", O.bender_knuth)
        self.dual_sequence = w("oracles.dual_sequence", O.dual_sequence)
        self.from_dual_sequence = w("oracles.from_dual_sequence", O.tableau_from_dual_sequence)

        self.canon = w("qalgebra.canon", Q.RationalFunction)
        self.mul = w("qalgebra.mul", lambda a, b: a * b)
        self.add = w("qalgebra.add", lambda a, b: a + b)
        self.render = w("qalgebra.render", Q.render_rational)
        self.parse = w("qalgebra.parse", Q.parse_rational)
        self.matrix = w("qalgebra.matrix", Q.QMatrix)
        self.identity = w("qalgebra.identity", Q.QMatrix.identity)
        self.mateq = w("qalgebra.mateq", lambda a, b: a == b)
        self.matsub = w("qalgebra.matsub", lambda a, b: a - b)
        self.scale = w("qalgebra.scale", lambda a, c: a.scale(c))
        self.is_zero_entry = w("qalgebra.entry", lambda a, i, j: a[i, j].is_zero())
        # products named by the box count of the representation they act in
        self.matmul = {n: w(f"qalgebra.matmul.n{n}", Q.matmul) for n in HECKE_BOXES}
        self.matmul_block = w("qalgebra.matmul.block", Q.matmul)

        self.rep = w("hecke.rep_build", H.SeminormalRep)
        self.swap = w("hecke.swap", lambda rep, k, i: rep.swap(k, i))
        self.u = w("hecke.generator", H.u_matrix)
        self.t = w("hecke.generator", H.t_matrix)
        self.tau_matrix = w("hecke.generator", H.tau_matrix)
        self.jm = w("hecke.generator", H.jm_matrix)
        self.sigma = w("hecke.generator", H.sigma_vv)
        self.t_sq_inv_sqrt = w("hecke.generator", H.t_squared_inverse_sqrt)
        self.jm_word_product = w("hecke.jm_word_product", H.jm_word_product)
        self.cactus_matrix = w("hecke.cactus_matrix", H.cactus_matrix)
        self.tau_word_matrix = w("hecke.tau_word_matrix", H.tau_word_matrix)

        self.build_parser = w("cli.build_parser", m.cli.build_parser)
        self.request = {cmd: w(f"cli.request.{cmd}", m.cli.main) for cmd in CLI_COMMANDS}
