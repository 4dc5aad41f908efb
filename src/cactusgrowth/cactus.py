"""The cactus group as formal generator words.

Generators s(p,q) for 1 <= p < q <= r satisfy: each s(p,q) is an involution,
s(p,q) and s(k,l) commute when the intervals [p,q] and [k,l] are disjoint,
and s(p,q) s(k,l) = s(p+q-l, p+q-k) s(p,q) when [k,l] sits inside [p,q].
No normal form is attempted; equality of group elements is always tested
through an action (the symmetric-group image or a highest-weight-word
action).  Composition is right-to-left: the last generator of a word acts
first.  The relations as word pairs, and the tau-presentation relators, are
in suites, their one user.
"""
from __future__ import annotations

import re
from typing import Callable, TypeVar

T = TypeVar("T")


class CactusGen:
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if not 1 <= p < q:
            raise ValueError(f"generator needs 1 <= p < q, got ({p}, {q})")
        self.p = p
        self.q = q

    def __eq__(self, other):
        return self.p == other.p and self.q == other.q if other.__class__ is CactusGen else NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __str__(self) -> str:
        return f"s({self.p},{self.q})"


class TauGen:
    __slots__ = ("i",)

    def __init__(self, i: int):
        if i < 1:
            raise ValueError(f"tau index must be >= 1, got {i}")
        self.i = i


class CactusWord:
    __slots__ = ("r", "gens")

    def __init__(self, r: int, gens: tuple[CactusGen, ...]):
        for g in gens:
            if g.q > r:
                raise ValueError(f"{g} out of bounds for r={r}")
        self.r = r
        self.gens = gens

    def __eq__(self, other):
        return (self.r == other.r and self.gens == other.gens
                if other.__class__ is CactusWord else NotImplemented)

    def __hash__(self):
        return hash((self.r, self.gens))

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.gens) if self.gens else "e"


def word(r: int, *pairs: tuple[int, int]) -> CactusWord:
    return CactusWord(r, tuple(CactusGen(p, q) for p, q in pairs))


def gen_perm(g: CactusGen, r: int) -> tuple[int, ...]:
    """The interval reversal: i -> p+q-i on [p, q], identity elsewhere
    (1-indexed positions, returned as a tuple of images)."""
    return tuple(g.p + g.q - i if g.p <= i <= g.q else i for i in range(1, r + 1))


def perm_image(w: CactusWord) -> tuple[int, ...]:
    """Image of the word in the symmetric group; rightmost generator first.

    >>> perm_image(word(3, (1, 3)))
    (3, 2, 1)
    >>> perm_image(word(3, (1, 3), (1, 2), (1, 3)))
    (1, 3, 2)
    """
    img = tuple(range(1, w.r + 1))
    for g in w.gens:
        gp = gen_perm(g, w.r)
        img = tuple(img[gp[i - 1] - 1] for i in range(1, w.r + 1))
    return img


def reduce_to_s1q(g: CactusGen, r: int) -> CactusWord:
    """Express s(p,q) as a word in prefix reversals s(1,*).

    Uses s(p,q) = s(1,q) s(1,q-p+1) s(1,q), derived from the nesting
    relation; for p = 1 the generator is returned unchanged.
    """
    if g.p == 1:
        return CactusWord(r, (g,))
    inner = g.q - g.p + 1
    return word(r, (1, g.q), (1, inner), (1, g.q))


def act_word(w: CactusWord, x: T, apply_gen: Callable[[CactusGen, T], T]) -> T:
    """Fold a word over an action, rightmost generator first."""
    for g in reversed(w.gens):
        x = apply_gen(g, x)
    return x


def admissible_pairs(r: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every admissible (kind, params) instance of the defining relations."""
    gens = [(p, q) for p in range(1, r + 1) for q in range(p + 1, r + 1)]
    out: list[tuple[str, tuple[int, ...]]] = []
    for p, q in gens:
        out.append(("involution", (p, q)))
    for p, q in gens:
        for k, l in gens:
            if q < k:
                out.append(("disjoint", (p, q, k, l)))
            elif p <= k and l <= q and (p, q) != (k, l):
                out.append(("nested", (p, q, k, l)))
    return out


# -- conversion between the s(p,q) and tau generator systems ----------------


def q_element(i: int) -> tuple[int, ...]:
    """The prefix-reversal element q_i as a tau word:
    tau_1 (tau_2 tau_1) ... (tau_i ... tau_1).  q_0 is empty."""
    out: list[int] = []
    for j in range(1, i + 1):
        out.extend(range(j, 0, -1))
    return tuple(out)


def s_to_tau(g: CactusGen) -> tuple[int, ...]:
    """s(i,j) as a tau word: q_{j-1} q_{j-i} q_{j-1}."""
    i, j = g.p, g.q
    return q_element(j - 1) + q_element(j - i) + q_element(j - 1)


# -- text grammar ------------------------------------------------------------

_GEN_RE = re.compile(r"s\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_cactus_word(text: str, r: int) -> CactusWord:
    """Parse the grammar 's(1,4) s(2,3)'; the empty string is the identity."""
    s = text.strip()
    if not s or s == "e":
        return CactusWord(r, ())
    gens = []
    pos = 0
    for m in _GEN_RE.finditer(s):
        if s[pos:m.start()].strip():
            raise ValueError(f"unparsed text {s[pos:m.start()]!r} in cactus word")
        gens.append(CactusGen(int(m.group(1)), int(m.group(2))))
        pos = m.end()
    if s[pos:].strip():
        raise ValueError(f"unparsed text {s[pos:]!r} in cactus word")
    return CactusWord(r, tuple(gens))

