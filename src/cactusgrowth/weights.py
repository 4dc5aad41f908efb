"""Weights, dominance, and the partition type for the supported Cartan families.

Three families are supported: GL(n) with integer-vector weights, Sp(2n)
with weights in the standard epsilon-coordinate lattice, and SL2, which is
Sp(2) in every formula here: its one coordinate is <wt, alpha_check> and
its simple root is (2,).  SL2 keeps its own family tag, name and rank-1
check.  dom picks the dominant representative of a Weyl orbit: sort for
GL, absolute values then sort for Sp and SL2.  Corners are plain int
tuples: dom, dominant, local_rule and weyl_orbit are what every internal
path computes with.  Weight (with its + and -), CartanContext.weight,
dom_w and is_dominant remain only because the benchmark's layer probes
call Weight, dom_w and is_dominant.  Partition is the checked partition
type of the public edges; the tableau oracles, with conjugate and the
strip tests, run on int tuples in oracles.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from operator import ge
from typing import Iterable, Sequence

from .errors import DomainError

GL = "GL"
SL2 = "SL2"
SP = "Sp"

_FAMILIES = (GL, SL2, SP)

Corner = tuple[int, ...]
# bound on memoized local-rule cells; far above the few hundred distinct
# cells of the exhaustive workloads
_LOCAL_RULE_CACHE = 4096


class ContextMismatch(ValueError, DomainError):
    """Two weights or crystals from different Cartan contexts were combined."""


class CartanContext:
    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if family == SL2 and rank != 1:
            raise ValueError("SL2 has rank 1")
        self.family = family
        self.rank = rank

    def __eq__(self, other):
        return (self.family == other.family and self.rank == other.rank
                if other.__class__ is CartanContext else NotImplemented)

    def __hash__(self):
        return hash((self.family, self.rank))

    def index_set(self) -> range:
        """Dynkin node labels: 1..n-1 for GL(n), 1..n for Sp(2n) and SL2."""
        return range(1, self.rank if self.family == GL else self.rank + 1)

    def simple_root(self, i: int) -> tuple[int, ...]:
        n = self.rank
        if i not in self.index_set():
            raise ValueError(f"node {i} not in index set of {self}")
        coords = [0] * n
        if i == n:  # Sp's long root 2 e_n (SL2's (2,)); GL has no node n
            coords[n - 1] = 2
        else:
            coords[i - 1] = 1
            coords[i] = -1
        return tuple(coords)

    def weight(self, coords: Sequence[int]) -> "Weight":
        return Weight(self, tuple(coords))

    def __str__(self) -> str:
        if self.family == SL2:
            return "SL2"
        if self.family == GL:
            return f"GL({self.rank})"
        return f"Sp({2 * self.rank})"


class Weight:
    __slots__ = ("context", "coords")

    def __init__(self, context: CartanContext, coords: tuple[int, ...]):
        if len(coords) != context.rank:
            raise ValueError(f"coords {coords} do not match rank {context.rank}")
        self.context = context
        self.coords = coords

    def __eq__(self, other):
        return (self.context == other.context and self.coords == other.coords
                if other.__class__ is Weight else NotImplemented)

    def __hash__(self):
        return hash((self.context, self.coords))

    def __add__(self, other: "Weight") -> "Weight":
        _same_context(self, other)
        return Weight(self.context, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        _same_context(self, other)
        return Weight(self.context, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coords) + "]"


def _same_context(a: Weight, b: Weight) -> None:
    if a.context != b.context:
        raise ContextMismatch(f"{a.context} vs {b.context}")


def dominant(family: str, c: Sequence[int]) -> bool:
    """Dominance of a coordinate tuple in the given family, in one C-level pass."""
    return all(map(ge, c, c[1:])) and (family == GL or c[-1] >= 0)


def dom(family: str, c: Sequence[int]) -> tuple[int, ...]:
    """The dominant representative of the Weyl orbit of a coordinate tuple."""
    if family == GL:
        return tuple(sorted(c, reverse=True))
    return tuple(sorted((abs(x) for x in c), reverse=True))


@lru_cache(maxsize=_LOCAL_RULE_CACHE)
def local_rule(family: str, kappa: Corner, lam: Corner, nu: Corner) -> Corner:
    """The minuscule local rule mu = dom_W(kappa + nu - lam) on coordinate tuples.

    Memoized: growth diagrams revisit very few distinct cells (every
    s(p,q) on every r = 6 word of the four standard families applies the
    rule about 137k times on 380 distinct cells), so a bounded cache turns
    almost every application into one lookup, and equal results share one
    tuple.  Arguments must be hashable, i.e. int tuples.
    """
    return dom(family, [k + n - l for k, l, n in zip(kappa, lam, nu)])


def is_dominant(w: Weight) -> bool:
    return dominant(w.context.family, w.coords)


def dom_w(w: Weight) -> Weight:
    """The unique dominant weight in the Weyl orbit of w.

    >>> ctx = CartanContext('GL', 4)
    >>> dom_w(ctx.weight([1, 2, 1, 0])).coords
    (2, 1, 1, 0)
    >>> dom_w(CartanContext('Sp', 2).weight([-1, 2])).coords
    (2, 1)
    """
    return Weight(w.context, dom(w.context.family, w.coords))


def weyl_orbit(family: str, c: Sequence[int]) -> frozenset[Corner]:
    """All coordinate tuples in the Weyl orbit of a coordinate tuple."""
    if family == GL:
        return frozenset(permutations(c))
    out = set()
    for perm in permutations(c):
        for signs in product(*[((1,) if c == 0 else (1, -1)) for c in perm]):
            out.add(tuple(s * c for s, c in zip(signs, perm)))
    return frozenset(out)


class Partition:
    """A partition; trailing zeros are stripped so equality ignores them."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if not dominant(GL, parts):
            raise ValueError(f"{parts} is not weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError(f"{parts} has negative parts")
        self.parts = parts

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is Partition else NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self.parts) > n:
            raise ValueError(f"{self} does not fit in {n} rows")
        return self.parts + (0,) * (n - len(self.parts))

    def contains(self, other: "Partition") -> bool:
        return len(other.parts) <= len(self.parts) and all(a <= b for a, b in zip(other.parts, self.parts))

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"
