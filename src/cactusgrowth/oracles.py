"""Independent classical tableau algorithms used as ground truth.

Everything here is implemented directly on tableau fillings: Schützenberger
evacuation and jeu-de-taquin promotion on standard tableaux, Bender-Knuth
toggles on semistandard tableaux, dual Knuth moves, Gelfand-Tsetlin pattern
conversions, and the prefix-reversal action on noncrossing perfect
matchings.  None of it touches the local-rule machinery; the only imported
neighbour is the partition type.

Conventions: tableau rows increase weakly (semistandard) or strictly
(standard) left to right and columns increase strictly top to bottom;
dual semistandard means strict rows and weak columns.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError
from .weights import Partition, conjugate, strip_check


class StripViolation(ValueError, DomainError):
    """A partition sequence fails its horizontal/vertical strip condition."""


# -- standard tableaux -------------------------------------------------------


class StandardTableau:
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = rows = tuple(tuple(r) for r in rows)
        n = sum(len(r) for r in rows)
        seen = sorted(v for r in rows for v in r)
        if seen != list(range(1, n + 1)):
            raise ValueError(f"entries must be 1..{n} exactly once")
        for r in rows:
            if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
                raise ValueError("rows must increase")
        for i in range(len(rows) - 1):
            if len(rows[i + 1]) > len(rows[i]):
                raise ValueError("shape must be a partition")
            if any(rows[i][j] >= rows[i + 1][j] for j in range(len(rows[i + 1]))):
                raise ValueError("columns must increase")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> StandardTableau:
        """A tableau whose rows are known to be standard, built without the checks."""
        t = object.__new__(cls)
        t.rows = rows
        return t

    def __eq__(self, other):
        return self.rows == other.rows if other.__class__ is StandardTableau else NotImplemented

    def __hash__(self):
        return hash(self.rows)

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    def position(self, value: int) -> tuple[int, int]:
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v == value:
                    return i, j
        raise ValueError(f"{value} not in tableau")

    def content(self, value: int) -> int:
        i, j = self.position(value)
        return j - i

    def __str__(self) -> str:
        return "/".join("".join(map(str, row)) for row in self.rows)


def syt_from_string(text: str) -> StandardTableau:
    """Parse '134/256' style single-digit rows (test convenience)."""
    return StandardTableau(tuple(tuple(int(ch) for ch in part) for part in text.split("/")))


def partitions_of(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def count_syt(shape: Sequence[int]) -> int:
    """Number of standard tableaux of a partition shape, by the hook-length
    formula; nothing is enumerated.

    >>> count_syt((3, 2))
    5
    """
    parts = tuple(shape)
    while parts and not parts[-1]:  # trailing zeros only: a zero inside is no partition
        parts = parts[:-1]
    if parts != tuple(sorted(parts, reverse=True)) or (parts and parts[-1] < 0):
        Partition(parts)  # raises the partition's own error
    cols = [sum(1 for p in parts if p > j) for j in range(max(parts, default=0))]
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(parts)) // hooks


@lru_cache(maxsize=None)
def enumerate_syt(shape: tuple[int, ...]) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the given shape, grown box by box: the
    tableaux of each shape inside it with k boxes are those with k - 1 boxes
    with k added at a corner.  They come in the order of recursive corner
    removal: by the row of the largest entry, top row first, then likewise
    for the rest."""
    shape = tuple(s for s in shape if s)
    level: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {(): [()]}
    for k in range(1, sum(shape) + 1):
        grown = {}
        for mu in level:
            for i in range(min(len(mu) + 1, len(shape))):
                part = mu[i] if i < len(mu) else 0
                if part < shape[i] and (i == 0 or mu[i - 1] > part):
                    grown[mu[:i] + (part + 1,) + mu[i + 1:]] = []
        for nu, tableaux in grown.items():
            for i in range(len(nu)):
                if i == len(nu) - 1 or nu[i] > nu[i + 1]:  # a corner: k sits there
                    mu = nu[:i] + (nu[i] - 1,) + nu[i + 1:] if nu[i] > 1 else nu[:i]
                    tableaux += [rows[:i] + (rows[i] + (k,),) + rows[i + 1:] if i < len(rows) else rows + ((k,),)
                                 for rows in level[mu]]
        level = grown
    return tuple(map(StandardTableau._trusted, level[shape]))


def _slide_hole(grid: dict[tuple[int, int], int], hole: tuple[int, int]) -> tuple[int, int]:
    """Jeu de taquin: repeatedly move the smaller of the right/below
    neighbours into the hole; returns the final hole position."""
    while True:
        i, j = hole
        right = grid.get((i, j + 1))
        below = grid.get((i + 1, j))
        if right is None and below is None:
            return hole
        if below is None or (right is not None and right < below):
            grid[(i, j)] = right
            del grid[(i, j + 1)]
            hole = (i, j + 1)
        else:
            grid[(i, j)] = below
            del grid[(i + 1, j)]
            hole = (i + 1, j)


def _grid_of(t: StandardTableau) -> dict[tuple[int, int], int]:
    return {(i, j): v for i, row in enumerate(t.rows) for j, v in enumerate(row)}


def _tableau_of(grid: dict[tuple[int, int], int]) -> StandardTableau:
    if not grid:
        return StandardTableau(())
    nrows = max(i for i, _ in grid) + 1
    rows = []
    for i in range(nrows):
        cols = sorted(j for (a, j) in grid if a == i)
        rows.append(tuple(grid[(i, j)] for j in cols))
    return StandardTableau(tuple(rows))


def promotion_oracle(t: StandardTableau) -> StandardTableau:
    """Jeu-de-taquin promotion: delete 1, slide the hole to a corner,
    decrement everything, and place n in the freed corner.

    >>> str(promotion_oracle(syt_from_string('12/34')))
    '13/24'
    """
    n = t.n
    if n == 0:
        return t
    grid = _grid_of(t)
    del grid[(0, 0)]
    hole = _slide_hole(grid, (0, 0))
    grid = {pos: v - 1 for pos, v in grid.items()}
    grid[hole] = n
    return _tableau_of(grid)


def evacuation_oracle(t: StandardTableau) -> StandardTableau:
    """Schützenberger evacuation via iterated delta steps: remove 1, slide,
    and record the vacated corner.

    >>> str(evacuation_oracle(syt_from_string('134/256')))
    '125/346'
    """
    n = t.n
    grid = _grid_of(t)
    out: dict[tuple[int, int], int] = {}
    for k in range(n):
        pos_one = min(grid, key=grid.get)
        del grid[pos_one]
        hole = _slide_hole(grid, pos_one)
        out[hole] = n - k
    return _tableau_of(out)


def dual_knuth(t: StandardTableau, i: int) -> StandardTableau:
    """The dual Knuth move on entries i, i+1, i+2: whichever of the three
    has the middle content stays put; if that is i+1 nothing moves, if it
    is i the entries i+1 and i+2 swap, and if it is i+2 then i and i+1 swap.
    """
    if not 1 <= i <= t.n - 2:
        raise ValueError(f"dual Knuth index {i} out of range")
    cs = {k: t.content(k) for k in (i, i + 1, i + 2)}
    middle = sorted(cs, key=cs.get)[1]
    if middle == i + 1:
        return t
    a, b = (i + 1, i + 2) if middle == i else (i, i + 1)
    rows = [[{a: b, b: a}.get(v, v) for v in row] for row in t.rows]
    return StandardTableau(tuple(tuple(r) for r in rows))


# -- semistandard tableaux and Gelfand-Tsetlin patterns ----------------------


class SemistandardTableau:
    """Weak rows, strict columns."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = rows = tuple(tuple(r) for r in rows)
        for r in rows:
            if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
                raise ValueError("rows must weakly increase")
        for i in range(len(rows) - 1):
            if len(rows[i + 1]) > len(rows[i]):
                raise ValueError("shape must be a partition")
            if any(rows[i][j] >= rows[i + 1][j] for j in range(len(rows[i + 1]))):
                raise ValueError("columns must strictly increase")

    def __eq__(self, other):
        return self.rows == other.rows if other.__class__ is SemistandardTableau else NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    def weight_vector(self, bound: int) -> tuple[int, ...]:
        return tuple(sum(1 for row in self.rows for v in row if v == k) for k in range(1, bound + 1))

    def __str__(self) -> str:
        return "/".join("".join(str(v) for v in row) for row in self.rows)


def gt_pattern(t: SemistandardTableau, length: int) -> list[Partition]:
    """The Gelfand-Tsetlin pattern: shapes of the entries <= k, k = 0..length.
    Successive shapes differ by horizontal strips, because the constructor
    of t makes each value set one."""
    return [Partition(tuple(sum(1 for v in row if v <= k) for row in t.rows)) for k in range(length + 1)]


def tableau_from_gt(seq: Sequence[Partition]) -> SemistandardTableau:
    """Inverse of gt_pattern (entries k fill the k-th strip)."""
    for k in range(len(seq) - 1):
        if not strip_check(seq[k], seq[k + 1], "horizontal"):
            raise StripViolation(f"step {k} is not a horizontal strip")
    return _fill_strips(seq)


def _fill_strips(seq: Sequence[Partition]) -> SemistandardTableau:
    """The tableau whose entries k fill seq[k] / seq[k-1]; the caller has
    checked that each step is a horizontal strip."""
    final = seq[-1]
    rows = [[0] * final.part(i) for i in range(final.length())]
    for k in range(1, len(seq)):
        inner, outer = seq[k - 1], seq[k]
        for i in range(outer.length()):
            for j in range(inner.part(i), outer.part(i)):
                rows[i][j] = k
    return SemistandardTableau(tuple(tuple(r) for r in rows))


def dual_sequence(t: SemistandardTableau, length: int) -> list[Partition]:
    """Conjugates of the Gelfand-Tsetlin pattern: the vertical-strip sequence
    of the conjugate (dual semistandard) tableau."""
    return [conjugate(p) for p in gt_pattern(t, length)]


def tableau_from_dual_sequence(seq: Sequence[Partition]) -> SemistandardTableau:
    """Inverse of dual_sequence; the vertical strips of seq are the
    horizontal strips of its conjugates, so they are checked once, here."""
    for k in range(len(seq) - 1):
        if not strip_check(seq[k], seq[k + 1], "vertical"):
            raise StripViolation(f"step {k} is not a vertical strip")
    return _fill_strips([conjugate(p) for p in seq])


def bender_knuth(t: SemistandardTableau, i: int) -> SemistandardTableau:
    """The classical toggle exchanging the multiplicities of i and i+1.

    An i with an i+1 directly below it (or vice versa) is locked; in each
    row the free i's and free i+1's form a block i^a (i+1)^b which is
    replaced by i^b (i+1)^a.
    """
    if i < 1:
        raise ValueError("toggle index must be >= 1")
    rows = [list(r) for r in t.rows]

    def entry(r: int, c: int) -> Optional[int]:
        if 0 <= r < len(rows) and 0 <= c < len(rows[r]):
            return rows[r][c]
        return None

    out = [list(r) for r in rows]
    for r, row in enumerate(rows):
        free = [c for c, v in enumerate(row)
                if (v == i and entry(r + 1, c) != i + 1) or (v == i + 1 and entry(r - 1, c) != i)]
        a = sum(1 for c in free if row[c] == i)
        for idx, c in enumerate(free):
            out[r][c] = i if idx < len(free) - a else i + 1
    return SemistandardTableau(tuple(tuple(r) for r in out))


def enumerate_ssyt(shape: tuple[int, ...], max_entry: int) -> Iterator[SemistandardTableau]:
    """All semistandard tableaux of the given shape with entries <= max_entry."""
    shape = tuple(s for s in shape if s)
    rows: list[list[int]] = [[0] * s for s in shape]
    cells = [(i, j) for i, s in enumerate(shape) for j in range(s)]

    def rec(k: int) -> Iterator[SemistandardTableau]:
        if k == len(cells):
            yield SemistandardTableau(tuple(tuple(r) for r in rows))
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, max_entry + 1):
            rows[i][j] = v
            yield from rec(k + 1)
        rows[i][j] = 0

    yield from rec(0)


# -- noncrossing perfect matchings -------------------------------------------


class Matching:
    """A noncrossing perfect matching on 1..r, stored as sorted pairs."""

    __slots__ = ("r", "pairs")

    def __init__(self, r: int, pairs: Iterable[tuple[int, int]]):
        self.r = r
        self.pairs = norm = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        points = sorted(x for p in norm for x in p)
        if points != list(range(1, r + 1)):
            raise ValueError(f"not a perfect matching on 1..{r}")
        if not _noncrossing(norm):
            raise ValueError(f"matching {norm} has a crossing")

    def __eq__(self, other):
        return (self.r == other.r and self.pairs == other.pairs
                if other.__class__ is Matching else NotImplemented)

    def __hash__(self):
        return hash((self.r, self.pairs))

    def __str__(self) -> str:
        return " ".join(f"({a},{b})" for a, b in self.pairs)


def _noncrossing(pairs: Sequence[tuple[int, int]]) -> bool:
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                return False
    return True


def all_matchings(r: int) -> list[Matching]:
    """All noncrossing perfect matchings on 1..r (Catalan(r/2) many)."""
    if r % 2:
        return []

    def rec(points: tuple[int, ...]) -> list[list[tuple[int, int]]]:
        if not points:
            return [[]]
        first = points[0]
        out = []
        for idx in range(1, len(points), 2):
            partner = points[idx]
            inside = points[1:idx]
            outside = points[idx + 1:]
            for m1 in rec(inside):
                for m2 in rec(outside):
                    out.append([(first, partner)] + m1 + m2)
        return out

    return [Matching(r, pairs) for pairs in rec(tuple(range(1, r + 1)))]


def matching_action(p: int, m: Matching) -> Matching:
    """The prefix-reversal action reversing the points 1..p.

    Pairs inside [1,p] reflect via x -> p+1-x; pairs beyond p are fixed;
    pairs straddling p keep their right endpoints while the reflected left
    endpoints re-pair with them in the unique noncrossing (nested) way.
    """
    if not 2 <= p <= m.r:
        raise ValueError(f"reversal length {p} out of range")
    fixed = [(a, b) for a, b in m.pairs if a > p]
    inner = [(p + 1 - b, p + 1 - a) for a, b in m.pairs if b <= p]
    lefts = sorted(p + 1 - a for a, b in m.pairs if a <= p < b)
    rights = sorted((b for a, b in m.pairs if a <= p < b), reverse=True)
    straddle = list(zip(lefts, rights))
    return Matching(m.r, fixed + inner + straddle)


def matching_to_syt(m: Matching) -> StandardTableau:
    """Two-row tableau with the openers on the first row."""
    openers = sorted(a for a, _ in m.pairs)
    closers = sorted(b for _, b in m.pairs)
    return StandardTableau((tuple(openers), tuple(closers)))


def matching_from_syt(t: StandardTableau) -> Matching:
    """Inverse bijection: each closer pairs with the nearest free opener."""
    if len(t.rows) != 2 or len(t.rows[0]) != len(t.rows[1]):
        raise ValueError("matchings correspond to rectangular two-row tableaux")
    openers = set(t.rows[0])
    stack: list[int] = []
    pairs = []
    for x in range(1, t.n + 1):
        if x in openers:
            stack.append(x)
        else:
            pairs.append((stack.pop(), x))
    return Matching(t.n, pairs)
