"""Independent classical tableau algorithms used as ground truth.

Everything here is implemented directly on tableau fillings: Schützenberger
evacuation and jeu-de-taquin promotion on standard tableaux, Bender-Knuth
toggles on semistandard tableaux, dual Knuth moves, Gelfand-Tsetlin pattern
conversions, and the prefix-reversal action on noncrossing perfect
matchings.  None of it touches the local-rule machinery or the growth path;
the only imported neighbour is the partition type.

The algorithms run on plain int tuples: tableau rows are tuples of ints,
and partitions, like the corners of a word, are weakly decreasing int
tuples, zero-padded where they share one width (`conjugate` and
`strip_check` take them so).  StandardTableau, SemistandardTableau and
Partition are the checked constructors at the public edges; what the
algorithms build is a tableau by construction and is built unchecked,
through `_trusted`.

Conventions: tableau rows increase weakly (semistandard) or strictly
(standard) left to right and columns increase strictly top to bottom;
dual semistandard means strict rows and weak columns.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence

from .errors import DomainError
from .weights import Corner, Partition

Rows = tuple[tuple[int, ...], ...]


class StripViolation(ValueError, DomainError):
    """A partition sequence fails its horizontal/vertical strip condition."""


def conjugate(p: Corner) -> Corner:
    """Transpose of the Young diagram of a partition (trailing zeros allowed).

    >>> conjugate((4, 2, 1, 0))
    (3, 2, 1, 1)
    """
    out = []
    i = len(p)
    for j in range(p[0] if p else 0):
        while p[i - 1] <= j:  # row i - 1 does not reach column j
            i -= 1
        out.append(i)
    return tuple(out)


def strip_check(inner: Corner, outer: Corner, kind: str) -> bool:
    """True when outer/inner is a horizontal or vertical strip of partitions
    (trailing zeros allowed).

    Horizontal: at most one added box per column, i.e. the parts interlace,
    outer[0] >= inner[0] >= outer[1] >= inner[1] >= ...
    Vertical: at most one added box per row.
    """
    if kind not in ("horizontal", "vertical"):
        raise ValueError(f"kind must be horizontal or vertical, got {kind!r}")
    n = max(len(inner), len(outer))
    inner, outer = inner + (0,) * (n - len(inner)), outer + (0,) * (n - len(outer))
    if kind == "horizontal":
        return all(a <= b for a, b in zip(inner, outer)) and all(b <= a for a, b in zip(inner, outer[1:]))
    return all(0 <= b - a <= 1 for a, b in zip(inner, outer))


# -- standard tableaux -------------------------------------------------------


class _Tableau:
    """Nonempty rows of entries >= 1 in a partition shape, with strictly
    increasing columns and rows that increase by at least _row_step;
    compared and hashed by rows within one class."""

    __slots__ = ()
    _row_step = 0

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = rows = tuple(tuple(r) for r in rows)
        if not all(r and r[0] >= 1 for r in rows):
            raise ValueError("rows must be nonempty, with entries >= 1")
        step = self._row_step
        for r in rows:
            if any(r[i] + step > r[i + 1] for i in range(len(r) - 1)):
                raise ValueError("rows must increase" if step else "rows must weakly increase")
        for above, row in zip(rows, rows[1:]):
            if len(row) > len(above):
                raise ValueError("shape must be a partition")
            if any(a >= b for a, b in zip(above, row)):
                raise ValueError("columns must strictly increase")

    @classmethod
    def _trusted(cls, rows: Rows):
        """A tableau whose rows are known to be valid, built without the checks."""
        t = object.__new__(cls)
        t.rows = rows
        return t

    def __eq__(self, other):
        return self.rows == other.rows if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    def __str__(self) -> str:
        return "/".join("".join(map(str, row)) for row in self.rows)


class StandardTableau(_Tableau):
    """Strict rows and columns, entries 1..n each once."""

    __slots__ = ("rows",)
    _row_step = 1

    def __init__(self, rows: Iterable[Iterable[int]]):
        super().__init__(rows)
        n = self.n
        if sorted(v for r in self.rows for v in r) != list(range(1, n + 1)):
            raise ValueError(f"entries must be 1..{n} exactly once")

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def content(self, value: int) -> int:
        """Column minus row of value."""
        for i, row in enumerate(self.rows):
            if value in row:
                return row.index(value) - i
        raise ValueError(f"{value} not in tableau")


def rows_from_string(text: str) -> tuple[tuple[int, ...], ...]:
    """The rows of a '134/256' style tableau, one ASCII digit per entry; an
    empty row is left for the tableau constructors to refuse."""
    parts = text.split("/")
    for part in parts:
        if part and not (part.isascii() and part.isdigit()):
            raise ValueError(f"tableau {text!r}: part {part!r} is not a row of digits")
    return tuple(tuple(map(int, part)) for part in parts)


def syt_from_string(text: str) -> StandardTableau:
    """Parse '134/256' style single-digit rows (test convenience)."""
    return StandardTableau(rows_from_string(text))


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
    formula; nothing is enumerated.  Trailing zeros are allowed; a zero inside
    the shape is no partition.

    >>> count_syt((3, 2))
    5
    """
    parts = Partition(shape).parts
    cols = conjugate(parts)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(parts)) // hooks


@lru_cache(maxsize=128)  # as hecke.shape_table: above the 66 shapes with at most 8 boxes
def enumerate_syt(shape: tuple[int, ...]) -> tuple[StandardTableau, ...]:
    """All standard tableaux of a partition shape, grown box by box: the
    tableaux of each shape inside it with k boxes are those with k - 1 boxes
    with k added at a corner.  They come in the order of recursive corner
    removal: by the row of the largest entry, top row first, then likewise
    for the rest."""
    shape = Partition(shape).parts
    level: dict[tuple[int, ...], list[Rows]] = {(): [()]}
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


def _slide_hole(rows: list[list[int]], i: int, j: int) -> tuple[int, int]:
    """Jeu de taquin: repeatedly move the smaller of the right/below
    neighbours into the hole at (i, j); returns the final hole, a corner,
    whose cell keeps a stale entry."""
    while True:
        row = rows[i]
        right = row[j + 1] if j + 1 < len(row) else None
        below = rows[i + 1][j] if i + 1 < len(rows) and j < len(rows[i + 1]) else None
        if right is None and below is None:
            return i, j
        if below is None or (right is not None and right < below):
            row[j] = right
            j += 1
        else:
            row[j] = below
            i += 1


def promotion_oracle(t: StandardTableau) -> StandardTableau:
    """Jeu-de-taquin promotion: delete 1, slide the hole to a corner,
    decrement everything, and place n in the freed corner.

    >>> str(promotion_oracle(syt_from_string('12/34')))
    '13/24'
    """
    if not t.rows:
        return t
    rows = [list(r) for r in t.rows]
    i, j = _slide_hole(rows, 0, 0)
    rows[i][j] = t.n + 1
    return StandardTableau._trusted(tuple(tuple(v - 1 for v in row) for row in rows))


def evacuation_oracle(t: StandardTableau) -> StandardTableau:
    """Schützenberger evacuation via iterated delta steps: remove 1, slide,
    and record the vacated corner.

    >>> str(evacuation_oracle(syt_from_string('134/256')))
    '125/346'
    """
    rows = [list(r) for r in t.rows]
    out = [list(r) for r in t.rows]
    for k in range(t.n, 0, -1):
        i, j = _slide_hole(rows, 0, 0)  # the smallest entry left sits at (0, 0)
        del rows[i][j]
        out[i][j] = k
    return StandardTableau._trusted(tuple(map(tuple, out)))


def dual_knuth(t: StandardTableau, i: int) -> StandardTableau:
    """The dual Knuth move on entries i, i+1, i+2: whichever of the three
    has the middle content stays put; if that is i+1 nothing moves, if it
    is i the entries i+1 and i+2 swap, and if it is i+2 then i and i+1 swap.
    The swapped pair differs in content by at least 2, so it shares no row
    or column and the result is standard.
    """
    if not 1 <= i <= t.n - 2:
        raise ValueError(f"dual Knuth index {i} out of range")
    cs = {v: j - r for r, row in enumerate(t.rows) for j, v in enumerate(row) if i <= v <= i + 2}
    middle = sorted(cs, key=cs.get)[1]
    if middle == i + 1:
        return t
    a, b = (i + 1, i + 2) if middle == i else (i, i + 1)
    swap = {a: b, b: a}
    return StandardTableau._trusted(tuple(tuple(swap.get(v, v) for v in row) for row in t.rows))


# -- semistandard tableaux and Gelfand-Tsetlin patterns ----------------------


class SemistandardTableau(_Tableau):
    """Weak rows, strict columns, entries >= 1."""

    __slots__ = ("rows",)

    def weight_vector(self, bound: int) -> tuple[int, ...]:
        return tuple(sum(1 for row in self.rows for v in row if v == k) for k in range(1, bound + 1))


def gt_levels(rows: Rows, length: int) -> list[Corner]:
    """The Gelfand-Tsetlin pattern of tableau rows: the shapes of the entries
    <= k, k = 0..length, as wide as the tableau is deep."""
    return [tuple(bisect_right(row, k) for row in rows) for k in range(length + 1)]


def conjugates(levels: Iterable[Corner], width: int) -> list[Corner]:
    """The conjugate of each partition, zero-padded up to the given width.
    Those of gt_levels are the dual sequence, the vertical strips of the
    conjugate (dual semistandard) tableau: the corners of a GL(width) word."""
    out = []
    for level in levels:
        c = conjugate(level)
        out.append(c + (0,) * (width - len(c)))
    return out


def rows_from_dual_corners(corners: Sequence[Corner]) -> Rows:
    """Inverse of the dual sequence, for corners of one width from the zero
    corner: entry j of corners[k] counts the entries <= k in column j, so a
    column that grows at step k gets k in the row it grew from, and each row
    fills left to right.  Each step is checked here to be a vertical strip."""
    rows: list[list[int]] = [[] for _ in corners]
    for k in range(1, len(corners)):
        for a, b in zip(corners[k - 1], corners[k]):
            if a != b:
                if b != a + 1:
                    raise StripViolation(f"step {k - 1} is not a vertical strip")
                rows[a].append(k)
    return tuple(tuple(r) for r in rows if r)


def _corners_of(seq: Sequence[Partition]) -> list[Corner]:
    """The parts of a partition sequence from the empty partition, zero-padded
    to one width."""
    if not seq or seq[0].parts:
        raise ValueError("a strip sequence starts at the empty partition")
    width = max(len(p.parts) for p in seq)
    return [p.padded(width) for p in seq]


def gt_pattern(t: SemistandardTableau, length: int) -> list[Partition]:
    """The Gelfand-Tsetlin pattern: shapes of the entries <= k, k = 0..length."""
    return [Partition(level) for level in gt_levels(t.rows, length)]


def tableau_from_gt(seq: Sequence[Partition]) -> SemistandardTableau:
    """Inverse of gt_pattern: entries k fill the k-th horizontal strip, the
    k-th vertical strip of the conjugates."""
    levels = _corners_of(seq)
    for k in range(len(levels) - 1):
        if not strip_check(levels[k], levels[k + 1], "horizontal"):
            raise StripViolation(f"step {k} is not a horizontal strip")
    return SemistandardTableau._trusted(rows_from_dual_corners(conjugates(levels, max(levels[-1], default=0))))


def dual_sequence(t: SemistandardTableau, length: int) -> list[Partition]:
    """Conjugates of the Gelfand-Tsetlin pattern: the vertical-strip sequence
    of the conjugate (dual semistandard) tableau."""
    return [Partition(conjugate(level)) for level in gt_levels(t.rows, length)]


def tableau_from_dual_sequence(seq: Sequence[Partition]) -> SemistandardTableau:
    """Inverse of dual_sequence."""
    return SemistandardTableau._trusted(rows_from_dual_corners(_corners_of(seq)))


def bender_knuth(t: SemistandardTableau, i: int) -> SemistandardTableau:
    """The classical toggle exchanging the multiplicities of i and i+1."""
    if i < 1:
        raise ValueError("toggle index must be >= 1")
    return SemistandardTableau._trusted(bender_knuth_rows(t.rows, i))


def bender_knuth_rows(rows: Rows, i: int) -> Rows:
    """The Bender-Knuth toggle at i >= 1 on semistandard rows.

    An i with an i+1 directly below it (or vice versa) is locked.  In a row
    the i's and i+1's form one block; its locked i's lead it and its locked
    i+1's end it, so the free ones between form a block i^a (i+1)^b, which
    is replaced by i^b (i+1)^a.
    """
    j = i + 1
    out = []
    above: tuple[int, ...] = ()
    for r, row in enumerate(rows):
        below = rows[r + 1] if r + 1 < len(rows) else ()
        s = bisect_left(row, i)
        m = bisect_left(row, j, s)
        e = bisect_left(row, j + 1, m)
        lo = s + below[s:m].count(j)
        hi = e - above[m:e].count(i)
        out.append(row[:lo] + (i,) * (hi - m) + (j,) * (m - lo) + row[hi:])
        above = row
    return tuple(out)


def enumerate_ssyt(shape: Sequence[int], max_entry: int) -> tuple[SemistandardTableau, ...]:
    """All semistandard tableaux of a partition shape with entries <= max_entry,
    grown cell by cell in row-major order: each filling of the first k cells
    is extended by every value its left and upper neighbours allow.  They
    come in the lexicographic order of their row-major readings."""
    shape = Partition(shape).parts
    level: list[tuple[int, ...]] = [()]  # row-major readings of the fillings so far
    start = 0
    for i, part in enumerate(shape):
        for k in range(start, start + part):
            grown = []
            for f in level:
                lo = f[k - 1] if k > start else 1
                if i and f[k - shape[i - 1]] >= lo:  # the cell above
                    lo = f[k - shape[i - 1]] + 1
                grown += [f + (v,) for v in range(lo, max_entry + 1)]
            level = grown
        start += part
    spans = [(sum(shape[:i]), sum(shape[:i + 1])) for i in range(len(shape))]
    return tuple(SemistandardTableau._trusted(tuple(f[a:b] for a, b in spans)) for f in level)


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
    """Two-row tableau with the openers on the first row (the empty
    tableau for the empty matching)."""
    openers = tuple(sorted(a for a, _ in m.pairs))
    closers = tuple(sorted(b for _, b in m.pairs))
    return StandardTableau((openers, closers) if m.pairs else ())


def matching_from_syt(t: StandardTableau) -> Matching:
    """Inverse bijection: each closer pairs with the nearest free opener."""
    if t.rows and (len(t.rows) != 2 or len(t.rows[0]) != len(t.rows[1])):
        raise ValueError("matchings correspond to rectangular two-row tableaux")
    openers = set(t.rows[0] if t.rows else ())
    stack: list[int] = []
    pairs = []
    for x in range(1, t.n + 1):
        if x in openers:
            stack.append(x)
        else:
            pairs.append((stack.pop(), x))
    return Matching(t.n, pairs)
