"""Growth diagrams built from the minuscule local rule.

All diagrams are grids of dominant weights whose unit cells satisfy
mu = dom_W(kappa + nu - lambda) (kappa bottom-left, lambda top-left,
nu top-right, mu bottom-right).  Triangular diagrams compute the prefix
reversal s(1,r) (evacuation), two-row diagrams compute promotion
(= s(1,r) s(2,r), rightmost factor acting first), rectangular diagrams
compute rectification, and cylindrical windows carry the general action:
crossing the wall of s(p,q) reflects a diagonal band of the window and
local-rule completion supplies the rest.

act_gen computes every s(p,q) in one pass: one triangle over the length-q
prefix gives its column q, that column read upside down is the new row
p-1, and an upward local-rule sweep over the band gives the new top row.
wall_cross reaches the same word through a cylindrical window and shares
nothing with act_gen beyond the local rule, so it is the independent check.

Corners are plain int tuples.  The fast paths fill cells with
weights.local_rule; rectangles use the checked rule words.fill_cell, and
window validation infers each edge's step kind once and checks every cell
against it.  Weight appears only in triangle_rows, whose rows the
benchmark's layer probe reads.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .cactus import CactusGen, CactusWord, act_word
from .errors import DomainError
from .weights import CartanContext, Corner, Weight, dominant, local_rule
from .words import (
    HighestWeightWord,
    InvalidStep,
    StepKind,
    fill_cell,
    infer_step_kind,
    word_from_corners,
)


class BadPath(ValueError, DomainError):
    """A path through the cylinder is malformed or underdetermines it."""


# -- triangular diagrams and evacuation --------------------------------------


def triangle_rows(w: HighestWeightWord) -> list[list[Weight]]:
    """Rows of the triangular growth diagram with top edge w.

    Row a holds gamma(a, b) for b = a..r; gamma(a, a) = 0 and each new row
    is filled left to right by the local rule.
    """
    return [[Weight(w.context, c) for c in row] for row in _triangle(w.context.family, w.corners)]


def _triangle(fam: str, corners: tuple[Corner, ...]) -> list[list[Corner]]:
    r = len(corners) - 1
    rows = [list(corners)]
    for a in range(1, r + 1):
        prev = rows[-1]
        row = [corners[0]]
        # gamma(a, a+j) from kappa = gamma(a, a+j-1), lam = gamma(a-1, a+j-1), nu = gamma(a-1, a+j)
        for j in range(1, r - a + 1):
            row.append(local_rule(fam, row[-1], prev[j], prev[j + 1]))
        rows.append(row)
    return rows


def evacuation(w: HighestWeightWord) -> HighestWeightWord:
    """The prefix reversal s(1,r) read off the right edge of the triangle."""
    rows = _triangle(w.context.family, w.corners)
    r = w.r
    # gamma(a, b) sits at rows[a][b - a]; the right edge is column b = r
    corners = tuple(rows[r - k][k] for k in range(r + 1))
    return HighestWeightWord(w.context, tuple(reversed(w.steps)), corners)


def prefix_reversal(w: HighestWeightWord, q: int) -> HighestWeightWord:
    """Apply s(1,q): evacuate the length-q prefix, fixing the suffix corners."""
    if not 2 <= q <= w.r:
        raise ValueError(f"prefix length {q} out of range for r={w.r}")
    prefix = HighestWeightWord(w.context, w.steps[:q], w.corners[: q + 1])
    ev = evacuation(prefix)
    steps = ev.steps + w.steps[q:]
    corners = ev.corners + w.corners[q + 1:]
    return HighestWeightWord(w.context, steps, corners)


def act_gen(g: CactusGen, w: HighestWeightWord) -> HighestWeightWord:
    """The action of a single generator s(p,q): one triangle and a band sweep.

    The triangle over the length-q prefix gives its column q, gamma(a, q)
    for a = 0..q.  The new row p-1 reads that column upside down,
    gamma'(p-1, j) = gamma(p+q-1-j, q) for p-1 <= j <= q.  Each row above
    it is completed right to left by the local rule, with gamma'(k, k) = 0
    and gamma'(k, q) = gamma(k, q).  The new top row, followed by the
    unchanged corners beyond q, is the image; for p = 1 it is the
    evacuation of the prefix.  Only that final word is built and checked.
    """
    p, q = g.p, g.q
    c = w.corners
    if q > w.r:
        raise ValueError(f"{g} out of bounds for r={w.r}")
    fam = w.context.family
    # column q of the prefix triangle: col[a] = gamma(a, q)
    col = [row[-1] for row in _triangle(fam, c[: q + 1])]
    # rows are indexed by absolute column j; the zero corner fills every column
    # left of row p-1's diagonal, so it is also gamma'(k, k) for each row above
    below = [c[0]] * (p - 1) + [col[p + q - 1 - j] for j in range(p - 1, q + 1)]
    for k in range(p - 2, -1, -1):
        row = list(below)
        row[q] = col[k]
        # the cell at rows k, k+1 and columns j, j+1 has the unknown top-left corner
        for j in range(q - 1, k, -1):
            row[j] = local_rule(fam, below[j], below[j + 1], row[j + 1])
        below = row
    steps = w.steps[: p - 1] + w.steps[p - 1: q][::-1] + w.steps[q:]
    return HighestWeightWord(w.context, steps, tuple(below) + c[q + 1:])


def act(g: CactusWord, w: HighestWeightWord) -> HighestWeightWord:
    """Group action on highest weight words; rightmost generator acts first."""
    if g.r != w.r:
        raise ValueError(f"word on {g.r} strands cannot act on a length-{w.r} tensor word")
    return act_word(g, w, act_gen)


# -- two-row diagrams and promotion ------------------------------------------


def promotion(w: HighestWeightWord) -> HighestWeightWord:
    """Bottom edge of the two-row growth diagram with top edge w.

    Equals the action of s(1,r) s(2,r); the factor sequence rotates one
    step to the left.
    """
    r, c = w.r, w.corners
    if r == 0:
        return w
    fam = w.context.family
    bottom = [c[0]]
    for j in range(1, r):
        bottom.append(local_rule(fam, bottom[-1], c[j], c[j + 1]))
    bottom.append(c[r])
    steps = w.steps[1:] + (w.steps[0],)
    return HighestWeightWord(w.context, steps, tuple(bottom))


def promotion_inverse(w: HighestWeightWord) -> HighestWeightWord:
    """Top edge of the two-row diagram whose bottom edge is w."""
    r, c = w.r, w.corners
    if r == 0:
        return w
    fam = w.context.family
    top = list(c)
    for j in range(r - 1, 0, -1):
        top[j] = local_rule(fam, c[j - 1], c[j], top[j + 1])
    steps = (w.steps[-1],) + w.steps[:-1]
    return HighestWeightWord(w.context, steps, tuple(top))


# -- rectangular diagrams and rectification ----------------------------------


class RectDiagram:
    """Completed (m+1) x (n+1) grid; grid[i][j] is the corner at row i
    (top row 0), column j (left column 0)."""

    __slots__ = ("grid", "top_steps", "left_steps")

    def __init__(self, grid: tuple[tuple[Corner, ...], ...], top_steps: tuple[StepKind, ...],
                 left_steps: tuple[StepKind, ...]):
        self.grid = grid
        self.top_steps = top_steps
        self.left_steps = left_steps

    def bottom_row(self) -> tuple[Corner, ...]:
        return self.grid[-1]

    def right_column(self) -> tuple[Corner, ...]:
        return tuple(row[-1] for row in self.grid)


def complete_rectangle(
    ctx: CartanContext,
    top_corners: Sequence[Corner],
    left_corners: Sequence[Corner],
) -> RectDiagram:
    """Fill the rectangle from its top row and left column.

    left_corners runs bottom-to-top and must end at top_corners[0]; the
    bottom row is the rectified version of the top word and the right
    column its companion.

    >>> complete_rectangle(CartanContext('GL', 2), [(1, 0), (1, 1)], [(0, 0), (1, 0)]).bottom_row()
    ((0, 0), (1, 0))
    """
    if left_corners[-1] != top_corners[0]:
        raise InvalidStep("top row and left column do not share their corner")
    m = len(left_corners) - 1
    n = len(top_corners) - 1
    top_steps = tuple(infer_step_kind(ctx, top_corners[j], top_corners[j + 1]) for j in range(n))
    left_steps = tuple(infer_step_kind(ctx, left_corners[i], left_corners[i + 1]) for i in range(m))
    rows = [list(top_corners)]
    for i in range(1, m + 1):
        prev = rows[i - 1]
        row = [left_corners[m - i]]
        for j in range(1, n + 1):
            row.append(fill_cell(ctx, row[-1], prev[j - 1], prev[j]))
        rows.append(row)
    return RectDiagram(tuple(tuple(r) for r in rows), top_steps, left_steps)


# -- cylindrical windows -------------------------------------------------------


class CylWindow:
    """Rows 0..depth-1 of a cylindrical growth diagram.

    Row i holds gamma(i, i..i+r); gamma(i, i) = 0, gamma(i, i+r) = shape,
    and row i+1 is the promotion of row i.  Words are read with the factor
    sequence of row 0 rotating left once per row.
    """

    __slots__ = ("context", "steps", "rows")

    def __init__(self, context: CartanContext, steps: tuple[StepKind, ...], rows: tuple[tuple[Corner, ...], ...]):
        self.context = context
        self.steps = steps
        self.rows = rows

    @property
    def r(self) -> int:
        return len(self.steps)

    @property
    def depth(self) -> int:
        return len(self.rows)

    def value(self, i: int, j: int) -> Corner:
        if not (0 <= i < self.depth and i <= j <= i + self.r):
            raise KeyError(f"({i}, {j}) outside the window")
        return self.rows[i][j - i]

    def row_word(self, i: int) -> HighestWeightWord:
        steps = self.steps[i % self.r:] + self.steps[: i % self.r]
        return HighestWeightWord(self.context, steps, self.rows[i])


def build_cylinder(w: HighestWeightWord, depth: int) -> CylWindow:
    """The unique window of `depth` rows with w on its top row."""
    rows = [w.corners]
    cur = w
    for _ in range(depth - 1):
        cur = promotion(cur)
        rows.append(cur.corners)
    return CylWindow(w.context, w.steps, tuple(rows))


def validate_window(win: CylWindow) -> bool:
    """Independent check of every unit square and boundary, with the verdict
    of words.cell_is_valid on each cell.

    Each distinct edge is inferred once.  A cell kappa -> lam -> nu,
    kappa -> mu -> nu of dominant corners is valid when all four steps are
    minuscule, the local rule gives mu from lam and lam from mu, and
    opposite edges carry the same factor: kind(kappa -> mu) ==
    kind(lam -> nu) and kind(mu -> nu) == kind(kappa -> lam).
    """
    ctx, r = win.context, win.r
    fam = ctx.family
    shape = win.rows[0][-1]
    for row in win.rows:
        if len(row) != r + 1 or any(c != 0 for c in row[0]) or row[-1] != shape:
            return False
    if not all(dominant(fam, c) for c in {c for row in win.rows for c in row}):
        return False
    kinds: dict[tuple[Corner, Corner], Optional[StepKind]] = {}

    def kind(a: Corner, b: Corner) -> Optional[StepKind]:
        """infer_step_kind, or None where the step is not minuscule."""
        if (a, b) not in kinds:
            try:
                kinds[a, b] = infer_step_kind(ctx, a, b)
            except InvalidStep:
                kinds[a, b] = None
        return kinds[a, b]

    for above, below in zip(win.rows, win.rows[1:]):
        # row i holds gamma(i, i + t) at t; the cell at (i, i + t) has kappa =
        # below[t - 1], lam = above[t], nu = above[t + 1] and mu = below[t]
        for t in range(1, r):
            kappa, lam, nu, mu = below[t - 1], above[t], above[t + 1], below[t]
            left, top, bottom, right = kind(kappa, lam), kind(lam, nu), kind(kappa, mu), kind(mu, nu)
            if left is None or top is None or bottom is None or right is None:
                return False
            if bottom != top or right != left:
                return False
            if local_rule(fam, kappa, lam, nu) != mu or local_rule(fam, kappa, mu, nu) != lam:
                return False
    return True


def cylinder_from_path(
    ctx: CartanContext,
    path: Sequence[tuple[int, int]],
    labels: Sequence[Sequence[int]],
    depth: Optional[int] = None,
) -> CylWindow:
    """Reconstruct a window from the labels along a monotone path.

    The path starts on the zero diagonal (i_0 = j_0), each step is (-1, 0)
    or (0, 1), and it ends on the shape diagonal j - i = r.  The window
    spanned by the path's rows (or `depth` rows from the topmost) is filled
    by local-rule completion from the boundary conditions.
    """
    if not path or path[0][0] != path[0][1]:
        raise BadPath("path must start on the main diagonal")
    r = len(path) - 1
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        if (i1 - i0, j1 - j0) not in ((-1, 0), (0, 1)):
            raise BadPath(f"illegal path step {(i0, j0)} -> {(i1, j1)}")
    if path[-1][1] - path[-1][0] != r:
        raise BadPath("path must end on the shape diagonal")
    if len(labels) != r + 1:
        raise BadPath(f"need {r + 1} labels, got {len(labels)}")

    known: dict[tuple[int, int], tuple[int, ...]] = {}
    for (i, j), lab in zip(path, labels):
        known[(i, j)] = tuple(lab)
    top = min(i for i, _ in path)
    bottom = max(i for i, _ in path)
    if depth is None:
        depth = bottom - top + 1
    shape = tuple(labels[-1])
    if any(c != 0 for c in labels[0]):
        raise BadPath("path must start at the zero weight")
    for i in range(top, top + max(depth, bottom - top + 1)):
        known[(i, i)] = (0,) * ctx.rank
        known[(i, i + r)] = shape

    sweep_bottom = max(top + depth - 1, bottom)

    def fill_sweep() -> bool:
        changed = False
        for i in range(top, sweep_bottom):
            for j in range(i + 1, i + r):
                kappa, lam, nu, mu = (known.get(v) for v in ((i + 1, j), (i, j), (i, j + 1), (i + 1, j + 1)))
                if kappa is None or nu is None or (lam is None) == (mu is None):
                    continue
                if mu is None:
                    known[(i + 1, j + 1)] = local_rule(ctx.family, kappa, lam, nu)
                else:
                    known[(i, j)] = local_rule(ctx.family, kappa, mu, nu)
                changed = True
        return changed

    while fill_sweep():
        pass
    rows = []
    for i in range(top, top + depth):
        row = []
        for j in range(i, i + r + 1):
            if (i, j) not in known:
                raise BadPath(f"path does not determine vertex ({i}, {j})")
            row.append(known[(i, j)])
        rows.append(tuple(row))
    top_word = word_from_corners(ctx, rows[0])
    win = CylWindow(ctx, top_word.steps, tuple(rows))
    if not validate_window(win):
        raise InvalidStep("completed window fails cell validation")
    return win


def wall_cross(g: CactusGen, win: CylWindow) -> CylWindow:
    """Cross the wall of s(p,q): reflect the band between the diagonals of
    p-1 and q and complete by local rules.

    New row p-1 reads the old column q upside down on the reflected range,
    gamma'(p-1, j) = gamma(p+q-1-j, q) for p-1 <= j <= q, and is unchanged
    beyond q; completion upward recovers the new top row, which equals the
    action of s(p,q) on the old top row.
    """
    p, q = g.p, g.q
    r = win.r
    if q > r:
        raise ValueError(f"{g} out of bounds for r={r}")
    deep = win if win.depth >= q + 1 else build_cylinder(win.row_word(0), q + 1)
    # gamma(i, j) sits at deep.rows[i][j - i]
    band = [deep.rows[p + q - 1 - j][j - p + 1] for j in range(p - 1, q + 1)]
    tail = [deep.rows[p - 1][j - p + 1] for j in range(q + 1, p - 1 + r + 1)]
    anchor = tuple(band + tail)

    fam = win.context.family
    row = list(anchor)
    for _ in range(p - 1):
        # row k from row k+1 below it: the cell at (k, k+t) has kappa = below[t-1],
        # mu = below[t] and nu = row[t+1], so its unknown lam is dom_W(kappa + nu - mu)
        below = row
        row = list(below)
        for t in range(r - 1, 0, -1):
            row[t] = local_rule(fam, below[t - 1], below[t], row[t + 1])

    new_perm_steps = list(win.steps)
    new_perm_steps[p - 1: q] = reversed(new_perm_steps[p - 1: q])
    top = HighestWeightWord(win.context, tuple(new_perm_steps), tuple(row))
    out = build_cylinder(top, win.depth)
    if out.rows[p - 1] != anchor:
        raise InvalidStep("wall crossing failed to re-derive its anchor row")
    return out


# -- ascii rendering -----------------------------------------------------------


def render_word_ascii(w: HighestWeightWord) -> str:
    return "  ".join(_shape_str(c) for c in w.corners)


def render_window_ascii(win: CylWindow) -> str:
    return _render_rows(win.rows)


def render_triangle_ascii(w: HighestWeightWord) -> str:
    return _render_rows(_triangle(w.context.family, w.corners))


def _render_rows(rows: Sequence[Sequence[Corner]]) -> str:
    """Row i shifted right by i cells, so that diagonals line up."""
    cells = [[_shape_str(c) for c in row] for row in rows]
    width = max(len(s) for row in cells for s in row) + 1
    lines = []
    for i, row in enumerate(cells):
        pad = " " * (width * i)
        lines.append(pad + "".join(s.ljust(width) for s in row))
    return "\n".join(lines)


def _shape_str(coords: Sequence[int]) -> str:
    trimmed = list(coords)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if not trimmed:
        return "[]"
    return "[" + "".join(str(c) for c in trimmed) + "]" if all(0 <= c <= 9 for c in trimmed) else str(tuple(trimmed))
