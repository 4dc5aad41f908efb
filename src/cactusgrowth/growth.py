"""Growth diagrams built from the minuscule local rule.

All diagrams are grids of dominant weights whose unit cells satisfy
mu = dom_W(kappa + nu - lambda) (kappa bottom-left, lambda top-left,
nu top-right, mu bottom-right).  Triangular diagrams compute the prefix
reversal s(1,r) (evacuation), two-row diagrams compute promotion
(= s(1,r) s(2,r), rightmost factor acting first), and cylindrical windows
carry the general action: crossing the wall of s(p,q) reflects a diagonal
band of the window and local-rule completion supplies the rest.
Rectangles, window validation and reconstruction, and the ASCII renderers
are in windows, which `act` never loads.

act_gen computes every s(p,q) in one pass, a triangle and a band sweep;
wall_cross reaches the same word through a cylindrical window and shares
nothing with act_gen beyond the local rule, so it is the independent check.
Corners are plain int tuples, and every cell is filled with
weights.local_rule, which keeps words valid: evacuation, promotion_inverse
and prefix_reversal build theirs unchecked, act_gen re-checks only the
steps it reversed and the corners it keeps, and promotion checks in full.
Weight appears only in triangle_rows, whose rows the layer probe reads.
"""
from __future__ import annotations

from .cactus import CactusGen, CactusWord, act_word
from .weights import CartanContext, Corner, Weight, local_rule
from .words import HighestWeightWord, InvalidStep, StepKind, step_is_valid


# -- triangular diagrams and evacuation --------------------------------------


def triangle_rows(w: HighestWeightWord) -> list[list[Weight]]:
    """Rows of the triangular growth diagram with top edge w.

    Row a holds gamma(a, b) for b = a..r; gamma(a, a) = 0 and each new row
    is filled left to right by the local rule.
    """
    return [[Weight(w.context, c) for c in row] for row in _triangle(w.context.family, w.corners)]


def _triangle(fam: str, corners: tuple[Corner, ...]) -> list[list[Corner]]:
    """The corner rows of triangle_rows; the right edge read upwards is the evacuation.

    >>> _triangle('GL', ((0, 0), (1, 0), (1, 1), (2, 1)))  # 13/2 evacuates to 12/3
    [[(0, 0), (1, 0), (1, 1), (2, 1)], [(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0)], [(0, 0)]]
    """
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
    return HighestWeightWord._trusted(w.context, w.steps[::-1], corners)


def prefix_reversal(w: HighestWeightWord, q: int) -> HighestWeightWord:
    """Apply s(1,q): evacuate the length-q prefix, fixing the suffix corners."""
    if not 2 <= q <= w.r:
        raise ValueError(f"prefix length {q} out of range for r={w.r}")
    ev = evacuation(HighestWeightWord._trusted(w.context, w.steps[:q], w.corners[: q + 1]))
    return HighestWeightWord._trusted(w.context, ev.steps + w.steps[q:], ev.corners + w.corners[q + 1:])


def act_gen(g: CactusGen, w: HighestWeightWord) -> HighestWeightWord:
    """The action of a single generator s(p,q): one triangle and a band sweep.

    The triangle over the length-q prefix gives its column q, gamma(a, q)
    for a = 0..q.  The new row p-1 reads that column upside down,
    gamma'(p-1, j) = gamma(p+q-1-j, q) for p-1 <= j <= q.  Each row above
    it is completed right to left by the local rule, with gamma'(k, k) = 0
    and gamma'(k, q) = gamma(k, q).  The new top row, followed by the
    unchanged corners beyond q, is the image; for p = 1 it is the
    evacuation of the prefix; its reversed steps and corners 0..p-1 are checked.
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
    corners = tuple(below[:q]) + c[q:]  # below[q] is c[q]: from q on, the input's own
    if corners[:p] != c[:p]:
        raise InvalidStep(f"{g} moved one of the corners 0..{p - 1} of {w}")
    for k in range(p - 1, q):
        if not step_is_valid(w.context, steps[k], corners[k], corners[k + 1]):
            return HighestWeightWord(w.context, steps, corners)  # raises at the first bad step
    return HighestWeightWord._trusted(w.context, steps, corners)


def act(g: CactusWord, w: HighestWeightWord) -> HighestWeightWord:
    """Group action on highest weight words; rightmost generator acts first."""
    if g.r != w.r:
        raise ValueError(f"word on {g.r} strands cannot act on a length-{w.r} tensor word")
    return act_word(g, w, act_gen)


# -- two-row diagrams and promotion ------------------------------------------


def promotion(w: HighestWeightWord) -> HighestWeightWord:
    """Bottom edge of the two-row growth diagram with top edge w.

    Equals the action of s(1,r) s(2,r); the factor sequence rotates one
    step to the left.  The output is checked in full (ROADMAP item 3).
    """
    r, c = w.r, w.corners
    if r == 0:
        return w
    fam = w.context.family
    bottom = [c[0]]
    for j in range(1, r):
        bottom.append(local_rule(fam, bottom[-1], c[j], c[j + 1]))
    bottom.append(c[r])
    return HighestWeightWord(w.context, w.steps[1:] + w.steps[:1], tuple(bottom))


def promotion_inverse(w: HighestWeightWord) -> HighestWeightWord:
    """Top edge of the two-row diagram whose bottom edge is w."""
    r, c = w.r, w.corners
    if r == 0:
        return w
    fam = w.context.family
    top = list(c)
    for j in range(r - 1, 0, -1):
        top[j] = local_rule(fam, c[j - 1], c[j], top[j + 1])
    return HighestWeightWord._trusted(w.context, w.steps[-1:] + w.steps[:-1], tuple(top))


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
