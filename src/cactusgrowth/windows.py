"""The growth diagrams `act` never runs: rectangles (rectification, with
the checked rule words.fill_cell), the cell-by-cell check of a cylindrical
window (each edge's step kind inferred once), a window rebuilt from the
labels along a path, and the bracketed-shape grids of `--format ascii`.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import DomainError
from .growth import CylWindow, _triangle
from .weights import CartanContext, Corner, dominant, local_rule
from .words import HighestWeightWord, InvalidStep, StepKind, fill_cell, infer_step_kind, word_from_corners


class BadPath(ValueError, DomainError):
    """A path through the cylinder is malformed or underdetermines it."""


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


def complete_rectangle(ctx: CartanContext, top_corners: Sequence[Corner],
                       left_corners: Sequence[Corner]) -> RectDiagram:
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


def cylinder_from_path(ctx: CartanContext, path: Sequence[tuple[int, int]], labels: Sequence[Sequence[int]],
                       depth: Optional[int] = None) -> CylWindow:
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

    known = {ij: tuple(lab) for ij, lab in zip(path, labels)}
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
    return "[" + "".join(str(c) for c in trimmed) + "]" if all(0 <= c <= 9 for c in trimmed) else str(tuple(trimmed))
