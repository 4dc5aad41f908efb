"""Highest-weight words of minuscule tensor products and the local move.

A highest-weight element of C_1 (x) ... (x) C_r with minuscule factors is
encoded lattice-side as its sequence of partial weights 0 = w_0, ..., w_r:
every corner is dominant and every difference w_k - w_{k-1} lies in the Weyl
orbit of the k-th factor's minuscule weight.  Edge labels are redundant and
omitted.  The elementary move tau_i replaces w_i by dom_W(w_{i-1} + w_{i+1}
- w_i) and swaps the factor descriptors at i and i+1.

Corners are plain int tuples.  StepKind.fundamental_weight alone says which
factor lives in which family; a step is valid when dom_W of its difference
is that weight, and crystal.build_minuscule grows the factor's crystal from
it.  fill_cell is the one checked cell rule: weights.local_rule with both
new steps checked.  Weight appears only in complete_cell, the wrapper of
fill_cell that the benchmark's layer probe calls.

A word is validated once, where it comes in: corner-only input in one loop
(_read_corners), built with HighestWeightWord._trusted like the words that
enumeration, tau and growth output (growth.act_gen re-checks what it moved).
growth.promotion, the public constructor and explicit steps check in full.
"""
from __future__ import annotations

from functools import lru_cache
from operator import sub
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DEFAULT_SIZE_CAP, DomainError
from .weights import (
    GL,
    SL2,
    SP,
    CartanContext,
    ContextMismatch,
    Corner,
    Weight,
    dom,
    dominant,
    local_rule,
    weyl_orbit,
)

if TYPE_CHECKING:
    from .crystal import Crystal


class InvalidStep(ValueError, DomainError):
    """A corner pair is not a valid minuscule step."""


class StepKind:
    """Descriptor of one minuscule tensor factor.

    name 'vector' covers the GL(n) vector crystal (= exterior power 1) and
    the Sp(2n) vector crystal; 'exterior' with k covers GL(n) wedge powers;
    'sl2' is the SL2 doublet.
    """

    __slots__ = ("name", "k")

    def __init__(self, name: str, k: int = 1):
        if name not in ("vector", "exterior", "sl2"):
            raise ValueError(f"unknown step kind {name!r}")
        self.name = name
        self.k = k

    def __eq__(self, other):
        return (self.name == other.name and self.k == other.k
                if other.__class__ is StepKind else NotImplemented)

    def __hash__(self):
        return hash((self.name, self.k))

    def orbit(self, ctx: CartanContext) -> frozenset[tuple[int, ...]]:
        return weyl_orbit(ctx.family, self.fundamental_weight(ctx))

    def fundamental_weight(self, ctx: CartanContext) -> tuple[int, ...]:
        """The factor's highest weight in ctx, and the one statement of which
        kind lives in which family: a vector in every family, an exterior
        power (0 <= k <= n) only in GL(n), the doublet only in SL2."""
        name, family = self.name, ctx.family
        if name == "exterior" and family != GL or name == "sl2" and family != SL2:
            raise InvalidStep(f"{self} invalid in {ctx}")
        k = self.k if name == "exterior" else 1
        if not 0 <= k <= ctx.rank:
            raise InvalidStep(f"exterior power {k} out of range for {ctx}")
        return (1,) * k + (0,) * (ctx.rank - k)

    def crystal(self, ctx: CartanContext, size_cap: int = DEFAULT_SIZE_CAP) -> Crystal:
        from .crystal import build_minuscule

        return build_minuscule(ctx, self.name, self.k, size_cap=size_cap)

    def __str__(self) -> str:
        if self.name == "exterior":
            return f"exterior({self.k})"
        return self.name


VECTOR = StepKind("vector")
SL2_STEP = StepKind("sl2")


def exterior(k: int) -> StepKind:
    return StepKind("exterior", k)


def step_is_valid(ctx: CartanContext, kind: StepKind, start: Sequence[int], end: Sequence[int]) -> bool:
    """Both corners dominant and end - start in the Weyl orbit of the kind's
    fundamental weight, i.e. dom_W(end - start) equals that (dominant) weight."""
    fam = ctx.family
    if not (dominant(fam, start) and dominant(fam, end)):
        return False
    return dom(fam, [a - b for a, b in zip(end, start)]) == kind.fundamental_weight(ctx)


_BITS = frozenset((0, 1))


@lru_cache(maxsize=None)
def _inferred_exterior(k: int) -> StepKind:
    """The GL kind of a step of k boxes, one object per k (k <= rank)."""
    return VECTOR if k == 1 else exterior(k)


def infer_step_kind(ctx: CartanContext, start: Corner, end: Corner) -> StepKind:
    """Recover the factor descriptor from a single corner pair.

    >>> print(infer_step_kind(CartanContext('GL', 4), (1, 1, 1, 0), (2, 1, 1, 1)))
    exterior(2)
    """
    diff = tuple(map(sub, end, start))
    if ctx.family == SL2:
        if diff in ((1,), (-1,)):
            return SL2_STEP
        raise InvalidStep(f"{_fmt(start)} -> {_fmt(end)} is not an SL2 step")
    if ctx.family == SP:
        if sum(map(abs, diff)) == 1:
            return VECTOR
        raise InvalidStep(f"{_fmt(start)} -> {_fmt(end)} is not an Sp vector step")
    if _BITS.issuperset(diff):
        return _inferred_exterior(sum(diff))
    raise InvalidStep(f"{_fmt(start)} -> {_fmt(end)} is not a GL exterior-power step")


def _fmt(c: Sequence[int]) -> str:
    return "[" + ",".join(map(str, c)) + "]"


class HighestWeightWord:
    """Corner-sequence encoding of a highest weight word."""

    __slots__ = ("context", "steps", "corners")

    def __init__(self, context: CartanContext, steps: tuple[StepKind, ...], corners: tuple[tuple[int, ...], ...]):
        r = len(steps)
        if len(corners) != r + 1:
            raise ValueError(f"{r} steps need {r + 1} corners, got {len(corners)}")
        if any(len(c) != context.rank for c in corners):
            raise ValueError(f"corners {corners} do not match rank {context.rank}")
        if any(c != 0 for c in corners[0]):
            raise InvalidStep("a highest weight word starts at the zero weight")
        for k in range(r):
            a, b = corners[k], corners[k + 1]
            if not step_is_valid(context, steps[k], a, b):
                raise InvalidStep(f"corner {k}: {_fmt(a)} -> {_fmt(b)} is not a valid {steps[k]} step")
        self.context = context
        self.steps = steps
        self.corners = corners

    @classmethod
    def _trusted(cls, context: CartanContext, steps: tuple[StepKind, ...],
                 corners: tuple[tuple[int, ...], ...]) -> HighestWeightWord:
        """A word whose steps and corners are known to be valid, built without the checks."""
        w = object.__new__(cls)
        w.context, w.steps, w.corners = context, steps, corners
        return w

    def __eq__(self, other):
        return (self.context == other.context and self.steps == other.steps and self.corners == other.corners
                if other.__class__ is HighestWeightWord else NotImplemented)

    def __hash__(self):
        return hash((self.context, self.steps, self.corners))

    @property
    def r(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return " -> ".join(_fmt(c) for c in self.corners)


def word_from_corners(ctx: CartanContext, corners: Sequence[Sequence[int]],
                      steps: Optional[Sequence[StepKind]] = None) -> HighestWeightWord:
    """Build a word from raw corner vectors, checked by the public constructor
    with explicit steps, else inferred and checked in one pass by _read_corners."""
    if steps is not None:
        return HighestWeightWord(ctx, tuple(steps), tuple(tuple(int(x) for x in c) for c in corners))
    return _read_corners(ctx, [[int(x) for x in c] for c in corners])


_CORNER_TYPES = "the corners must be a list of corners, each a list of ints"


def _read_corners(ctx: CartanContext, raw: list) -> HighestWeightWord:
    """The word on the corner lists `raw`, its steps inferred, checked in one
    loop that types, sizes and tuples each corner, infers the step into it
    and tests its dominance.  The error raised is the first of: a corner that
    is not a list of ints, no corner, a corner of the wrong length (before
    any step), a step, a nonzero start, a corner that is not dominant."""
    fam, rank = ctx.family, ctx.rank
    corners, steps, sized, bad_step, undominated = [], [], True, None, 0
    for c in raw:  # plain loops: this runs on every word a request reads
        if not isinstance(c, list):
            raise ValueError(_CORNER_TYPES)
        for v in c:
            if type(v) is not int:
                raise ValueError(_CORNER_TYPES)
        c = tuple(c)
        if len(c) != rank:
            sized = False
        elif sized and corners:
            if bad_step is None:
                try:
                    steps.append(infer_step_kind(ctx, corners[-1], c))
                except InvalidStep as exc:
                    bad_step = exc
            if not (undominated or dominant(fam, c)):
                undominated = len(corners)
        corners.append(c)
    if not corners:
        raise ValueError("0 steps need 1 corners, got 0")
    corners = tuple(corners)
    if not sized:
        raise ValueError(f"corners {corners} do not match rank {rank}")
    if bad_step is not None:
        raise bad_step
    if any(corners[0]):
        raise InvalidStep("a highest weight word starts at the zero weight")
    if undominated:  # the step into it is the first that HighestWeightWord refuses
        k = undominated
        raise InvalidStep(f"corner {k - 1}: {_fmt(corners[k - 1])} -> {_fmt(corners[k])} "
                          f"is not a valid {steps[k - 1]} step")
    return HighestWeightWord._trusted(ctx, tuple(steps), corners)


def fill_cell(ctx: CartanContext, kappa: Corner, lam: Corner, nu: Corner) -> Corner:
    """The minuscule local rule: the fourth corner mu = dom_W(kappa + nu - lam).

    kappa is the bottom-left corner, lam top-left, nu top-right; the result
    completes the cell so that (kappa -> mu) carries the top factor and
    (mu -> nu) the left factor.  Raises InvalidStep when a given step or a
    new one is not minuscule.
    """
    kind_left = infer_step_kind(ctx, kappa, lam)
    kind_top = infer_step_kind(ctx, lam, nu)
    mu = local_rule(ctx.family, kappa, lam, nu)
    if not (step_is_valid(ctx, kind_top, kappa, mu) and step_is_valid(ctx, kind_left, mu, nu)):
        raise InvalidStep(f"cell ({_fmt(kappa)}, {_fmt(lam)}, {_fmt(nu)}) does not complete minuscule-wise")
    return mu


def complete_cell(kappa: Weight, lam: Weight, nu: Weight) -> Weight:
    """fill_cell on three weights of one context."""
    ctx = kappa.context
    if not ctx == lam.context == nu.context:
        raise ContextMismatch(f"cell corners from {ctx}, {lam.context}, {nu.context}")
    return Weight(ctx, fill_cell(ctx, kappa.coords, lam.coords, nu.coords))


def cell_is_valid(ctx: CartanContext, kappa: Corner, lam: Corner, nu: Corner, mu: Corner) -> bool:
    """Independent cell validator: checks the rule in both orientations.

    >>> cell_is_valid(CartanContext('GL', 2), (1, 0), (2, 0), (2, 1), (1, 1))
    True
    """
    try:
        return fill_cell(ctx, kappa, lam, nu) == mu and fill_cell(ctx, kappa, mu, nu) == lam
    except InvalidStep:
        return False


def tau(w: HighestWeightWord, i: int) -> HighestWeightWord:
    """The local move at position i (1 <= i <= r-1)."""
    if not 1 <= i <= w.r - 1:
        raise ValueError(f"tau index {i} out of range for r={w.r}")
    c, s = w.corners, w.steps
    mid = local_rule(w.context.family, c[i - 1], c[i], c[i + 1])
    return HighestWeightWord._trusted(w.context, s[:i - 1] + (s[i], s[i - 1]) + s[i + 1:], c[:i] + (mid,) + c[i + 1:])


def commutor_prefix(w: HighestWeightWord, split: int) -> HighestWeightWord:
    """Move the factor at position `split` past the whole suffix.

    Realizes the factorized commutor tau_{r-1} o ... o tau_{split}; with
    split = r-1 it is a single local move.
    """
    if not 1 <= split <= w.r - 1:
        raise ValueError(f"split {split} out of range for r={w.r}")
    for i in range(split, w.r):
        w = tau(w, i)
    return w


def is_corner_list(x) -> bool:
    """A JSON list of corners, each a list of ints (bools excluded)."""
    if not isinstance(x, list):
        return False
    for c in x:  # plain loops: this runs on every word a request reads
        if not isinstance(c, list):
            return False
        for v in c:
            if type(v) is not int:
                return False
    return True


def check_word_json(obj) -> None:
    """Refuse, with ValueError, a value of a word or window JSON object that
    is present but of the wrong type: the context must be an object with a
    string family and an int rank (both present), the corners int corners,
    and the steps (when not null) a list of strings.  Absent top-level keys,
    and a payload that is not an object, are not checked here."""
    if not isinstance(obj, dict):
        return
    if "context" in obj:
        context = obj["context"]
        if not (isinstance(context, dict) and isinstance(context.get("family"), str)
                and type(context.get("rank")) is int):
            raise ValueError("the context must be an object with a string family and an int rank")
    if "corners" in obj and not is_corner_list(obj["corners"]):
        raise ValueError(_CORNER_TYPES)
    steps = obj.get("steps")
    if steps is not None and not (isinstance(steps, list) and all(isinstance(x, str) for x in steps)):
        raise ValueError("the steps must be a list of strings")


def word_from_json(obj: dict) -> HighestWeightWord:
    """The word of a word JSON object.  Corner-only JSON with a list of
    corners and a valid context is read in one pass by _read_corners; any
    other payload meets check_word_json, the context and, with explicit
    steps, the checked constructor."""
    context = obj.get("context") if isinstance(obj, dict) and obj.get("steps") is None else None
    ctx = None
    if isinstance(context, dict) and type(context.get("rank")) is int and isinstance(obj.get("corners"), list):
        try:
            ctx = CartanContext(context.get("family"), context["rank"])
        except ValueError:  # raised again below, after check_word_json has typed the corners
            pass
    if ctx is None:
        check_word_json(obj)
        ctx = CartanContext(obj["context"]["family"], obj["context"]["rank"])
        if obj.get("steps") is not None:
            steps = tuple(parse_step_kind(s) for s in obj["steps"])
            return word_from_corners(ctx, obj["corners"], steps)
    return _read_corners(ctx, obj["corners"])


def json_text(context: CartanContext, steps: Sequence[StepKind], key: str, grid: tuple) -> str:
    """The text json.dumps writes for {"context", "steps", key: grid}, where
    grid nests tuples of ints (a word's corners, a window's rows): a tuple's
    str is its JSON array once a 1-tuple's comma goes and parentheses become
    brackets."""
    names = '"' + '", "'.join(map(str, steps)) + '"' if steps else ""
    cells = str(grid).replace(",)", ")").replace("(", "[").replace(")", "]")
    return (f'{{"context": {{"family": "{context.family}", "rank": {context.rank}}}, '
            f'"steps": [{names}], "{key}": {cells}}}')


def parse_step_kind(text: str) -> StepKind:
    t = text.strip()
    if t in ("vector", "sl2"):
        return VECTOR if t == "vector" else SL2_STEP
    k = t[9:-1] if t[:9] == "exterior(" and t[-1:] == ")" else t[9:] if t[:9] == "exterior:" else ""
    try:  # k as int() reads it
        return exterior(int(k))
    except ValueError:
        raise ValueError(f"unknown step descriptor {text!r}") from None


def syt_to_word(rows: Sequence[Sequence[int]], rank: Optional[int] = None) -> HighestWeightWord:
    """Encode a standard tableau as a GL highest weight word: the k-th corner
    is the shape of the entries <= k."""
    rows = [list(r) for r in rows]
    r = sum(len(row) for row in rows)
    n = rank if rank is not None else max(len(rows), 1)
    if len(rows) > n:
        raise ValueError(f"tableau with {len(rows)} rows does not fit GL({n})")
    ctx = CartanContext(GL, n)
    corners = []
    for k in range(r + 1):
        shape = tuple(sum(1 for v in row if v <= k) for row in rows)
        corners.append(shape + (0,) * (n - len(rows)))
    return word_from_corners(ctx, corners)


def word_to_syt(w: HighestWeightWord) -> tuple[tuple[int, ...], ...]:
    """Inverse of syt_to_word: rows of the standard tableau."""
    if w.context.family != GL:
        raise ValueError("only GL words encode standard tableaux")
    rows: list[list[int]] = [[] for _ in range(w.context.rank)]
    for k in range(1, w.r + 1):
        diff = [a - b for a, b in zip(w.corners[k], w.corners[k - 1])]
        if sum(diff) != 1 or not all(d in (0, 1) for d in diff):
            raise ValueError("word is not single-box (vector) valued")
        rows[diff.index(1)].append(k)
    return tuple(tuple(row) for row in rows if row)


def enumerate_hw_words(ctx: CartanContext, kinds: Sequence[StepKind]) -> list[HighestWeightWord]:
    """All highest weight words with the given factor sequence, built unchecked:
    each corner is the last plus an element of the kind's orbit (kind.orbit
    raises InvalidStep for a kind invalid in ctx), kept when it is dominant."""
    zero = (0,) * ctx.rank
    partial: list[tuple[tuple[int, ...], ...]] = [(zero,)]
    for kind in kinds:
        orbit = kind.orbit(ctx)
        grown = []
        for corners in partial:
            last = corners[-1]
            for diff in orbit:
                nxt = tuple(a + b for a, b in zip(last, diff))
                if dominant(ctx.family, nxt):
                    grown.append(corners + (nxt,))
        partial = grown
    steps = tuple(kinds)
    return [HighestWeightWord._trusted(ctx, steps, corners) for corners in partial]
