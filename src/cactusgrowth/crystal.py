"""Finite normal crystals as explicit labelled graphs.

A crystal is a finite set with partial injective nilpotent raising maps e_i
and a weight per element; f_i, eps_i and phi_i are derived.  A crystal
built by the public constructor is validated, in time linear in its size:
e_i must be injective, acyclic and raise the weight by the simple root on
every edge.  The same pass walks each maximal i-chain once and stores eps_i
and phi_i of every element as one list per i, so later queries are lookups.
Tensor products follow the rule e_i(x (x) y) = e_i(x) (x) y when phi_i(x)
>= eps_i(y), else x (x) e_i(y), with eps_i(x (x) y) = eps_i(x) + max(0,
eps_i(y) - phi_i(x)) and phi_i(x (x) y) = phi_i(y) + max(0, phi_i(x) -
eps_i(y)).  A product of two crystals is again a crystal, so tensor fills
its tables by these rules and skips validation.  build_minuscule grows the
crystal of every minuscule factor (GL(n) exterior powers, the Sp(2n)
vector, the SL2 doublet) from its highest weight by one rule.

The component census of B^r (decompose) does not build B^r.  By the same
rule, x (x) b is highest weight exactly when x is and eps_i(b) <= phi_i(x)
for every i, so the highest weights are counted level by level from the
tables of B, and each component's size is Weyl's dimension formula
(weyl_dimension).  suites.materialized_census reads the same census off
the built power and is the reference that check_crystal compares against.
"""
from __future__ import annotations

from itertools import compress
from operator import add, gt, sub
from typing import Iterable, Optional

from .errors import DEFAULT_SIZE_CAP, DomainError, SizeLimit
from .weights import GL, SL2, CartanContext, ContextMismatch, weyl_orbit
from .words import StepKind


class CyclicGraph(ValueError):
    """A raising map has a cycle, violating nilpotence."""


class BadParameter(ValueError, DomainError):
    """Invalid constructor parameter."""


class Crystal:
    """Explicit finite crystal: elements 0..n-1 with labels and e_i maps."""

    def __init__(
        self,
        context: CartanContext,
        labels: Iterable[str],
        e_maps: dict[int, dict[int, int]],
        element_weights: Iterable[tuple[int, ...]],
    ):
        self.context = context
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.weights = tuple(map(tuple, element_weights))
        if len(self.weights) != self.n:
            raise ValueError("weights and labels disagree in length")
        index_set = context.index_set()
        for i, m in e_maps.items():
            if i not in index_set:
                raise ValueError(f"e_{i} is not an operator of {context}")
            if m and not (0 <= min(m) and max(m) < self.n
                          and 0 <= min(m.values()) and max(m.values()) < self.n):
                raise ValueError(f"e_{i} has an element outside 0..{self.n - 1}")
        self.e_maps = {i: dict(e_maps.get(i, {})) for i in index_set}
        self._f_maps = {i: {y: x for x, y in m.items()} for i, m in self.e_maps.items()}
        self._eps: dict[int, list[int]] = {}
        self._phi: dict[int, list[int]] = {}
        for i in index_set:
            self._eps[i], self._phi[i] = self._chains(i)
            self._check_edge_weights(i)

    @classmethod
    def _trusted(cls, context: CartanContext, labels: tuple[str, ...], e_maps: dict[int, dict[int, int]],
                 element_weights: tuple[tuple[int, ...], ...], eps: dict[int, list[int]],
                 phi: dict[int, list[int]]) -> Crystal:
        """A crystal from tables that are consistent by construction, without
        validation: tensor calls it on factors that are crystals, and
        build_minuscule on the e-maps it grows by simple roots."""
        c = cls.__new__(cls)
        c.context, c.labels, c.n, c.weights = context, labels, len(labels), element_weights
        c.e_maps = e_maps
        c._f_maps = {i: {y: x for x, y in m.items()} for i, m in e_maps.items()}
        c._eps, c._phi = eps, phi
        return c

    def _chains(self, i: int) -> tuple[list[int], list[int]]:
        """eps_i and phi_i of every element, from one walk down each maximal
        f_i-chain from its top and one walk up each e_i-chain from its
        bottom.  e_i must be injective; an e_i edge that no chain covers lies
        on a cycle."""
        e, f = self.e_maps[i], self._f_maps[i]
        if len(f) != len(e):
            raise ValueError(f"e_{i} is not injective")
        eps = [0] * self.n
        phi = [0] * self.n
        if _number_chains(f, e, eps) + _number_chains(e, f, phi) != 2 * len(e):
            x = next(x for x in e if eps[x] == 0)
            raise CyclicGraph(f"e_{i} has a cycle through element {x}")
        return eps, phi

    def _check_edge_weights(self, i: int) -> None:
        root = self.context.simple_root(i)
        wts = self.weights
        for x, y in self.e_maps[i].items():
            got = tuple(map(sub, wts[y], wts[x]))
            if got != root:
                raise ValueError(
                    f"weight mismatch on e_{i}: wt({self.labels[y]}) - wt({self.labels[x]}) = {got} != {root}"
                )

    # -- basic queries -------------------------------------------------------

    def e(self, i: int, x: int) -> Optional[int]:
        return self.e_maps[i].get(x)

    def f(self, i: int, x: int) -> Optional[int]:
        return self._f_maps[i].get(x)

    def eps(self, i: int, x: int) -> int:
        return self._eps[i][x]

    def phi(self, i: int, x: int) -> int:
        return self._phi[i][x]

    def is_highest_weight(self, x: int) -> bool:
        return not any(eps[x] for eps in self._eps.values())

    def highest_weight_elements(self) -> list[int]:
        """The elements whose eps_i is zero for every i."""
        if not self._eps:
            return list(range(self.n))
        return [x for x, col in enumerate(zip(*self._eps.values())) if not any(col)]

    def rectify(self, x: int) -> int:
        """The highest weight element in the connected component of x,
        reached by exhaustively applying raising operators."""
        moved = True
        while moved:
            moved = False
            for i in self.context.index_set():
                y = self.e_maps[i].get(x)
                if y is not None:
                    x = y
                    moved = True
                    break
        return x

    def components(self) -> list[list[int]]:
        """Connected components of the underlying (e union f) graph."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for m in self.e_maps.values():
            for x, y in m.items():
                adj[x].append(y)
                adj[y].append(x)
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def __repr__(self) -> str:
        return f"Crystal({self.context}, n={self.n})"


def _number_chains(step: dict[int, int], back: dict[int, int], table: list[int]) -> int:
    """Walk `step` from each chain end (an element with a `step` image and no
    `back` image) and write into table each element's distance from its end.
    Returns the number of edges walked."""
    walked = 0
    for end in step:
        if end in back:
            continue
        k, x = 1, step[end]
        while x is not None:
            table[x] = k
            k += 1
            x = step.get(x)
        walked += k - 1
    return walked


def tensor(b: Crystal, c: Crystal, size_cap: int = DEFAULT_SIZE_CAP) -> Crystal:
    """Tensor product crystal on the set B x C; element x (x) y is x|C| + y."""
    if b.context != c.context:
        raise ContextMismatch(f"{b.context} vs {c.context}")
    n = b.n * c.n
    if n > size_cap:
        raise SizeLimit(f"tensor product would have {n} elements (cap {size_cap})")
    cn = c.n
    labels = tuple(f"{lx}(x){ly}" for lx in b.labels for ly in c.labels)
    wts = tuple(tuple(map(add, wx, wy)) for wx in b.weights for wy in c.weights)
    e_maps: dict[int, dict[int, int]] = {}
    eps_maps: dict[int, list[int]] = {}
    phi_maps: dict[int, list[int]] = {}
    for i in b.context.index_set():
        eps_b, phi_b, eb = b._eps[i], b._phi[i], b.e_maps[i]
        eps_c, phi_c, ec = c._eps[i], c._phi[i], c.e_maps[i]
        m: dict[int, int] = {}
        eps: list[int] = []
        phi: list[int] = []
        for x in range(b.n):
            ex, px, up, base = eps_b[x], phi_b[x], eb.get(x), x * cn
            for y in range(cn):
                ey = eps_c[y]
                if px >= ey:
                    eps.append(ex)
                    phi.append(phi_c[y] + px - ey)
                    if up is not None:
                        m[base + y] = up * cn + y
                else:  # ey > 0, so y has an e_i image
                    eps.append(ex + ey - px)
                    phi.append(phi_c[y])
                    m[base + y] = base + ec[y]
        e_maps[i], eps_maps[i], phi_maps[i] = m, eps, phi
    return Crystal._trusted(b.context, labels, e_maps, wts, eps_maps, phi_maps)


def tensor_power(c: Crystal, r: int, size_cap: int = DEFAULT_SIZE_CAP) -> Crystal:
    """B^(x)r by repeated squaring: about 2 log2(r) products, none of them
    with a trivial factor.  The tensor rule is associative and element
    x (x) y is indexed x|C| + y, so every bracketing gives the same weights
    and e-maps as the left-nested product B (x) ... (x) B, and labels are
    the factors' labels joined by "(x)" (B^1 is B itself; B^0 is the
    one-element crystal labelled "1").  Refused by _check_power before any
    level is built."""
    _check_power(c, r, size_cap)
    if not r:
        return trivial_crystal(c.context)
    out, square = None, c
    while r:
        if r & 1:
            out = square if out is None else tensor(out, square, size_cap=size_cap)
        r >>= 1
        if r:  # a later bit needs it, so |square|^2 <= |B|^r
            square = tensor(square, square, size_cap=size_cap)
    return out


def _check_power(c: Crystal, r: int, size_cap: int) -> None:
    """Refuse r < 0, and r or |B|^r over size_cap; the exponent is clipped so
    that |B|^r is never formed when it is huge."""
    if r < 0:
        raise BadParameter("tensor power needs r >= 0")
    if r and (r > size_cap or c.n ** min(r, size_cap.bit_length() + 1) > size_cap):
        raise SizeLimit(f"tensor power {r} of a {c.n}-element crystal is over the cap of {size_cap}")


def _check_size(context: CartanContext, size: int, size_cap: int) -> None:
    """Refuse a crystal of at least `size` elements whose weights would hold
    more than size_cap coordinates (|B| x rank)."""
    if size * context.rank > size_cap:
        raise SizeLimit(f"a rank-{context.rank} crystal of at least {size} elements is over the cap of "
                        f"{size_cap} (|B| x rank)")


def trivial_crystal(context: CartanContext) -> Crystal:
    return Crystal(context, ("1",), {}, ((0,) * context.rank,))


def decompose(c: Crystal, r: int, size_cap: int = DEFAULT_SIZE_CAP) -> dict[tuple[int, ...], tuple[int, int]]:
    """Component census of the r-th tensor power of c, read off the tables of
    c without building the power.

    Returns {highest weight coords: (component count, component size)}.
    x (x) b is highest weight exactly when x is and eps_i(b) <= phi_i(x) for
    every i, and then phi_i(x (x) b) = phi_i(x) + phi_i(b) - eps_i(b).  So
    the highest-weight elements of B^r are counted level by level, by
    weight, and each component's size is weyl_dimension of its highest
    weight.  The census is checked: sum(count * size) must be len(c)^r.
    Refused by _check_power, like tensor_power, when r or |B|^r exceeds
    size_cap.

    c must be a normal crystal (every crystal of build_minuscule is), which
    Crystal(...) does not check: there a highest weight is dominant, its
    phi_i is <wt, alpha_i^vee>, so the weight fixes it, and Weyl's formula
    gives its component's size.  For another crystal the census may be
    refused by weyl_dimension or by the total check.

    >>> decompose(build_minuscule(CartanContext('GL', 2), 'vector'), 3)
    {(3, 0): (1, 4), (2, 1): (2, 2)}
    """
    _check_power(c, r, size_cap)
    if c.n == 1:  # B^r is one element, of weight r wt(b)
        counts = {tuple(r * a for a in c.weights[0]): 1}
    else:
        index_set = c.context.index_set()
        letters = []  # per letter: its weight, the (k, eps) it needs of phi, and phi - eps
        for b, wt in enumerate(c.weights):
            eps = [c._eps[i][b] for i in index_set]
            letters.append((wt, [(k, e) for k, e in enumerate(eps) if e],
                            tuple(c._phi[i][b] - e for i, e in zip(index_set, eps))))
        # a level maps each highest weight to its count and, apart, to its
        # phi vector, which the weight fixes in a normal crystal
        zero = (0,) * c.context.rank
        counts, phis = {zero: 1}, {zero: (0,) * len(index_set)}
        for _ in range(r):
            grown: dict[tuple[int, ...], int] = {}
            grown_phis: dict[tuple[int, ...], tuple[int, ...]] = {}
            for wt, count in counts.items():
                phi = phis[wt]
                for b_wt, needs, shift in letters:
                    for k, e in needs:
                        if phi[k] < e:
                            break
                    else:
                        key = tuple(map(add, wt, b_wt))
                        if key in grown:
                            grown[key] += count
                        else:
                            grown[key] = count
                            grown_phis[key] = tuple(map(add, phi, shift))
            counts, phis = grown, grown_phis
    out = {wt: (count, weyl_dimension(c.context, wt)) for wt, count in counts.items()}
    total = sum(count * size for count, size in out.values())
    if total != c.n**r:
        raise ValueError(f"census total {total} != {c.n}^{r}")
    return out


def weyl_dimension(context: CartanContext, wt: tuple[int, ...]) -> int:
    """Size of the component of dominant highest weight wt, by Weyl's
    dimension formula in exact ints: for GL(n), the product over i < j of
    (wt_i - wt_j + j - i) / (j - i); for Sp(2n), with l = wt + rho and
    rho = (n, ..., 1), the product over i < j of (l_i^2 - l_j^2) /
    (rho_i^2 - rho_j^2) times the product of l_i / rho_i; SL2 is Sp(2).
    Raises ValueError when the quotient is not a positive int, as it is
    for every dominant wt.

    >>> weyl_dimension(CartanContext('Sp', 2), (1, 1))
    5
    """
    n = len(wt)
    num = den = 1
    if context.family == GL:
        for i in range(n):
            for j in range(i + 1, n):
                num *= wt[i] - wt[j] + j - i
                den *= j - i
        return _exact_size(wt, num, den)
    rho = range(n, 0, -1)
    shifted = [a + p for a, p in zip(wt, rho)]
    for i in range(n):
        num *= shifted[i]
        den *= rho[i]
        for j in range(i + 1, n):
            num *= shifted[i] ** 2 - shifted[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    return _exact_size(wt, num, den)


def _exact_size(wt: tuple[int, ...], num: int, den: int) -> int:
    size, rest = divmod(num, den)
    if rest or size <= 0:
        raise ValueError(f"Weyl's formula gives {num}/{den} at {wt}: not a dominant weight")
    return size


def build_minuscule(context: CartanContext, which: str, k: int = 1, size_cap: int = DEFAULT_SIZE_CAP) -> Crystal:
    """The crystal of the minuscule factor StepKind(which, k), grown from its
    highest weight (StepKind.fundamental_weight) by f_i x = x - alpha_i
    exactly where <x, alpha_i^vee> = 1.  Elements are the weights in
    descending order, labelled by their signed nonzero positions ("13", "2",
    "-2"; SL2's "+" and "-").  Refused before anything is built when
    |B| x rank exceeds size_cap, |B| being C(n, k) for GL(n) and 2n otherwise.
    """
    _check_size(context, 1, size_cap)  # bounds the rank before the highest weight holds rank coordinates
    try:
        top = StepKind(which, k).fundamental_weight(context)
    except ValueError as exc:  # an unknown kind, or InvalidStep
        raise BadParameter(str(exc)) from None
    n = context.rank
    if context.family == GL:
        k = sum(top)
        m = min(k, n - k)
        size = 1  # C(n - m + j, j) for j = 1..m ends at C(n, k); it only grows, so stop once over the cap
        for j in range(1, m + 1):
            if size * n > size_cap:
                break
            size = size * (n - m + j) // j
    else:
        size = 2 * n
    _check_size(context, size, size_cap)
    # <x, alpha_i^vee> is -1, 0 or 1 on a minuscule orbit: for i < n it is 1 where x_i > x_(i+1),
    # and there f_i swaps the two; at node n of Sp and SL2 it is x_n, and f_n negates x_n
    signed, inner = context.family != GL, range(1, n)
    grown, seen, edges = [top], {top}, []
    for x in grown:  # each weight once
        steps = [(i, x[:i - 1] + (x[i], x[i - 1]) + x[i + 1:]) for i in compress(inner, map(gt, x, x[1:]))]
        if signed and x[-1] > 0:
            steps.append((n, x[:-1] + (-x[-1],)))
        for i, y in steps:
            edges.append((i, y, x))
            if y not in seen:
                seen.add(y)
                grown.append(y)
    grown.sort(reverse=True)
    index = {x: j for j, x in enumerate(grown)}
    # every i-string has length at most 1: eps_i is 1 exactly where e_i acts, phi_i where f_i does
    e_maps: dict[int, dict[int, int]] = {i: {} for i in context.index_set()}
    eps = {i: [0] * len(grown) for i in e_maps}
    phi = {i: [0] * len(grown) for i in e_maps}
    for i, y, x in edges:
        e_maps[i][index[y]] = index[x]
        eps[i][index[y]] = phi[i][index[x]] = 1
    if context.family == SL2:
        labels = tuple("+" if x[0] > 0 else "-" for x in grown)
    else:
        labels = tuple(map(_signed_positions, grown))
    return Crystal._trusted(context, labels, e_maps, tuple(grown), eps, phi)


def _signed_positions(x: tuple[int, ...]) -> str:
    """The label of a minuscule weight: its nonzero positions, counted from
    1, each with the sign of its entry ((1, 0, 1) is "13", (0, -1) is "-2")."""
    positions = compress(range(1, len(x) + 1), x)  # the nonzero ones
    return "".join([str(a) if x[a - 1] > 0 else f"-{a}" for a in positions])


def crystal_to_json(c: Crystal) -> dict:
    return {
        "context": {"family": c.context.family, "rank": c.context.rank},
        "elements": list(c.labels),
        "weights": [list(w) for w in c.weights],
        "edges": {str(i): sorted([x, y] for x, y in m.items()) for i, m in c.e_maps.items()},
    }


def weyl_orbit_weights(c: Crystal) -> bool:
    """True when the Weyl group acts transitively on the weights of c."""
    return set(c.weights) == weyl_orbit(c.context.family, c.weights[0])
