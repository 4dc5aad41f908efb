"""Exact seminormal representations of the Hecke algebra H_r(q).

The representation attached to a shape of size r has the standard tableaux
of that shape as basis, ordered row-reading lexicographically and indexed
by content vector, which fixes a standard tableau: exchanging i and i+1
transposes c(i) and c(i+1).  Matrices are exact rational functions of q.

Each shape's basis, content vectors, their index and the `basis:` line that
`hecke matrix` prints are built once per process (`shape_table`), in a cache
bounded by `_SHAPE_TABLE_CACHE`, above the 66 shapes with at most 8 boxes.
Every representation of that shape shares them, which helps a shape
requested again in one process; a fresh one-shot process builds one table,
as it built one basis before.  In the same way each small grid of u_i, t_i
or tau_i that `hecke matrix` prints is rendered once (`generator_grid`).

Conventions, fixed by requiring the defining relations to hold exactly
(u_i^2 = -[2] u_i, the modified braid relation, distant commutation, and
tau_i^2 = 1):

    a = c(i+1) - c(i)   (signed axial distance, c = column - row)

    u_i   T = -([a-1]/[a]) T + coeff * (T with i, i+1 swapped)
    tau_i T =     (1/[a])  T + coeff * (T with i, i+1 swapped)

with coeff = 1 when a > 0 and [a-1][a+1]/[a]^2 when a < 0, and the swap
term dropped when the swapped filling is not standard (so u_i acts by 0 on
an adjacent same-row pair and by -[2] on an adjacent same-column pair).
t_i = q + u_i.  Every entry depends on a alone, so each generator is read
off one table of canonical coefficients per axial distance into its at most
two nonzeros per column (`generator_entries`).  The
multiplicative Jucys-Murphy element J_i = (t_i ... t_1)(t_1 ... t_i) is
diagonal with entries q^(2 c(i+1)).
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .cactus import CactusWord, s_to_tau
from .errors import DomainError
from .oracles import StandardTableau, enumerate_syt
from .qalgebra import LaurentPoly, QMatrix, RationalFunction, q_int, render_grid
from .weights import Partition

if TYPE_CHECKING:
    from fractions import Fraction


class IndexOutOfRange(ValueError, DomainError):
    """Generator index outside 1..r-1 for the representation."""


# bound on memoized shape tables; above the 66 nonempty shapes with at most 8 boxes
_SHAPE_TABLE_CACHE = 128
# generator_grid keeps grids of dimension at most _GRID_DIMENSION (every shape
# with at most 5 boxes), at most _GRID_CACHE of them: above the 243 grids of u,
# t and tau on the shapes with at most 6 boxes and dimension at most 6
_GRID_DIMENSION = 6
_GRID_CACHE = 256


class ShapeTable(NamedTuple):
    """What every representation of one shape shares: the basis, its content
    vectors, the index of each content vector (read only) and the `basis:` line."""

    basis: tuple[StandardTableau, ...]
    contents: tuple[tuple[int, ...], ...]
    index: MappingProxyType[tuple[int, ...], int]
    basis_line: str


@lru_cache(maxsize=_SHAPE_TABLE_CACHE)
def shape_table(shape: tuple[int, ...]) -> ShapeTable:
    """The table of a validated partition tuple (no zero part), built once per
    process: the basis sorted by rows, then what is read off it."""
    basis = tuple(sorted(enumerate_syt(shape), key=lambda t: t.rows))
    r = sum(shape)
    contents = tuple(_content_vector(t.rows, r) for t in basis)
    # str(t) of each basis tableau, in one join
    line = "basis: " + " ".join(["/".join(["".join(map(str, row)) for row in t.rows]) for t in basis])
    return ShapeTable(basis, contents, MappingProxyType({c: k for k, c in enumerate(contents)}), line)


class SeminormalRep:
    """Basis bookkeeping for one irreducible seminormal representation."""

    def __init__(self, shape: Sequence[int]):
        self.shape = Partition(shape).parts  # trailing zeros only: a zero inside is no partition
        self.r = sum(self.shape)
        self.table = shape_table(self.shape)
        self.basis = self.table.basis
        self.dimension = len(self.basis)
        self._contents = self.table.contents
        self._index = self.table.index

    def index(self, t: StandardTableau) -> int:
        # sized by t itself: a smaller tableau padded to r could match a basis one
        return self._index[_content_vector(t.rows, sum(map(len, t.rows)))]

    def swap(self, k: int, i: int) -> Union[int, None]:
        """Index of the basis tableau with i and i+1 exchanged, or None when
        that filling is not standard.  It is standard exactly when the axial
        distance is not +-1: a = 1 puts i, i+1 side by side in a row, a = -1
        one above the other in a column, and a = 0 cannot occur."""
        c = self._contents[k]
        if c[i] - c[i - 1] in (1, -1):
            return None
        return self._index[c[:i - 1] + (c[i], c[i - 1]) + c[i + 1:]]

    def content(self, k: int, entry: int) -> int:
        """c(entry) = column - row of entry in basis tableau k."""
        return self._contents[k][entry - 1]

    def axial(self, k: int, i: int) -> int:
        """The signed axial distance c(i+1) - c(i) in basis tableau k."""
        return self._contents[k][i] - self._contents[k][i - 1]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.r - 1:
            raise IndexOutOfRange(f"generator index {i} out of range for r={self.r}")

    def __repr__(self) -> str:
        return f"SeminormalRep(shape={self.shape}, dim={self.dimension})"


def _content_vector(rows: Sequence[Sequence[int]], r: int) -> tuple[int, ...]:
    """(c(1), ..., c(r)) of a tableau given by its rows, in one pass over its cells."""
    contents = [0] * r
    for y, row in enumerate(rows):
        for x, v in enumerate(row):
            contents[v - 1] = x - y
    return tuple(contents)


@lru_cache(maxsize=None)
def _coefficients(a: int) -> dict[str, RationalFunction]:
    """The canonical entries of every generator at axial distance a: the
    diagonals of u, tau, t and t^-1 (keyed by their `which`) and the
    coefficient of the swapped tableau.  |a| < r, so a process holds at most
    2r of these, shared by every matrix it builds."""
    u = -RationalFunction(q_int(a - 1), q_int(a))
    if a > 0:
        swap = RationalFunction.one()
    else:
        swap = RationalFunction(q_int(a - 1) * q_int(a + 1), q_int(a) * q_int(a))
    return {"u": u, "tau": RationalFunction(LaurentPoly.one(), q_int(a)),
            "t": RationalFunction.q_power(1) + u, "t_inv": RationalFunction.q_power(-1) + u, "swap": swap}


def generator_entries(rep: SeminormalRep, i: int, which: str) -> dict[tuple[int, int], RationalFunction]:
    """The nonzero entries {(row, col): coefficient} of generator `which` at i: in
    column k, the diagonal on T and the swap on T with i, i+1 exchanged, by axial distance."""
    rep._check_index(i)
    entries = {}
    for k in range(rep.dimension):
        coefficients = _coefficients(rep.axial(k, i))
        if not coefficients[which].is_zero():
            entries[k, k] = coefficients[which]
        j = rep.swap(k, i)
        if j is not None:
            entries[j, k] = coefficients["swap"]
    return entries


def generator_grid(rep: SeminormalRep, i: int, which: str) -> str:
    """The text `hecke matrix` prints for generator `which` (u, t or tau) at i;
    a representation of dimension at most _GRID_DIMENSION reads it from _kept_grid."""
    if rep.dimension <= _GRID_DIMENSION:
        return _kept_grid(rep.shape, i, which)
    return render_grid(rep.dimension, rep.dimension, generator_entries(rep, i, which))


@lru_cache(maxsize=_GRID_CACHE)
def _kept_grid(shape: tuple[int, ...], i: int, which: str) -> str:
    """generator_grid's grid, rendered once per shape, generator and i: at most
    _GRID_CACHE grids of at most _GRID_DIMENSION ** 2 cells in one process.
    The longest such grid, of u or t on (6, 1), has 5 813 characters.  An
    index out of range is refused by generator_entries, on every request,
    since lru_cache keeps no exception."""
    rep = SeminormalRep(shape)
    return render_grid(rep.dimension, rep.dimension, generator_entries(rep, i, which))


def _generator(rep: SeminormalRep, i: int, which: str) -> QMatrix:
    """Generator `which` at i as a dense matrix, columns indexed by input tableaux."""
    d, zero = rep.dimension, RationalFunction.zero()
    rows = [[zero] * d for _ in range(d)]
    for (j, k), c in generator_entries(rep, i, which).items():
        rows[j][k] = c
    return QMatrix(rows)


def u_matrix(rep: SeminormalRep, i: int) -> QMatrix:
    """Matrix of the Hecke generator u_i."""
    return _generator(rep, i, "u")


def t_matrix(rep: SeminormalRep, i: int, inverse: bool = False) -> QMatrix:
    """t_i = q + u_i; the inverse is q^-1 + u_i."""
    return _generator(rep, i, "t_inv" if inverse else "t")


def tau_matrix(rep: SeminormalRep, i: int) -> QMatrix:
    """The involutive local-rule generator tau_i.

    >>> print(tau_matrix(SeminormalRep((2, 1)), 1).pretty())
    [  1   0 ]
    [  0  -1 ]
    """
    return _generator(rep, i, "tau")


def jm_matrix(rep: SeminormalRep, i: int, power: Union[int, Fraction] = 1) -> QMatrix:
    """J_i^power, diagonal with entries q^(2 c(i+1) power); power may be a
    half-integer.  J_0 is the identity."""
    from fractions import Fraction

    power = Fraction(power)
    if power not in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)):
        raise ValueError(f"unsupported power {power}")
    if not 0 <= i <= rep.r - 1:
        raise IndexOutOfRange(f"Jucys-Murphy index {i} out of range for r={rep.r}")
    return QMatrix.diagonal(RationalFunction.q_power(int(2 * rep.content(k, i + 1) * power))
                            for k in range(rep.dimension))


def jm_word_product(rep: SeminormalRep, i: int) -> QMatrix:
    """J_i computed from its braid word (t_i ... t_1)(t_1 ... t_i)."""
    if not 0 <= i <= rep.r - 1:
        raise IndexOutOfRange(f"Jucys-Murphy index {i} out of range for r={rep.r}")
    out = QMatrix.identity(rep.dimension)
    for k in range(i, 0, -1):
        out = out * t_matrix(rep, k)
    for k in range(1, i + 1):
        out = out * t_matrix(rep, k)
    return out


def sigma_vv(rep: SeminormalRep) -> QMatrix:
    """The two-factor commutor 1 + (2/[2]) u_1; equals tau_1."""
    if rep.r < 2:
        raise IndexOutOfRange("sigma_VV needs r >= 2")
    two_over = RationalFunction(LaurentPoly(2), q_int(2))
    return QMatrix.identity(rep.dimension) + u_matrix(rep, 1).scale(two_over)


def t_squared_inverse_sqrt(rep: SeminormalRep) -> QMatrix:
    """(t_1^2)^(-1/2) via the two-term spectral formula
    q^-1 (1 + u_1/[2]) + q (-u_1/[2])."""
    if rep.r < 2:
        raise IndexOutOfRange("needs r >= 2")
    u = u_matrix(rep, 1)
    coeff = RationalFunction(LaurentPoly({-1: 1}) - LaurentPoly({1: 1}), q_int(2))
    return QMatrix.identity(rep.dimension).scale(RationalFunction.q_power(-1)) + u.scale(coeff)


def tau_via_jm(rep: SeminormalRep, i: int) -> QMatrix:
    """tau_i = J_(i-1)^(1/2) t_i J_i^(-1/2): the unitarised factorization."""
    from fractions import Fraction

    half = Fraction(1, 2)
    return jm_matrix(rep, i - 1, half) * t_matrix(rep, i) * jm_matrix(rep, i, -half)


def cactus_matrix(w: CactusWord, rep: SeminormalRep) -> QMatrix:
    """Image of a cactus word: the product of its generators' tau words,
    rightmost generator acting first."""
    return tau_word_matrix([i for g in w.gens for i in s_to_tau(g)], rep)


def tau_word_matrix(indices: Sequence[int], rep: SeminormalRep) -> QMatrix:
    """The product tau_(i_1) tau_(i_2) ... of a tau word; each distinct
    tau_i is built once."""
    taus = {i: tau_matrix(rep, i) for i in set(indices)}
    out = QMatrix.identity(rep.dimension)
    for i in indices:
        out = out * taus[i]
    return out
