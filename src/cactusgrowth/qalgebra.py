"""Exact arithmetic in Laurent polynomials and rational functions of q.

A Laurent polynomial q^shift * f(q) is stored in its one canonical dense
form: the shift and the tuple of f's arbitrary-precision int coefficients,
low to high, whose first and last entries are nonzero (zero is shift 0 and
the empty tuple).  A product is one convolution, a sum aligns two shifts,
and reduction reads the stored tuples with no conversion.  Rational
functions keep an integer Laurent numerator over a genuine polynomial
denominator with nonzero constant term, reduced and sign-normalized, so
equality is exact and structural.

Every computation stays in Z[q]: reduction divides numerator and
denominator by their primitive gcd using integer long division, which is
exact by Gauss's lemma, and then by the integer content they share.  No
rational coefficient is ever formed.

>>> q_int(2)
LaurentPoly('q + q^-1')
>>> (q_int(4) * q_int(4) - q_int(3) * q_int(5)) == LaurentPoly.one()
True
"""
from __future__ import annotations

from math import gcd
from operator import add, neg, sub
from typing import Iterable, Mapping, Union

from .errors import DomainError


class DivisionByZero(ZeroDivisionError, DomainError):
    """Division of a rational function by zero."""


class DimensionMismatch(ValueError, DomainError):
    """Matrix dimensions are incompatible for the requested operation."""


class ParseError(ValueError):
    """Input text does not match the Laurent polynomial grammar."""


class LaurentPoly:
    """An integer Laurent polynomial q^shift * (c_0 + c_1 q + ... + c_k q^k), stored as (shift,
    coeffs) with c_0 and c_k nonzero; zero is (0, ()).  Equality compares the stored forms."""

    __slots__ = ("_shift", "_coeffs")

    def __init__(self, coeffs: Union[Mapping[int, int], str, int, None] = None):
        if isinstance(coeffs, str):
            coeffs = parse_laurent(coeffs)
        elif isinstance(coeffs, int):
            coeffs = {0: coeffs}
        terms = {e: c for e, c in (coeffs or {}).items() if c}
        self._shift = lo = min(terms, default=0)
        self._coeffs = tuple(terms.get(e, 0) for e in range(lo, max(terms, default=-1) + 1))

    @classmethod
    def _trusted(cls, shift: int, coeffs: tuple[int, ...]) -> "LaurentPoly":
        """A polynomial from a stored form already known canonical, built without the checks."""
        p = object.__new__(cls)
        p._shift, p._coeffs = shift, coeffs
        return p

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly._trusted(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly._trusted(0, (1,))

    @staticmethod
    def q(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    def items(self) -> Iterable[tuple[int, int]]:
        return [(self._shift + i, c) for i, c in enumerate(self._coeffs) if c]

    def coeff(self, exp: int) -> int:
        i = exp - self._shift
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return self._shift + len(self._coeffs) - 1

    def valuation(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no valuation")
        return self._shift

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _combine(self, other, add)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _combine(self, other, sub)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self._shift, tuple(map(neg, self._coeffs)))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        # one convolution; the product of the nonzero end coefficients is nonzero, so no trim
        a, b = self._coeffs, other._coeffs
        if not (a and b):
            return LaurentPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return LaurentPoly._trusted(self._shift + other._shift, tuple(out))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._shift == other._shift and self._coeffs == other._coeffs
        if isinstance(other, int):
            return self == LaurentPoly(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._shift, self._coeffs))

    def __str__(self) -> str:
        return render_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({render_laurent(self)!r})"


def _combine(a: LaurentPoly, b: LaurentPoly, op) -> LaurentPoly:
    """a + b or a - b: both stored forms aligned on one exponent range, then trimmed at both ends."""
    lo = min(a._shift, b._shift)
    hi = max(a._shift + len(a._coeffs), b._shift + len(b._coeffs))
    f = list(map(op, _padded(a, lo, hi), _padded(b, lo, hi)))
    top = len(f)
    while top and not f[top - 1]:
        top -= 1
    bottom = 0
    while bottom < top and not f[bottom]:
        bottom += 1
    return LaurentPoly._trusted(lo + bottom if top else 0, tuple(f[bottom:top]))


def _padded(p: LaurentPoly, lo: int, hi: int) -> tuple[int, ...]:
    return (0,) * (p._shift - lo) + p._coeffs + (0,) * (hi - p._shift - len(p._coeffs))


def q_int(n: int) -> LaurentPoly:
    """The quantum integer [n] = (q^n - q^-n) / (q - q^-1).

    >>> str(q_int(3))
    'q^2 + 1 + q^-2'
    >>> q_int(-3) == -q_int(3)
    True
    >>> q_int(0).is_zero()
    True
    """
    if n < 0:
        return -q_int(-n)
    return LaurentPoly._trusted(1 - n, (1, 0) * (n - 1) + (1,)) if n else LaurentPoly.zero()


# -- dense integer polynomial helpers (gcd and exact division in Z[q]) -----
#
# A dense polynomial is a list or tuple of int coefficients low-to-high
# with a nonzero last entry; [] is zero.  A LaurentPoly's coeffs are one such.


def _dense_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _dense_primitive(f: list[int]) -> list[int]:
    g = gcd(*f)
    if g > 1:
        f = [c // g for c in f]
    if f and f[-1] < 0:
        f = [-c for c in f]
    return f


def _dense_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lc(b)^(deg a - deg b + 1) * a by b, computed over the integers."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        lead = r[-1]
        r = [c * lb for c in r]
        for i in range(db + 1):
            r[dr - db + i] -= lead * b[i]
        r = _dense_trim(r)
    return r


def _dense_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[q], positive leading coefficient; represents gcd in Q[q]."""
    a, b = _dense_primitive(a), _dense_primitive(b)
    while b:
        a, b = b, _dense_primitive(_dense_pseudo_rem(a, b))
    return list(a)


def _dense_exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact division a / b in Z[q], by long division in integers.

    Raises ValueError when b does not divide a, or when the quotient is not
    integral: each step divides a leading coefficient by lc(b), and the
    quotient in Q[q] is unique, so a step that leaves a remainder means the
    quotient leaves Z[q] or does not exist.  By Gauss's lemma a primitive
    divisor of an integral a always passes.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    quot = [0] * max(len(r) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            raise ValueError("polynomial division is inexact in Z[q]")
        quot[k] = c
        for i in range(db):
            r[k + i] -= c * b[i]
    if any(r[:db]):
        raise ValueError("polynomial division is inexact in Z[q]")
    return _dense_trim(quot)


class RationalFunction:
    """An element of Q(q), kept in canonical reduced form.

    Canonical form: the denominator is a primitive-content-reduced genuine
    polynomial in q with nonzero constant term and positive leading
    coefficient; all q-power units and shared factors live in the numerator.
    """

    __slots__ = ("num", "den", "_text")  # never changed after construction: rendered once

    def __init__(self, num: Union[LaurentPoly, int, str], den: Union[LaurentPoly, int, None] = None):
        if isinstance(num, str):
            rf = parse_rational(num)
            num, den = rf.num, rf.den
        if isinstance(num, int):
            num = LaurentPoly(num)
        if den is None:
            den = LaurentPoly.one()
        if isinstance(den, int):
            den = LaurentPoly(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        self.num, self.den = _canonicalize(num, den)
        self._text = None

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(LaurentPoly.zero())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(LaurentPoly.one())

    @staticmethod
    def q_power(k: int) -> "RationalFunction":
        return RationalFunction(LaurentPoly.q(k))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (LaurentPoly, int)):
            return self == RationalFunction(LaurentPoly(other) if isinstance(other, int) else other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self._text is None:
            self._text = render_rational(self)
        return self._text

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _canonicalize(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()
    fn, fd = num._coeffs, den._coeffs
    if fd == (1,):  # den is q^k: num / q^k is num shifted, already canonical
        return LaurentPoly._trusted(num._shift - den._shift, fn), den if not den._shift else LaurentPoly.one()
    g = _dense_gcd(fn, fd)
    if len(g) > 1 or g[0] != 1:
        fn = _dense_exact_div(fn, g)
        fd = _dense_exact_div(fd, g)
    cg = gcd(*fn, *fd)
    if fd[-1] < 0:
        cg = -cg
    if cg != 1:
        fn = [c // cg for c in fn]
        fd = [c // cg for c in fd]
    return LaurentPoly._trusted(num._shift - den._shift, tuple(fn)), LaurentPoly._trusted(0, tuple(fd))


class QMatrix:
    """A dense matrix with RationalFunction entries, exact throughout."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[RationalFunction]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise DimensionMismatch("ragged rows")

    @staticmethod
    def identity(n: int) -> "QMatrix":
        one, zero = RationalFunction.one(), RationalFunction.zero()
        return QMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        zero = RationalFunction.zero()
        return QMatrix([[zero] * cols for _ in range(rows)])

    @staticmethod
    def diagonal(values: Iterable[RationalFunction]) -> "QMatrix":
        vals = list(values)
        zero = RationalFunction.zero()
        return QMatrix([[vals[i] if i == j else zero for j in range(len(vals))] for i in range(len(vals))])

    def __getitem__(self, key: tuple[int, int]) -> RationalFunction:
        i, j = key
        return self.entries[i][j]

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return QMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.rows}x{self.cols} - {other.rows}x{other.cols}")
        return QMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)])

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        return matmul(self, other)

    def scale(self, c: RationalFunction) -> "QMatrix":
        return QMatrix([[c * a for a in row] for row in self.entries])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"

    def pretty(self) -> str:
        return render_grid(self.rows, self.cols, {(i, j): e for i, row in enumerate(self.entries)
                                                  for j, e in enumerate(row) if not e.is_zero()})


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Exact matrix product; raises DimensionMismatch when the inner sizes differ."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} * {b.rows}x{b.cols}")
    zero = RationalFunction.zero()
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                aik = a.entries[i][k]
                if aik.is_zero():
                    continue
                bkj = b.entries[k][j]
                if bkj.is_zero():
                    continue
                acc = acc + aik * bkj
            row.append(acc)
        out.append(row)
    return QMatrix(out)


# -- textual grammar --------------------------------------------------------


def render_laurent(p: LaurentPoly) -> str:
    """Render as e.g. 'q^2 + 1 + q^-2'; parse_laurent inverts this exactly."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in zip(range(p.degree(), p._shift - 1, -1), reversed(p._coeffs)):
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            body = qpart if mag == 1 else f"{mag}{qpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def render_rational(r: RationalFunction) -> str:
    if r.den._coeffs == (1,):  # a canonical denominator has shift 0
        return render_laurent(r.num)
    return f"({render_laurent(r.num)}) / ({render_laurent(r.den)})"


def render_grid(rows: int, cols: int, nonzero: Mapping[tuple[int, int], RationalFunction]) -> str:
    """A rows x cols matrix from its nonzero entries {(row, col): entry}; each distinct entry
    object (by id: all stay alive in `nonzero`) and the absent cells' "0" are padded once."""
    text = {id(e): str(e) for e in nonzero.values()}
    width = max(map(len, text.values()), default=1)
    padded = {k: t.rjust(width) for k, t in text.items()}
    grid = [["0".rjust(width)] * cols for _ in range(rows)]
    for (i, j), e in nonzero.items():
        grid[i][j] = padded[id(e)]
    return "\n".join("[ " + "  ".join(row) + " ]" for row in grid)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the grammar emitted by render_laurent.

    >>> parse_laurent('q^2 + 1 + q^-2') == q_int(3)
    True
    >>> parse_laurent('-2q') == LaurentPoly({1: -2})
    True
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    if s == "0":
        return LaurentPoly.zero()
    coeffs: dict[int, int] = {}
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and s[j].isdigit():
            j += 1
        had_digits = j > i
        mag = int(s[i:j]) if had_digits else 1
        i = j
        if i < n and s[i] == "*":
            i += 1
        exp = 0
        if i < n and s[i] == "q":
            i += 1
            exp = 1
            if i < n and s[i] == "^":
                i += 1
                k = i
                if i < n and s[i] in "+-":
                    i += 1
                while i < n and s[i].isdigit():
                    i += 1
                if i == k or (i == k + 1 and not s[k].isdigit()):
                    raise ParseError(f"bad exponent in {text!r}")
                exp = int(s[k:i])
        elif not had_digits:
            raise ParseError(f"bad term in {text!r}")
        coeffs[exp] = coeffs.get(exp, 0) + sign * mag
    return LaurentPoly(coeffs)


def parse_rational(text: str) -> RationalFunction:
    """Parse '(num) / (den)' or a bare Laurent polynomial."""
    s = text.strip()
    depth = 0
    split = -1
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split = i
            break
    if split < 0:
        return RationalFunction(parse_laurent(_strip_parens(s)))
    num = parse_laurent(_strip_parens(s[:split]))
    den = parse_laurent(_strip_parens(s[split + 1:]))
    return RationalFunction(num, den)


def _strip_parens(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        s = s[1:-1].strip()
    return s
