"""Exact arithmetic in Laurent polynomials and rational functions of q.

Laurent polynomials are stored as sparse integer coefficient maps
{exponent: coefficient}; coefficients are arbitrary-precision Python ints
and zero coefficients are never stored.  Rational functions keep an
integer Laurent numerator over a genuine polynomial denominator with
nonzero constant term, reduced and sign-normalized, so equality is exact
and structural.

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
from typing import Iterable, Mapping, Union

from .errors import DomainError


class DivisionByZero(ZeroDivisionError, DomainError):
    """Division of a rational function by zero."""


class DimensionMismatch(ValueError, DomainError):
    """Matrix dimensions are incompatible for the requested operation."""


class ParseError(ValueError):
    """Input text does not match the Laurent polynomial grammar."""


class LaurentPoly:
    """An integer Laurent polynomial in q."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Union[Mapping[int, int], str, int, None] = None):
        if coeffs is None:
            self._c: dict[int, int] = {}
        elif isinstance(coeffs, str):
            self._c = dict(parse_laurent(coeffs)._c)
        elif isinstance(coeffs, int):
            self._c = {0: coeffs} if coeffs else {}
        else:
            self._c = {e: c for e, c in coeffs.items() if c != 0}

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def q(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    def items(self) -> Iterable[tuple[int, int]]:
        return self._c.items()

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a Laurent polynomial are not rational-free; use RationalFunction")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __str__(self) -> str:
        return render_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({render_laurent(self)!r})"


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
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


# -- dense integer polynomial helpers (gcd and exact division in Z[q]) -----
#
# A dense polynomial is a list of int coefficients low-to-high with a
# nonzero last entry; [] is zero.


def _to_dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """Split p = q^shift * f with f a polynomial, f(0) != 0."""
    if p.is_zero():
        return 0, []
    v = p.valuation()
    d = p.degree()
    return v, [p.coeff(e) for e in range(v, d + 1)]


def _from_dense(shift: int, f: list[int]) -> LaurentPoly:
    return LaurentPoly({shift + i: c for i, c in enumerate(f) if c != 0})


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
    a = _dense_primitive(_dense_trim(list(a)))
    b = _dense_primitive(_dense_trim(list(b)))
    while b:
        r = _dense_pseudo_rem(a, b)
        a, b = b, _dense_primitive(r)
    return a if a else []


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

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inverse() ** (-n)
        result = RationalFunction.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
    vn, fn = _to_dense(num)
    vd, fd = _to_dense(den)
    g = _dense_gcd(fn, fd)
    if len(g) > 1 or (g and g[0] != 1):
        fn = _dense_exact_div(fn, g)
        fd = _dense_exact_div(fd, g)
    cg = gcd(*fn, *fd)
    if cg > 1:
        fn = [c // cg for c in fn]
        fd = [c // cg for c in fd]
    if fd[-1] < 0:
        fn = [-c for c in fn]
        fd = [-c for c in fd]
    return _from_dense(vn - vd, fn), _from_dense(0, fd)


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
    for e in sorted(p._c, reverse=True):
        c = p._c[e]
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
    if r.den._c == {0: 1}:
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
