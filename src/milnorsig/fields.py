"""Exact coefficient arithmetic: rationals and simple number fields Q(alpha).

A number field is described by the monic minimal polynomial of its
generator; degree 1 represents Q itself.  An element holds its coordinates
in the power basis 1, alpha, ..., alpha^(d-1) as integer numerators over one
positive denominator, in lowest terms (Cohen, *A Course in Computational
Algebraic Number Theory*, 4.2), so products run on Python ints.  Degree 2
has a closed-form product and a norm inverse.  Higher degrees reduce the
schoolbook product from the top by q alpha^d = -(p_0 + ... + p_(d-1)
alpha^(d-1)), with q * minimal_poly = p_0 + ... + q x^d integral, one step
for each nonzero coordinate above alpha^(d-1), and invert
by Cayley-Hamilton on the ``charpoly`` of multiplication by x.  ``Fraction``
appears only in ``charpoly``'s result and at the boundary:
``FieldElem(field, coeffs)``, ``from_rational``, ``.coeffs`` and ``as_rational``.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(ValueError):
    pass


def _eval(ints: list[int], x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _root_floors(ints: list[int], bound: int) -> set[int]:
    """A set of integers holding floor(r) for every real root r, |r| < bound,
    of the integer polynomial ``ints`` (index = exponent, nonzero).

    The polynomial is monotone between consecutive real roots of its
    derivative, whose floors come from the same function.  So each stretch
    of integers between those floors holds at most one sign change, found by
    bisection; the unit intervals that may hold a root of the derivative are
    kept whole by putting their left ends in the set."""
    if len(ints) <= 1:
        return set()
    breaks = sorted(_root_floors([i * c for i, c in enumerate(ints)][1:], bound))
    floors = set(breaks)
    for a, b in zip([-bound] + [m + 1 for m in breaks], breaks + [bound]):
        if a > b:
            continue
        sa, sb = _sign(_eval(ints, a)), _sign(_eval(ints, b))
        if sa == 0:
            floors.add(a)
        if sb == 0:
            floors.add(b)
        if sa * sb >= 0:
            continue
        while b - a > 1:
            mid = (a + b) // 2
            sm = _sign(_eval(ints, mid))
            if sm == 0:
                floors.add(mid)
                break
            if sm == sa:
                a = mid
            else:
                b = mid
        else:
            floors.add(a)
    return floors


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial with the given coefficients
    (index = exponent, any degree, not all zero).

    With integer coefficients a_0..a_n, y = a_n*x turns a_n^(n-1)*p(x) into a
    monic integer polynomial, whose rational roots are integers below its
    Cauchy bound in absolute value; bisection finds them in time polynomial
    in the coefficients' bit length."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise FieldError("zero polynomial has every root")
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    n, lead = len(ints) - 1, ints[-1]
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    bound = 1 + max(abs(c) for c in monic)
    return [Fraction(y, lead) for y in sorted(_root_floors(monic, bound))
            if _eval(monic, y) == 0]


def _ratio_sqrt(n: int, d: int) -> tuple[int, int] | None:
    """(s, t) with s >= 0, t > 0 and (s/t)^2 = n/d in lowest terms, for
    integers n and d != 0, or None when n/d is not a rational square."""
    if d < 0:
        n, d = -n, -d
    if n < 0:
        return None
    g = math.gcd(n, d)
    n, d = n // g, d // g
    s, t = math.isqrt(n), math.isqrt(d)
    return (s, t) if s * s == n and t * t == d else None


def charpoly(matrix) -> list[Fraction]:
    """c_0..c_n of det(t*I - A) = sum c_k t^k, A a square matrix of ints or
    Fractions: Faddeev-LeVerrier (Cohen, section 2.2), M_k = A M_(k-1) +
    c_(n-k+1) I and c_(n-k) = -tr(A M_k) / k, run on L*A with L the lcm of the
    denominators, so each division by k is exact; c_k(A) = c_k(L*A) / L^(n-k)."""
    n = len(matrix)
    L = math.lcm(*(x.denominator for row in matrix for x in row))
    B = [[int(x * L) for x in row] for row in matrix]
    c = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(a * m[j] for a, m in zip(row, M)) + (c[n - k + 1] if i == j else 0)
              for j in range(n)] for i, row in enumerate(B)]
        c[n - k] = -sum(B[i][j] * M[j][i] for i in range(n) for j in range(n)) // k
    return [Fraction(ck, L ** (n - k)) for k, ck in enumerate(c)]


def _quartic_is_reducible(m: list[Fraction]) -> bool:
    """Whether a monic quartic x^4 + a x^3 + b x^2 + c x + d with no rational
    root is a product (x^2 + p x + q)(x^2 + r x + s) of rational quadratics.

    A split makes y = q + s a rational root of the resolvent cubic
    y^3 - b y^2 + (ac - 4d) y - (a^2 d - 4bd + c^2), with p, r = (a +- e)/2
    for e^2 = a^2 - 4(b - y) and q, s = (y +- f)/2 for f^2 = y^2 - 4d, so both
    are rational squares.  Conversely such p, r, q, s give p + r = a,
    pr + q + s = b and qs = d, and ps + qr = (ay -+ ef)/2 is c in one of the
    two orders of q and s: the resolvent equation says (ay - 2c)^2 = e^2 f^2.
    """
    d, c, b, a = m[:4]
    resolvent = [4 * b * d - a * a * d - c * c, a * c - 4 * d, -b, Fraction(1)]
    return any(all(_ratio_sqrt(z.numerator, z.denominator)
                   for z in (a * a - 4 * (b - y), y * y - 4 * d))
               for y in _rational_roots(resolvent))


class NumberField:
    """Q(alpha) with alpha a root of a monic minimal polynomial over Q.

    ``minimal_poly`` is the coefficient tuple (index = exponent, monic,
    length d+1).  Irreducibility is verified for degree <= 4; larger degrees
    are accepted on the user's word.
    """

    def __init__(self, generator_name: str, minimal_poly: tuple[Fraction, ...]):
        if len(minimal_poly) < 2 or minimal_poly[-1] != 1:
            raise FieldError("minimal polynomial must be monic of degree >= 1")
        self.generator_name = generator_name
        self.minimal_poly = tuple(Fraction(c) for c in minimal_poly)
        self.degree = d = len(minimal_poly) - 1
        self._check_irreducible()
        self._zeros = (0,) * (d - 1)
        # q * minimal_poly = p_0 + p_1 x + ... + q x^d with integers p_i, q > 0
        self._q = math.lcm(*(c.denominator for c in self.minimal_poly))
        self._p = tuple(int(c * self._q) for c in self.minimal_poly)
        # bits one product in ``FieldElem.__mul__`` may add to its factors':
        # ceil(log2 d) for the schoolbook sums, then h + 1 for each of the
        # d - 1 reduction steps (x -> q*x - c*p_i), h the bit length of max |p_i|
        h = max(map(abs, self._p)).bit_length()
        self.reduction_bits = (d - 1).bit_length() + (d - 1) * (h + 1)
        # fields are immutable, and every element and polynomial hash reads this
        self._hash = hash((generator_name, self.minimal_poly))

    def _check_irreducible(self) -> None:
        d = self.degree
        if 2 <= d <= 4 and _rational_roots(list(self.minimal_poly)):
            raise FieldError("minimal polynomial has a rational root")
        if d == 4 and _quartic_is_reducible(list(self.minimal_poly)):
            raise FieldError("minimal polynomial splits into two quadratics")
        # d == 1 is Q itself; d > 4: asserted by the user

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NumberField)
            and self.generator_name == other.generator_name
            and self.minimal_poly == other.minimal_poly
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.degree == 1:
            return "Q"
        return f"Q({self.generator_name})"

    # -- element constructors -------------------------------------------------

    def zero(self) -> FieldElem:
        return _elem(self, (0,) + self._zeros, 1)

    def one(self) -> FieldElem:
        return _elem(self, (1,) + self._zeros, 1)

    def from_rational(self, q) -> FieldElem:
        if isinstance(q, int):
            return _elem(self, (q,) + self._zeros, 1)
        q = Fraction(q)
        return _elem(self, (q.numerator,) + self._zeros, q.denominator)

    def generator(self) -> FieldElem:
        if self.degree == 1:
            raise FieldError("Q has no generator element")
        return _elem(self, (0, 1) + self._zeros[1:], 1)


def _elem(field: NumberField, num: tuple[int, ...], den: int) -> FieldElem:
    """An element from numerators and a denominator already in lowest terms."""
    x = object.__new__(FieldElem)
    x.field = field
    x.num = num
    x.den = den
    return x


def _reduced(field: NumberField, num: tuple[int, ...], den: int) -> FieldElem:
    """An element from numerators and a positive denominator, put in lowest
    terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([n // g for n in num])
            den //= g
    return _elem(field, num, den)


class FieldElem:
    """An element of a NumberField: power-basis coordinates num[i]/den with
    integers num and one denominator den > 0, in lowest terms
    (gcd(den, *num) == 1), so each value has exactly one representation."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != field.degree:
            raise FieldError("coordinate vector has wrong length")
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise FieldError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        da, db = self.den, o.den
        if da == db:
            num = tuple([a + b for a, b in zip(self.num, o.num)])
        else:
            num = tuple([a * db + b * da for a, b in zip(self.num, o.num)])
            da *= db
        return _reduced(self.field, num, da)

    __radd__ = __add__

    def __neg__(self):
        return _elem(self.field, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + -o

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        F = self.field
        d = F.degree
        den = self.den * o.den
        if d == 1:
            num = (self.num[0] * o.num[0],)
        elif d == 2:
            # alpha^2 = -(p1 alpha + p0) / q
            a0, a1 = self.num
            b0, b1 = o.num
            t = a1 * b1
            q, (p0, p1, _) = F._q, F._p
            num = (q * a0 * b0 - p0 * t, q * (a0 * b1 + a1 * b0) - p1 * t)
            den *= q
        else:
            prod = [0] * (2 * d - 1)
            for i, a in enumerate(self.num):
                if a:
                    for j, b in enumerate(o.num):
                        prod[i + j] += a * b
            # reduce from the top by q alpha^d = -(p_0 + ... + p_(d-1) alpha^(d-1));
            # a zero coordinate needs no step, and lowest terms drop the q's
            q, p = F._q, F._p
            for k in range(2 * d - 2, d - 1, -1):
                c = prod.pop()
                if c:
                    prod = [x * q for x in prod]
                    for i in range(d):
                        prod[k - d + i] -= c * p[i]
                    den *= q
            num = tuple(prod)
        return _reduced(F, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        F = self.field
        d = F.degree
        if d == 1:
            n = self.num[0]
            return _elem(F, (self.den,), n) if n > 0 else _elem(F, (-self.den,), -n)
        if d == 2:
            # x * conj(x) is the norm; scaled by q both stay integral:
            # 1/x = den * ((q n0 - p1 n1) - q n1 alpha) / (q n0^2 - p1 n0 n1 + p0 n1^2)
            n0, n1 = self.num
            q, (p0, p1, _) = F._q, F._p
            norm = q * n0 * n0 - p1 * n0 * n1 + p0 * n1 * n1
            s = self.den if norm > 0 else -self.den
            return _reduced(F, (s * (q * n0 - p1 * n1), -s * q * n1), abs(norm))
        # Cayley-Hamilton on multiplication by x (its columns x * alpha^k go in
        # as rows, the transpose): 1/x = -(x^(d-1) + ... + c_1) / c_0
        cols = [self]
        for _ in range(d - 1):
            cols.append(cols[-1] * F.generator())
        c = charpoly([col.coeffs for col in cols])
        if c[0] == 0:
            raise FieldError("minimal polynomial is not irreducible")
        acc = F.one()
        for ck in reversed(c[1:d]):
            acc = acc * self + ck
        return acc * (-1 / c[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (
            isinstance(other, FieldElem)
            and self.num == other.num
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self):
        return format_field_elem(self)


def format_field_elem(x: FieldElem) -> str:
    """Canonical printing, e.g. ``1/2 + 3*i`` or ``-zeta3^2``."""
    g = x.field.generator_name
    parts = []
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mon = g if i == 1 else f"{g}^{i}"
        if c == 1:
            parts.append(mon)
        elif c == -1:
            parts.append(f"-{mon}")
        else:
            parts.append(f"{c}*{mon}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _scaled(x: FieldElem, n: int, d: int) -> FieldElem:
    """x * n / d for integers n and d > 0."""
    return _reduced(x.field, tuple([k * n for k in x.num]), x.den * d)


def sqrt_in_field(field: NumberField, x: FieldElem) -> FieldElem | None:
    """A square root of x in the field, or None.

    Complete for degree <= 2; degree-1 fields reduce to the rational test.
    Works on the integer coordinates of x: with q * minimal_poly = p_0 +
    p_1 alpha + q alpha^2 integral, every test below is whether a ratio of
    integers is a rational square."""
    if x.field != field:
        raise FieldError("element of a different field")
    if field.degree == 1:
        r = _ratio_sqrt(x.num[0], x.den)
        return None if r is None else _elem(field, (r[0],), r[1])
    if field.degree != 2:
        return None  # unsupported; caller falls back to overrides
    q, (p0, p1, _) = field._q, field._p
    (n0, n1), den = x.num, x.den
    if not n1:
        # y = b * (alpha + p1/(2q)) has trace 0 and squares to b^2 D / (4 q^2),
        # D = p1^2 - 4 q p0 the discriminant scaled by q^2
        b = _ratio_sqrt(4 * q * q * n0, den * (p1 * p1 - 4 * q * p0))
        if b is not None:
            s, t = b
            return _reduced(field, (s * p1, 2 * q * s), 2 * q * t)
    # As y^2 = Tr(y) y - N(y), a root y with Tr(y) = 0 squares to a rational
    # and is found above; any other has Tr(y) != 0, +sqrt(x) for a rational
    # square x > 0 coming at the sign +1 below.  y^2 = x gives N(y)^2 = N(x)
    # and Tr(y)^2 = Tr(x) + 2 N(y); conversely, n^2 = N(x) and
    # t^2 = Tr(x) + 2n != 0 give ((x + n) / t)^2 = x, since
    # x^2 = Tr(x) x - N(x).  With x = (n0 + n1 alpha) / den,
    # N(x) = (q n0^2 - p1 n0 n1 + p0 n1^2) / (q den^2) and
    # Tr(x) = (2 q n0 - p1 n1) / (q den).
    r = _ratio_sqrt(q * n0 * n0 - p1 * n0 * n1 + p0 * n1 * n1, q * den * den)
    if r is None:
        return None
    rs, rt = r
    for sign in (1, -1):
        t = _ratio_sqrt((2 * q * n0 - p1 * n1) * rt + 2 * sign * rs * q * den, q * den * rt)
        if t is not None and t[0]:
            ts, tt = t
            return _reduced(field, ((n0 * rt + sign * rs * den) * tt, n1 * rt * tt),
                            den * rt * ts)
    return None


def quadratic_roots(field: NumberField, p: FieldElem, q: FieldElem) -> list[FieldElem]:
    """Roots in the field of x^2 + p x + q: (-p + s) / 2 and then (-p - s) / 2
    for s = ``sqrt_in_field`` of the discriminant, one root when s = 0."""
    s = sqrt_in_field(field, p * p - _scaled(q, 4, 1))
    if s is None:
        return []
    r1 = _scaled(s - p, 1, 2)
    r2 = _scaled(-p - s, 1, 2)
    return [r1] if r1 == r2 else [r1, r2]


# -- field descriptors --------------------------------------------------------

QQ = NumberField("a", (Fraction(0), Fraction(1)))  # x, degree 1: Q itself

_BUILTIN = {
    "Q": QQ,
    "Q(i)": NumberField("i", (Fraction(1), Fraction(0), Fraction(1))),
    "Q(zeta3)": NumberField("zeta3", (Fraction(1), Fraction(1), Fraction(1))),
}


def parse_field(descriptor: str) -> NumberField:
    """Parse 'Q', 'Q(i)', 'Q(zeta3)' or 'Q[a]/(<monic poly in a>)'."""
    descriptor = descriptor.strip()
    if descriptor in _BUILTIN:
        return _BUILTIN[descriptor]
    if descriptor.startswith("Q[") and "]/(" in descriptor and descriptor.endswith(")"):
        gen = descriptor[2 : descriptor.index("]")].strip()
        body = descriptor[descriptor.index("]/(") + 3 : -1]
        from .parser import parse_univariate_rational

        coeffs = parse_univariate_rational(body, gen)
        if len(coeffs) == 2:
            raise FieldError(f"{descriptor!r} has degree 1, so it is Q: write field = \"Q\"")
        return NumberField(gen, tuple(coeffs))
    raise FieldError(f"unsupported field descriptor: {descriptor!r}")
