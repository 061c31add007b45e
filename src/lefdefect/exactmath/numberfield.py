"""Exact arithmetic in a real number field Q(alpha).

The field is described by a monic integer polynomial together with a rational
interval that isolates exactly one real root alpha (certified by a Sturm
count at construction).  Because min_poly is monic with integer
coefficients, alpha is an algebraic integer, and sums and products of
integer combinations of its powers stay integer combinations: the ring
Z[alpha] (`IntegralElement`: integer power-basis coordinates, reduced with
the field's integer reduction rows).  A field element (`AlgebraicReal`) is
num / den with num in Z[alpha] and den a positive integer, in lowest terms,
so equality is exact and all arithmetic runs on integers.

A sign comes from an integer interval Horner of the element on bounds of
alpha (`integral_enclosure`).  The field fixes those bounds once, at
certification, and never changes them, so a sign never depends on what ran
before it.  Only when that interval straddles zero does `nf_sign` run: an
exact zero test, then bisection of a local copy of the bounds, which ends
because a nonzero element evaluates to a nonzero real.  The zero test is a
gcd with min_poly, which guards a square-free but accidentally reducible
modulus; for the intended use min_poly is irreducible and it never fires.
Division multiplies by the adjugate and divides by the norm
(`norm_adjugate`, `integral_quotient`), so no arithmetic builds a Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from ..errors import ConsistencyError

# Bisections of the declared root interval at certification: the field's
# fixed bounds of alpha, on which `integral_sign` decides almost every sign.
ALPHA_BISECTIONS = 8
_ZERO = Fraction(0)
_ONE = Fraction(1)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational string "p" or "p/q".

    After `strip()`, the string must match [+-]?[0-9]+(/[0-9]+)? in ASCII
    digits.  Everything else is rejected: floating-point shapes ("1.5",
    "1e3") so that inputs stay exact, and the other strings `int` would
    read ("1_000", non-ASCII digits, a sign on the denominator, spaces
    around the slash).
    """
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not an exact rational string: {text!r}")
    num, den = m.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def require_exact(x):
    """x itself, or `TypeError` if it is a float, which is not the rational
    it was meant to be (0.1 is 3602879701896397 / 2^55)."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact input; use an int, Fraction or string")
    return x


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q: coefficient lists, low degree first,
# normalized to have no trailing zeros (the zero polynomial is []).
# ---------------------------------------------------------------------------


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_degree(c) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(c) - 1


def poly_scale(a, s):
    if s == 0:
        return []
    return [x * s for x in a]


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    inv_lead = _ONE / b[-1]
    while len(a) >= len(b) and a:
        f = a[-1] * inv_lead
        shift = len(a) - len(b)
        q[shift] = f
        for i, y in enumerate(b):
            a[shift + i] -= f * y
        a = poly_trim(a)
    return poly_trim(q), a


def poly_monic(a):
    if not a:
        return []
    inv = _ONE / a[-1]
    return [x * inv for x in a]


def poly_gcd(a, b):
    """Monic gcd over Q."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_derivative(a):
    return poly_trim([i * x for i, x in enumerate(a)][1:])


def poly_eval(a, x):
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def sturm_chain(p):
    chain = [poly_trim(p), poly_derivative(p)]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        chain.append(poly_scale(r, -1))
    chain.pop()
    return chain


def _sign_variations(values) -> int:
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def count_real_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi], via Sturm's theorem."""
    chain = sturm_chain(p)
    at_lo = _sign_variations([poly_eval(q, lo) for q in chain])
    at_hi = _sign_variations([poly_eval(q, hi) for q in chain])
    return at_lo - at_hi


# ---------------------------------------------------------------------------
# The field and its elements
# ---------------------------------------------------------------------------


_FIELDS = {}  # (min_poly, lo, hi) -> the one certified field of that key
_SPELLED = {}  # (tuple(min_poly), tuple(root_interval)) as given -> its field


class RealNumberField:
    """Q(alpha) for the unique real root alpha of `min_poly` in `(lo, hi)`.

    `min_poly` is a monic integer polynomial given low degree first.  It must
    be square-free and change sign over the isolating interval; a Sturm count
    certifies that the interval contains exactly one root.  Irreducibility is
    a precondition on the caller (division detects violations lazily).

    Certification also bisects the interval ALPHA_BISECTIONS times and
    keeps the result as the field's bounds of alpha (`_alpha_bounds`, and
    `_alpha_int` over a common denominator) for the life of the field.
    Instances are immutable after that: no sign ever changes them.

    A process holds one field per normalized (min_poly, lo, hi): the
    constructor returns the instance it certified first, so the checks run
    once per process.  Invalid input raises before it reaches that cache.  A
    repeated call with the same arguments (compared as given, before
    normalizing) returns the field at once; unhashable arguments are
    normalized every time.  Equality and hashing use the declared interval.
    """

    def __new__(cls, min_poly, root_interval):
        min_poly = tuple(map(require_exact, min_poly))
        root_interval = tuple(map(require_exact, root_interval))
        spelled = (min_poly, root_interval)
        try:
            field = _SPELLED.get(spelled)
        except TypeError:
            spelled = field = None
        if field is not None:
            return field
        coeffs = [int(c) for c in min_poly]
        if list(min_poly) != coeffs:
            raise ValueError("min_poly must have integer coefficients")
        coeffs = poly_trim([Fraction(c) for c in coeffs])
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree at least 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        lo, hi = (Fraction(x) for x in root_interval)
        if not lo < hi:
            raise ValueError("root_interval must satisfy lo < hi")
        key = (tuple(coeffs), lo, hi)
        field = _FIELDS.get(key)
        if field is None:
            field = super().__new__(cls)
            field._certify(coeffs, lo, hi)
            _FIELDS[key] = field
        if spelled is not None:
            _SPELLED[spelled] = field
        return field

    def _certify(self, coeffs, lo, hi):
        if poly_degree(poly_gcd(coeffs, poly_derivative(coeffs))) > 0:
            raise ValueError("min_poly must be square-free")
        if poly_eval(coeffs, lo) * poly_eval(coeffs, hi) >= 0:
            raise ValueError("min_poly must change sign over root_interval")
        if count_real_roots(coeffs, lo, hi) != 1:
            raise ValueError("root_interval does not isolate exactly one root")

        self._min_poly = tuple(coeffs)
        self._interval = (lo, hi)
        d = self._degree = len(coeffs) - 1
        bounds = (lo, hi)
        for _ in range(ALPHA_BISECTIONS):
            bounds = self.refine_interval(*bounds)
        self._alpha_bounds = bounds
        self._alpha_int = _integer_bounds(*bounds, d)
        # Reduction rows: alpha^(d+k) on the power basis, for k = 0..d-2
        # (a product of two reduced elements has degree at most 2d-2).  They
        # are integers because min_poly is monic with integer coefficients.
        base = [-int(c) for c in coeffs[:d]]
        rows = []
        current = list(base)
        for _ in range(d - 1):
            rows.append(tuple(current))
            head = current[d - 1]
            current = [head * base[0]] + [current[i - 1] + head * base[i] for i in range(1, d)]
        self._reduction = tuple(rows)

    @classmethod
    @cache
    def rationals(cls) -> "RealNumberField":
        """The degree-1 field Q itself (alpha = 0), one shared instance.

        Sharing is safe because no field changes after certification.
        """
        return cls([0, 1], (Fraction(-1), Fraction(1)))

    @property
    def min_poly(self):
        return self._min_poly

    @property
    def root_interval(self):
        return self._interval

    @property
    def degree(self) -> int:
        return self._degree

    def element(self, coeffs) -> "AlgebraicReal":
        """The element sum_k coeffs[k] alpha^k, for at most `degree` exact
        rationals.  Over den, the lcm of their reduced denominators, the
        numerator's coordinates have no common factor with den."""
        vals = [Fraction(require_exact(c)) for c in coeffs]
        d = self._degree
        if len(vals) > d:
            raise ValueError("too many coefficients for field degree")
        den = lcm(*(v.denominator for v in vals))
        num = tuple(v.numerator * (den // v.denominator) for v in vals) + (0,) * (d - len(vals))
        return AlgebraicReal(self, IntegralElement(self, num), den)

    def from_rational(self, q) -> "AlgebraicReal":
        return self.element([q])

    def zero(self) -> "AlgebraicReal":
        return self.from_rational(0)

    def one(self) -> "AlgebraicReal":
        return self.from_rational(1)

    def alpha(self) -> "AlgebraicReal":
        if self._degree == 1:
            # alpha is the rational root itself.
            return self.from_rational(-self._min_poly[0])
        return self.element([0, 1])

    def refine_interval(self, lo, hi):
        """One bisection step on an isolating interval of alpha."""
        mid = (lo + hi) / 2
        vmid = poly_eval(self._min_poly, mid)
        if vmid == 0:
            # Rational root hit exactly; collapse to a degenerate interval.
            return mid, mid
        if poly_eval(self._min_poly, lo) * vmid < 0:
            return lo, mid
        return mid, hi

    def __eq__(self, other):
        if not isinstance(other, RealNumberField):
            return NotImplemented
        return self._min_poly == other._min_poly and self._interval == other._interval

    def __hash__(self):
        return hash((self._min_poly, self._interval))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self._min_poly):
            if c == 0:
                continue
            terms.append(f"{format_rational(c)}*x^{i}" if i else format_rational(c))
        lo, hi = self._interval
        return f"RealNumberField({' + '.join(terms)}, ({format_rational(lo)}, {format_rational(hi)}))"


def _integer_bounds(lo, hi, degree):
    """Bounds lo <= alpha <= hi over a common denominator q, as
    (q*lo, q*hi, (q, q^2, ..., q^(degree-1))): the `alpha_int` of
    `integral_enclosure`."""
    q = lcm(lo.denominator, hi.denominator)
    return (lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator),
            tuple(q**k for k in range(1, degree)))


class AlgebraicReal:
    """Element num / den of a fixed real number field.

    num is an `IntegralElement` (integer coordinates on the power basis)
    and den a positive int with no factor common to all of num's
    coordinates and den.  This form is unique, so equality and hashing
    compare (field, num, den).  Products are products in Z[alpha], the
    inverse comes from `norm_adjugate` and the sign from `nf_sign`, all on
    integers; `coeffs` is the rational view for output.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: RealNumberField, num: "IntegralElement", den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coordinates as `Fraction`s."""
        return tuple(Fraction(c, self.den) for c in self.num.coeffs)

    def _coerce(self, other):
        if isinstance(other, AlgebraicReal):
            if other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            field = self.field
            num = (other.numerator,) + (0,) * (field.degree - 1)
            return AlgebraicReal(field, IntegralElement(field, num), other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return AlgebraicReal(self.field, self.num * -1, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicReal":
        """den / num = den adj(num) / N(num); a zero divisor (reducible
        min_poly) raises `ZeroDivisionError`."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        norm, adj = norm_adjugate(self.num)
        return _reduced(IntegralElement(self.field, adj) * self.den, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.num.coeffs)

    def is_rational(self) -> bool:
        return not any(self.num.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num.coeffs[0], self.den)

    def __eq__(self, other):
        o = other if isinstance(other, AlgebraicReal) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field == o.field and self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.field, self.num.coeffs, self.den))

    def __repr__(self):
        coeffs = self.coeffs
        if self.is_rational():
            return format_rational(coeffs[0])
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            elif i == 1:
                terms.append(f"{format_rational(c)}*a")
            else:
                terms.append(f"{format_rational(c)}*a^{i}")
        return " + ".join(terms) if terms else "0"


def _reduced(num: "IntegralElement", den: int) -> AlgebraicReal:
    """num / den in lowest terms with a positive denominator (den != 0)."""
    g = gcd(den, *num.coeffs)
    if den < 0:
        g = -g
    if g != 1:
        num = IntegralElement(num.field, tuple(c // g for c in num.coeffs))
        den //= g
    return AlgebraicReal(num.field, num, den)


def nf_sign(x: AlgebraicReal) -> int:
    """Exact sign (-1, 0, +1) of x evaluated at the field's isolated root.

    The sign of x is the sign of its numerator in Z[alpha], enclosed by the
    integer interval Horner of `integral_enclosure` on the field's bounds
    of alpha.  When that enclosure straddles 0, a gcd with min_poly decides
    whether x vanishes at alpha (exactly zero for irreducible moduli, and a
    guard for the square-free but reducible case); otherwise bisecting a
    local copy of the bounds ends, because x is nonzero at alpha.
    """
    c = x.num.coeffs
    if not any(c):
        return 0
    field = x.field
    vlo, vhi = integral_enclosure(c, field._alpha_int)
    if vlo <= 0 <= vhi:
        g = poly_gcd(c, field.min_poly)
        if poly_degree(g) > 0 and count_real_roots(g, *field.root_interval) > 0:
            # alpha is a common root, so x(alpha) = 0 despite nonzero coefficients.
            return 0
        # On an interval collapsed onto a rational alpha the enclosure is exact.
        lo, hi = field._alpha_bounds
        while vlo <= 0 <= vhi:
            lo, hi = field.refine_interval(lo, hi)
            vlo, vhi = integral_enclosure(c, _integer_bounds(lo, hi, field.degree))
    return 1 if vlo > 0 else -1


# ---------------------------------------------------------------------------
# Elements of Z[alpha] with integer coordinates
# ---------------------------------------------------------------------------


class IntegralElement:
    """Element of Z[alpha]: integer coordinates on the power basis.

    alpha is integral because min_poly is monic with integer coefficients,
    so sums and products stay in Z[alpha] and reduce with the field's
    integer reduction rows.  This is the scalar of the number-field search
    and the numerator of every `AlgebraicReal`: it supports +, -, * (by
    elements and by ints) and comparison with 0; signs come from
    `integral_sign` and exact division from `integral_quotient`.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: RealNumberField, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        if isinstance(other, int):
            c = self.coeffs
            return IntegralElement(self.field, (c[0] + other,) + c[1:])
        return IntegralElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        return IntegralElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        a = self.coeffs
        if isinstance(other, int):
            return IntegralElement(self.field, tuple(other * x for x in a))
        b = other.coeffs
        d = len(a)
        raw = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        out = raw[:d]
        for c, row in zip(raw[d:], self.field._reduction):
            if c:
                for i in range(d):
                    out[i] += c * row[i]
        return IntegralElement(self.field, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            c = self.coeffs
            return c[0] == other and not any(c[1:])
        if isinstance(other, IntegralElement):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"IntegralElement({self.coeffs})"


def _alpha_multiples(field: RealNumberField, coeffs):
    """Coordinates of x, x*alpha, ..., x*alpha^(d-1): the columns of the
    matrix of multiplication by x on the power basis."""
    d = len(coeffs)
    top = field._reduction[0] if d > 1 else ()  # alpha^d on the power basis
    cols = [list(coeffs)]
    for _ in range(d - 1):
        prev = cols[-1]
        h = prev[-1]
        cols.append([h * top[0]] + [prev[i - 1] + h * top[i] for i in range(1, d)])
    return cols


def integral_enclosure(coeffs, alpha_int):
    """Integer bounds (vlo, vhi) with vlo <= q^(d-1) x(alpha) <= vhi.

    x has power-basis coordinates `coeffs`, and `alpha_int` is a field's
    `_alpha_int` (q*lo, q*hi, (q, ..., q^(d-1))) for bounds lo <= alpha <= hi
    over a common denominator q.  This is the interval Horner of x on
    [lo, hi] scaled by q^(d-1) > 0, so every value stays an int.
    """
    lo, hi, scale = alpha_int
    vlo = vhi = coeffs[-1]
    for coeff, q in zip(reversed(coeffs[:-1]), scale):
        products = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        shift = q * coeff
        vlo = min(products) + shift
        vhi = max(products) + shift
    return vlo, vhi


def integral_sign(x: IntegralElement) -> int:
    """Exact sign (-1, 0, +1) of x at the field's isolated root.

    The integer interval Horner of `integral_enclosure` over the field's
    bounds of alpha decides almost every sign.  Only when that interval
    cannot decide does `nf_sign` run, with its exact zero test and
    bisection.
    """
    c = x.coeffs
    vlo, vhi = integral_enclosure(c, x.field._alpha_int)
    if vlo > 0:
        return 1
    if vhi < 0:
        return -1
    if not any(c):
        return 0
    return nf_sign(AlgebraicReal(x.field, x))


def norm_adjugate(p: IntegralElement):
    """(N(p), adj(p)) for p in Z[alpha], with p * adj(p) = N(p).

    N(p) is the determinant of the matrix M_p of multiplication by p and
    adj(p) = adj(M_p) e_0, the integer coordinates of N(p) / p; both come
    from one fraction-free Gauss-Jordan elimination of [M_p | e_0] (a row
    swap negates both, which leaves adj(p) / N(p) = 1 / p unchanged).  So
    1 / p = adj(p) / N(p) with no Fraction (Cohen, A Course in
    Computational Algebraic Number Theory, 4.2).  A zero divisor p
    (N(p) = 0, possible only for a reducible min_poly) raises
    `ZeroDivisionError`.
    """
    d = len(p.coeffs)
    cols = _alpha_multiples(p.field, p.coeffs)
    m = [[cols[k][i] for k in range(d)] + [int(i == 0)] for i in range(d)]
    prev = 1
    for k in range(d):
        pivot = next((i for i in range(k, d) if m[i][k]), None)
        if pivot is None:
            raise ZeroDivisionError("element is a zero divisor (min_poly reducible)")
        m[k], m[pivot] = m[pivot], m[k]
        row_k = m[k]
        piv = row_k[k]
        for i in range(d):
            if i != k:
                f = m[i][k]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], row_k)]
        prev = piv
    return prev, tuple(row[d] for row in m)


def integral_quotient(p: IntegralElement):
    """Exact division by p in Z[alpha]: x -> x * adj(p) / N(p).

    N(p) and adj(p) come from `norm_adjugate`.  Multiplication by adj(p)
    is the matrix adj(M_p), so a division costs one matrix-vector product
    and d exact integer divisions.  A nonzero remainder, or N(p) = 0 (a
    zero divisor, possible only for a reducible min_poly), raises
    `ConsistencyError`.
    """
    field = p.field
    d = len(p.coeffs)
    try:
        norm, adj_coeffs = norm_adjugate(p)
    except ZeroDivisionError as exc:
        raise ConsistencyError(f"{p} is a zero divisor: min_poly is reducible") from exc
    adj_cols = _alpha_multiples(field, adj_coeffs)
    adj = [[adj_cols[k][i] for k in range(d)] for i in range(d)]

    def divide(x):
        c = x.coeffs
        out = []
        for row in adj:
            q, r = divmod(sum(a * b for a, b in zip(row, c)), norm)
            if r:
                raise ConsistencyError(f"{x} is not divisible by {p} in Z[alpha]")
            out.append(q)
        return IntegralElement(field, tuple(out))

    return divide
