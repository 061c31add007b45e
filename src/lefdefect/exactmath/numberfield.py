"""Exact arithmetic in a real number field Q(alpha).

The field is described by a monic integer polynomial together with a rational
interval that isolates exactly one real root alpha (certified by a Sturm
count at construction).  Elements are stored on the power basis
1, alpha, ..., alpha^(d-1) with rational coefficients, so equality is
coefficient-wise and all arithmetic is exact.

Sign determination (`nf_sign`) combines an exact zero test with interval
bisection: a nonzero element evaluates to a nonzero real, so refining the
isolating interval eventually yields a definite sign.  Termination for
square-free (but accidentally reducible) moduli is guaranteed by a gcd-based
zero shortcut; for the intended use the modulus is irreducible and the
shortcut never fires.

Because min_poly is monic with integer coefficients, alpha is an algebraic
integer and sums and products of integer combinations of its powers stay
integer combinations.  The defect search stores its matrices in this ring
Z[alpha] (`IntegralElement`: integer power-basis coordinates, integer
reduction rows).  It decides signs with an integer interval Horner on the
cached bounds of alpha and falls back to `nf_sign` only when that interval
straddles zero.  It divides exactly by multiplying with the adjugate and
dividing by the norm (`norm_adjugate`, `integral_quotient`).  So it builds
no Fraction outside that fallback.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import lcm

from ..errors import ConsistencyError

Rational = Fraction

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


def poly_sub(a, b):
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return poly_trim(out)


def poly_scale(a, s):
    if s == 0:
        return []
    return [x * s for x in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


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


def poly_ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = poly_trim(a), poly_trim(b)
    s0, s1 = [_ONE], []
    t0, t1 = [], [_ONE]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if not r0:
        return [], s0, t0
    inv = _ONE / r0[-1]
    return poly_scale(r0, inv), poly_scale(s0, inv), poly_scale(t0, inv)


def poly_derivative(a):
    return poly_trim([i * x for i, x in enumerate(a)][1:])


def poly_eval(a, x):
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_eval_interval(a, lo, hi):
    """Interval Horner evaluation: encloses {p(x) : x in [lo, hi]}."""
    vlo = vhi = a[-1] if a else _ZERO
    for c in reversed(a[:-1]):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


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

    A process holds one field per normalized (min_poly, lo, hi): the
    constructor returns the instance it certified first, so the checks run
    once and every user shares the refined bounds of alpha.  Invalid input
    raises before it reaches that cache.  A repeated call with the same
    arguments (compared as given, before normalizing) returns the field at
    once; unhashable arguments are normalized every time.  Instances are
    immutable apart from the cached refinement of the isolating interval,
    which never changes what they compare equal to.
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
        self._set_alpha_bounds(lo, hi)
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

    def _set_alpha_bounds(self, lo, hi):
        """Record a tighter interval around alpha (a cache only, so equality
        and hashing use the declared interval).

        `_alpha_int` holds the same bounds over a common denominator q as
        (q*lo, q*hi, (q, q^2, ..., q^(d-1))), for the integer interval
        Horner of `integral_sign`.
        """
        self._alpha_bounds = (lo, hi)
        q = lcm(lo.denominator, hi.denominator)
        scale = tuple(q**k for k in range(1, self._degree))
        self._alpha_int = (lo.numerator * (q // lo.denominator),
                           hi.numerator * (q // hi.denominator), scale)

    @classmethod
    @cache
    def rationals(cls) -> "RealNumberField":
        """The degree-1 field Q itself (alpha = 0), one shared instance.

        Sharing is safe: the only mutable state of a field is its cached
        refinement of alpha's bounds, and no sign in Q ever refines them
        (`nf_sign` decides rational elements before any bisection).
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
        vals = [Fraction(require_exact(c)) for c in coeffs]
        if len(vals) > self._degree:
            raise ValueError("too many coefficients for field degree")
        vals += [_ZERO] * (self._degree - len(vals))
        return AlgebraicReal(self, tuple(vals))

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

    def _reduce(self, product):
        """Reduce a raw product (length <= 2d-1) modulo min_poly."""
        d = self._degree
        out = list(product[:d]) + [_ZERO] * max(0, d - len(product))
        for k, c in enumerate(product[d:]):
            if c == 0:
                continue
            row = self._reduction[k]
            for i in range(d):
                out[i] += c * row[i]
        return tuple(out)

    def refine_interval(self, lo, hi):
        """One bisection step on the isolating interval of alpha."""
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


class AlgebraicReal:
    """Element of a fixed real number field, on the power basis.

    The coefficient tuple always has the field degree's length, so equality
    and hashing are plain tuple comparisons.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: RealNumberField, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, AlgebraicReal):
            if other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicReal(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicReal(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return AlgebraicReal(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        raw = poly_mul(list(self.coeffs), list(o.coeffs))
        return AlgebraicReal(self.field, self.field._reduce(raw))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicReal":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = poly_ext_gcd(list(self.coeffs), list(self.field.min_poly))
        if poly_degree(g) != 0:
            raise ZeroDivisionError("element is a zero divisor (min_poly reducible)")
        d = self.field.degree
        inv = poly_trim(s)
        inv += [_ZERO] * (d - len(inv))
        return AlgebraicReal(self.field, tuple(inv[:d]))

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
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def evaluate(self, alpha_value):
        """Evaluate at a numeric alpha (for cross-checks; exactness not required)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * alpha_value + c
        return acc

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, AlgebraicReal) else other
        if o is None or not isinstance(o, AlgebraicReal):
            return NotImplemented
        return self.field == o.field and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_rational():
            return format_rational(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            elif i == 1:
                terms.append(f"{format_rational(c)}*a")
            else:
                terms.append(f"{format_rational(c)}*a^{i}")
        return " + ".join(terms) if terms else "0"


def nf_sign(x: AlgebraicReal) -> int:
    """Exact sign (-1, 0, +1) of x evaluated at the field's isolated root.

    Zero is decided exactly: coefficient-wise for irreducible moduli, with a
    gcd shortcut guarding the square-free-but-reducible case.  Nonzero signs
    come from interval bisection, which then terminates.  Each call starts
    from the tightest interval around alpha found so far (kept on the field)
    and refines it further only when the sign is still ambiguous there.
    """
    if x.is_zero():
        return 0
    if x.is_rational():
        c = x.coeffs[0]
        return 1 if c > 0 else -1
    field = x.field
    xp = poly_trim(list(x.coeffs))
    lo, hi = field._alpha_bounds
    zero_ruled_out = False
    while True:
        if lo == hi:
            v = poly_eval(xp, lo)
            return 0 if v == 0 else (1 if v > 0 else -1)
        vlo, vhi = poly_eval_interval(xp, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        if not zero_ruled_out:
            g = poly_gcd(xp, list(field.min_poly))
            if poly_degree(g) > 0 and count_real_roots(g, *field.root_interval) > 0:
                # alpha is a common root, so x(alpha) = 0 despite nonzero coefficients.
                return 0
            zero_ruled_out = True
        lo, hi = field.refine_interval(lo, hi)
        field._set_alpha_bounds(lo, hi)


# ---------------------------------------------------------------------------
# Elements of Z[alpha] with integer coordinates
# ---------------------------------------------------------------------------


class IntegralElement:
    """Element of Z[alpha]: integer coordinates on the power basis.

    alpha is integral because min_poly is monic with integer coefficients,
    so sums and products stay in Z[alpha] and reduce with the field's
    integer reduction rows.  This is the scalar of the number-field search:
    it supports +, -, * (by elements and by ints) and comparison with 0;
    signs come from `integral_sign` and exact division from
    `integral_quotient`.
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
    over a common denominator q.  This is the interval Horner of `nf_sign`
    on the same bounds, scaled by q^(d-1) > 0, so every value stays an int.
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
    cached bounds of alpha decides almost every sign.  Only when that
    interval cannot decide does `nf_sign` run, with its exact zero test and
    interval refinement.
    """
    c = x.coeffs
    vlo, vhi = integral_enclosure(c, x.field._alpha_int)
    if vlo > 0:
        return 1
    if vhi < 0:
        return -1
    if not any(c):
        return 0
    return nf_sign(x.field.element(c))


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
