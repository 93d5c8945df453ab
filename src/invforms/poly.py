"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a dict from exponent tuple (length = number of
variables) to a nonzero Fraction.  Values are treated as immutable
after construction; all operations return new polynomials.
"""

from fractions import Fraction

from invforms.errors import StructuralError

_NAMES = "xyzw"


def var_name(n, i):
    """Display name of variable i (x,y,z,w for n <= 4, x1..xn otherwise)."""
    if n <= 4:
        return _NAMES[i]
    return f"x{i + 1}"


class Polynomial:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != n:
                    raise StructuralError(
                        f"exponent vector {exps} has length {len(exps)}, expected {n}"
                    )
                c = Fraction(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def variable(cls, n, i):
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): 1})

    @property
    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.n != other.n:
            raise StructuralError(
                f"mixed variable counts {self.n} and {other.n}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Polynomial(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = Fraction(other)
            if not c:
                return Polynomial(self.n)
            return Polynomial(self.n, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                s = terms.get(key, 0) + ca * cb
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return Polynomial(self.n, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not self.terms:
                return Fraction(other) == 0
            const = self.terms.get((0,) * self.n)
            return len(self.terms) == 1 and const == Fraction(other)
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def partial(self, i):
        """Partial derivative with respect to variable i."""
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                terms[key] = terms.get(key, 0) + c * e
        return Polynomial(self.n, terms)

    def degrees(self):
        """Set of total degrees of the terms."""
        return {sum(e) for e in self.terms}

    @property
    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def total_degree(self):
        """Max total degree, or -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(
                var_name(self.n, i) + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            bits.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"Polynomial({self})"

