"""Exact arithmetic in Z[omega, 1/sqrt2] with omega = e^{i pi/4}.

Every value is (a + b*omega + c*omega**2 + d*omega**3) / sqrt2**k with
integer coefficients, using omega**4 = -1, omega**2 = i and
sqrt2 = omega - omega**3.  All single-qubit matrices generated by H, P
and T have entries of this shape, so circuit evaluation never leaves
the ring and equality is decidable structurally.

A RingElem is one such value in canonical form, and nothing more: it
has no arithmetic.  Every product is taken on UMat2 keys.  A UMat2 is
kept flat, as the tuple (k, 16 integers) of its four entries'
numerators over one common sqrt2**k with k as small as possible
(Kliuchnikov, Maslov and Mosca, arXiv:1206.5236).  A product is then
eight numerator convolutions and one joint reduction, with no
per-entry objects.  A StateVec is kept the same way, as (k, 8 integers),
so applying a matrix to a state builds no per-entry objects either.
A product by one generator is cheaper still: _gate_mul takes the ring's
own P as a rotation of column 1 and its own H as a column sum and
difference with one joint reduction, which is what the group closure
and its tree walk (group.GroupTable.right_products, which census takes
only for its oracle check and a collision's message) step by.
"""

from __future__ import annotations

from types import MappingProxyType

_OMEGA_C = (1 + 1j) * 0.5 ** 0.5


def _reduced(a: int, b: int, c: int, d: int, k: int) -> tuple[int, int, int, int, int]:
    # Canonical form: k == 0, or the numerator is not divisible by sqrt2.
    # Dividing (a, b, c, d) by sqrt2 gives ((b-d)/2, (a+c)/2, (b+d)/2, (c-a)/2),
    # which is integral exactly when a = c and b = d (mod 2).
    while k > 0 and (a - c) % 2 == 0 and (b - d) % 2 == 0:
        a, b, c, d = (b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2
        k -= 1
    return a, b, c, d, k


def _scaled(a: int, b: int, c: int, d: int, m: int) -> tuple[int, int, int, int]:
    # Multiply the numerator by sqrt2**m, m >= 0.
    if not m:
        return a, b, c, d
    if m & 1:
        a, b, c, d = b - d, a + c, b + d, c - a
    f = 1 << (m >> 1)
    return a * f, b * f, c * f, d * f


def _common_key(*entries: RingElem) -> tuple[int, ...]:
    # Flat key of canonical entries: the largest entry exponent, then each
    # numerator scaled up to it.  Per-entry canonical form makes that
    # exponent the least common one, so the key needs no reduction.
    k = max(e._k for e in entries)
    key = [k]
    for e in entries:
        key += _scaled(e._a, e._b, e._c, e._d, k - e._k)
    return tuple(key)


def _not_ring_elems(owner: str, entries: tuple) -> TypeError:
    # The error for a constructor given something other than RingElems.
    bad = next(e for e in entries if not isinstance(e, RingElem))
    return TypeError(f"{owner}() entries must be RingElem, "
                     f"not {type(bad).__name__}")


class RingElem:
    """One ring value, always stored in canonical form.

    A value, not an arithmetic type: every product is taken on UMat2 keys.
    The constructor canonicalizes, so two equal values are structurally
    identical and hash alike.  Global phase is significant.  Coefficients
    and exponent must be int; anything else raises TypeError.
    """

    __slots__ = ("_a", "_b", "_c", "_d", "_k")

    def __init__(self, a: int, b: int, c: int, d: int, k: int = 0) -> None:
        for v in (a, b, c, d, k):
            if not isinstance(v, int):
                raise TypeError("RingElem() coefficients and exponent must "
                                f"be int, not {type(v).__name__}")
        if k < 0:
            raise ValueError(f"denominator exponent must be >= 0, got {k}")
        self._a, self._b, self._c, self._d, self._k = _reduced(a, b, c, d, k)

    a = property(lambda self: self._a)
    b = property(lambda self: self._b)
    c = property(lambda self: self._c)
    d = property(lambda self: self._d)
    k = property(lambda self: self._k)

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return self._a, self._b, self._c, self._d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._c == other._c and self._d == other._d
                and self._k == other._k)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._c, self._d, self._k))

    def to_complex(self) -> complex:
        # Float projection for diagnostics and cross-checks only; the
        # library itself never computes with floats.
        w = _OMEGA_C
        num = self._a + self._b * w + self._c * w * w + self._d * w ** 3
        return num / (2 ** (self._k / 2))

    def __repr__(self) -> str:
        return (f"RingElem({self._a}, {self._b}, {self._c}, {self._d}, "
                f"{self._k})")

    def __str__(self) -> str:
        num = f"({self._a} + {self._b}w + {self._c}w2 + {self._d}w3)"
        return num if self._k == 0 else f"{num}/sqrt2^{self._k}"


def _mat_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    # Flat 2x2 product of two keys: the exponents add, each output entry
    # is a sum of two numerator products, each a negacyclic convolution
    # (omega**4 = -1 folds degree >= 4 terms back with a sign flip), and
    # one joint sqrt2 reduction over all 16 numerators follows.
    (k, p0, q0, r0, s0, p1, q1, r1, s1,
     p2, q2, r2, s2, p3, q3, r3, s3) = x
    (ky, a0, b0, c0, d0, a1, b1, c1, d1,
     a2, b2, c2, d2, a3, b3, c3, d3) = y
    k += ky
    # Row 0 of x against columns 0 and 1 of y, then row 1.
    e0 = p0*a0 - q0*d0 - r0*c0 - s0*b0 + p1*a2 - q1*d2 - r1*c2 - s1*b2
    f0 = p0*b0 + q0*a0 - r0*d0 - s0*c0 + p1*b2 + q1*a2 - r1*d2 - s1*c2
    g0 = p0*c0 + q0*b0 + r0*a0 - s0*d0 + p1*c2 + q1*b2 + r1*a2 - s1*d2
    h0 = p0*d0 + q0*c0 + r0*b0 + s0*a0 + p1*d2 + q1*c2 + r1*b2 + s1*a2
    e1 = p0*a1 - q0*d1 - r0*c1 - s0*b1 + p1*a3 - q1*d3 - r1*c3 - s1*b3
    f1 = p0*b1 + q0*a1 - r0*d1 - s0*c1 + p1*b3 + q1*a3 - r1*d3 - s1*c3
    g1 = p0*c1 + q0*b1 + r0*a1 - s0*d1 + p1*c3 + q1*b3 + r1*a3 - s1*d3
    h1 = p0*d1 + q0*c1 + r0*b1 + s0*a1 + p1*d3 + q1*c3 + r1*b3 + s1*a3
    e2 = p2*a0 - q2*d0 - r2*c0 - s2*b0 + p3*a2 - q3*d2 - r3*c2 - s3*b2
    f2 = p2*b0 + q2*a0 - r2*d0 - s2*c0 + p3*b2 + q3*a2 - r3*d2 - s3*c2
    g2 = p2*c0 + q2*b0 + r2*a0 - s2*d0 + p3*c2 + q3*b2 + r3*a2 - s3*d2
    h2 = p2*d0 + q2*c0 + r2*b0 + s2*a0 + p3*d2 + q3*c2 + r3*b2 + s3*a2
    e3 = p2*a1 - q2*d1 - r2*c1 - s2*b1 + p3*a3 - q3*d3 - r3*c3 - s3*b3
    f3 = p2*b1 + q2*a1 - r2*d1 - s2*c1 + p3*b3 + q3*a3 - r3*d3 - s3*c3
    g3 = p2*c1 + q2*b1 + r2*a1 - s2*d1 + p3*c3 + q3*b3 + r3*a3 - s3*d3
    h3 = p2*d1 + q2*c1 + r2*b1 + s2*a1 + p3*d3 + q3*c3 + r3*b3 + s3*a3
    # Joint reduction, as in _reduced: every entry needs e = g, f = h
    # (mod 2).
    while k and not ((e0 ^ g0) | (f0 ^ h0) | (e1 ^ g1) | (f1 ^ h1)
                     | (e2 ^ g2) | (f2 ^ h2) | (e3 ^ g3) | (f3 ^ h3)) & 1:
        e0, f0, g0, h0 = (f0 - h0) >> 1, (e0 + g0) >> 1, (f0 + h0) >> 1, (g0 - e0) >> 1
        e1, f1, g1, h1 = (f1 - h1) >> 1, (e1 + g1) >> 1, (f1 + h1) >> 1, (g1 - e1) >> 1
        e2, f2, g2, h2 = (f2 - h2) >> 1, (e2 + g2) >> 1, (f2 + h2) >> 1, (g2 - e2) >> 1
        e3, f3, g3, h3 = (f3 - h3) >> 1, (e3 + g3) >> 1, (f3 + h3) >> 1, (g3 - e3) >> 1
        k -= 1
    return (k, e0, f0, g0, h0, e1, f1, g1, h1,
            e2, f2, g2, h2, e3, f3, g3, h3)


def _gate_mul(x: tuple[int, ...], gate: UMat2) -> tuple[int, ...]:
    """Key of x * gate for a canonical key x: one generator step.

    The gate is dispatched by identity, as in normalize.evaluate: the
    ring's own P rotates column 1 by i, the ring's own H replaces the
    columns by their sum and difference with k + 1 and one joint
    reduction, and any other matrix, equal to one of them or not, takes
    _mat_mul.  evaluate never calls this: it is an independent oracle
    that steps row 0 and the determinant inline, not the full key.
    """
    if gate is not P and gate is not H:
        return _mat_mul(x, gate._key)
    (k, a0, b0, c0, d0, a1, b1, c1, d1,
     a2, b2, c2, d2, a3, b3, c3, d3) = x
    if gate is P:
        # Multiplying by the unit i, (a, b, c, d) -> (-c, -d, a, b), keeps
        # every entry's sqrt2 divisibility, so the key stays canonical.
        return (k, a0, b0, c0, d0, -c1, -d1, a1, b1,
                a2, b2, c2, d2, -c3, -d3, a3, b3)
    k += 1
    a0, b0, c0, d0, a1, b1, c1, d1 = (
        a0 + a1, b0 + b1, c0 + c1, d0 + d1, a0 - a1, b0 - b1, c0 - c1, d0 - d1)
    a2, b2, c2, d2, a3, b3, c3, d3 = (
        a2 + a3, b2 + b3, c2 + c3, d2 + d3, a2 - a3, b2 - b3, c2 - c3, d2 - d3)
    while k and not ((a0 ^ c0) | (b0 ^ d0) | (a1 ^ c1) | (b1 ^ d1)
                     | (a2 ^ c2) | (b2 ^ d2) | (a3 ^ c3) | (b3 ^ d3)) & 1:
        a0, b0, c0, d0 = (b0 - d0) >> 1, (a0 + c0) >> 1, (b0 + d0) >> 1, (c0 - a0) >> 1
        a1, b1, c1, d1 = (b1 - d1) >> 1, (a1 + c1) >> 1, (b1 + d1) >> 1, (c1 - a1) >> 1
        a2, b2, c2, d2 = (b2 - d2) >> 1, (a2 + c2) >> 1, (b2 + d2) >> 1, (c2 - a2) >> 1
        a3, b3, c3, d3 = (b3 - d3) >> 1, (a3 + c3) >> 1, (b3 + d3) >> 1, (c3 - a3) >> 1
        k -= 1
    return (k, a0, b0, c0, d0, a1, b1, c1, d1,
            a2, b2, c2, d2, a3, b3, c3, d3)


class UMat2:
    """2x2 matrix over the ring, stored flat as its canonical key.

    The key is (k, 16 integers): the entries e00, e01, e10, e11 in
    row-major order, each as its four numerator coefficients over the
    common denominator sqrt2**k, with k the least such exponent.  Equal
    matrices have equal keys, so equality, hashing and JSON output read
    the key directly.  The constructor takes four RingElem entries;
    e00..e11 and entries rebuild RingElem views on demand.
    """

    __slots__ = ("_key",)

    def __init__(self, e00: RingElem, e01: RingElem, e10: RingElem,
                 e11: RingElem) -> None:
        try:
            self._key = _common_key(e00, e01, e10, e11)
        except AttributeError:
            raise _not_ring_elems("UMat2", (e00, e01, e10, e11)) from None

    @classmethod
    def _raw(cls, key: tuple[int, ...]) -> UMat2:
        # Internal: wrap a key already known to be canonical.
        self = object.__new__(cls)
        self._key = key
        return self

    @property
    def entries(self) -> tuple[RingElem, RingElem, RingElem, RingElem]:
        k, *n = self._key
        return tuple(RingElem(*n[i:i + 4], k) for i in range(0, 16, 4))

    e00 = property(lambda self: self.entries[0])
    e01 = property(lambda self: self.entries[1])
    e10 = property(lambda self: self.entries[2])
    e11 = property(lambda self: self.entries[3])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UMat2):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __mul__(self, other: UMat2) -> UMat2:
        if not isinstance(other, UMat2):
            return NotImplemented
        return UMat2._raw(_mat_mul(self._key, other._key))

    def adjoint(self) -> UMat2:
        # Transpose, then conjugate each entry: (a, b, c, d) -> (a, -d, -c,
        # -b).  Conjugation keeps every entry's sqrt2 divisibility, so the
        # key stays canonical.
        (k, a0, b0, c0, d0, a1, b1, c1, d1,
         a2, b2, c2, d2, a3, b3, c3, d3) = self._key
        return UMat2._raw((k, a0, -d0, -c0, -b0, a2, -d2, -c2, -b2,
                           a1, -d1, -c1, -b1, a3, -d3, -c3, -b3))

    def apply(self, state: StateVec) -> StateVec:
        """self * state through _mat_mul: the state is column 0 of a
        matrix whose column 1 is zero, and column 0 of the product is read
        back.  Zero entries never block the joint sqrt2 reduction, so the
        result is the state's canonical key."""
        try:
            kx, a0, b0, c0, d0, a1, b1, c1, d1 = state._key
        except (AttributeError, ValueError):
            raise TypeError("apply() argument must be a StateVec, "
                            f"not {type(state).__name__}") from None
        key = _mat_mul(self._key, (kx, a0, b0, c0, d0, 0, 0, 0, 0,
                                   a1, b1, c1, d1, 0, 0, 0, 0))
        return StateVec._raw(key[:5] + key[9:13])

    def scaled_key(self) -> tuple[int, ...]:
        """Flat integer key: common denominator exponent, then the 16
        numerator coefficients row-major.  Injective, so safe for dedup
        sets and JSON round-trips."""
        return self._key

    def to_json_dict(self) -> dict:
        key = self._key
        rows = [
            [list(key[1:5]), list(key[5:9])],
            [list(key[9:13]), list(key[13:17])],
        ]
        return {"den_exp": key[0], "entries": rows}

    def to_complex(self) -> list[list[complex]]:
        e00, e01, e10, e11 = self.entries
        return [[e00.to_complex(), e01.to_complex()],
                [e10.to_complex(), e11.to_complex()]]

    def __repr__(self) -> str:
        return "UMat2({!r}, {!r}, {!r}, {!r})".format(*self.entries)


class StateVec:
    """Single-qubit state, stored flat as its canonical key.

    The key is (k, 8 integers): the amplitudes c0 and c1, each as its four
    numerator coefficients over the common denominator sqrt2**k, with k
    the least such exponent, as in UMat2.  Equal states have equal keys.
    The constructor takes two RingElem amplitudes; c0 and c1 rebuild
    RingElem views on demand.
    """

    __slots__ = ("_key",)

    def __init__(self, c0: RingElem, c1: RingElem) -> None:
        try:
            self._key = _common_key(c0, c1)
        except AttributeError:
            raise _not_ring_elems("StateVec", (c0, c1)) from None

    @classmethod
    def _raw(cls, key: tuple[int, ...]) -> StateVec:
        # Internal: wrap a key already known to be canonical.
        self = object.__new__(cls)
        self._key = key
        return self

    @property
    def c0(self) -> RingElem:
        return RingElem(*self._key[1:5], self._key[0])

    @property
    def c1(self) -> RingElem:
        return RingElem(*self._key[5:9], self._key[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"StateVec({self.c0!r}, {self.c1!r})"


ZERO = RingElem(0, 0, 0, 0)
ONE = RingElem(1, 0, 0, 0)
OMEGA = RingElem(0, 1, 0, 0)
I_UNIT = RingElem(0, 0, 1, 0)
SQRT2_INV = RingElem(1, 0, 0, 0, 1)

IDENTITY = UMat2(ONE, ZERO, ZERO, ONE)
H = UMat2(SQRT2_INV, SQRT2_INV, SQRT2_INV, RingElem(-1, 0, 0, 0, 1))
P = UMat2(ONE, ZERO, ZERO, I_UNIT)
T = UMat2(ONE, ZERO, ZERO, OMEGA)
R = UMat2(SQRT2_INV, SQRT2_INV, RingElem(-1, 0, 0, 0, 1), SQRT2_INV)
PAULI_X = UMat2(ZERO, ONE, ONE, ZERO)
PAULI_Z = UMat2(ONE, ZERO, ZERO, RingElem(-1, 0, 0, 0))

# Read-only: evaluate reads it as its default gate set.
GATES = MappingProxyType({"H": H, "P": P, "T": T})

KET0 = StateVec(ONE, ZERO)
