"""Exact Bloch (SO(3)) matrices of single-qubit unitaries over the ring.

A unitary U acts on the Pauli axes by conjugation, U*sigma_j*U_adj =
sum_i R_ij*sigma_i, and R(U) is a rotation.  It forgets global phase,
R(omega*U) = R(U), and it is a homomorphism, R(U*V) = R(U)*R(V).  Over
Z[omega, 1/sqrt2] each entry of R(U) is real, in Z[sqrt2]/sqrt2**e, so
R(U) is kept flat and exact, as one exponent e and nine pairs (A, B) of
integers that stand for (A + B*sqrt2)/sqrt2**e.  Giles and Selinger
(arXiv:1312.6584) prove the paper's theorem on this representation: a
Clifford's R is a signed permutation, and a normal form's least e is its
T-count.  census keys its uniqueness sweep by it.
"""


def _times_conj(x, y):
    # Numerators of x * conj(y) for entries x, y in Z[omega], where
    # conj(p, q, r, s) = (p, -s, -r, -q) and omega**4 = -1.
    p, q, r, s = x
    p1, q1, r1, s1 = y
    return (p*p1 + q*q1 + r*r1 + s*s1,
            q*p1 + r*q1 + s*r1 - p*s1,
            r*p1 + s*q1 - p*r1 - q*s1,
            s*p1 - p*q1 - q*r1 - r*s1)


def bloch(key):
    """The flat key of R(U) for the unitary U = [[a, b], [c, d]] with
    canonical key `key` (UMat2.scaled_key()): (e, then the columns X, Y,
    Z, each as the pairs (A, B) of its x, y and z entries), where an entry
    is (A + B*sqrt2)/sqrt2**e, and e is one for all nine entries and as
    small as possible.

    The columns come off seven Z[omega] products, with no 2x2 product:
    the Z column is z = |a|**2 - |b|**2, x + iy = c*conj(a) - d*conj(b);
    the X column z = 2*Re(a*conj(b)), x + iy = c*conj(b) + d*conj(a); the
    Y column z = 2*Im(a*conj(b)), x + iy = i*(d*conj(a) - c*conj(b)).  A
    product's numerator n = (p, q, r, s) lies over 2**k, and Re(n) = (q -
    s + p*sqrt2)/sqrt2, Im(n) = (q + s + r*sqrt2)/sqrt2, so every entry
    starts over sqrt2**(2k + 1).  Dividing (A + B*sqrt2) by sqrt2 gives
    B + (A/2)*sqrt2, exact when A is even, so e falls while every A is.
    """
    k, *n = key
    a, b, c, d = n[0:4], n[4:8], n[8:12], n[12:16]
    ab = _times_conj(a, b)
    cb, da = _times_conj(c, b), _times_conj(d, a)
    ca, db = _times_conj(c, a), _times_conj(d, b)
    aa, bb = _times_conj(a, a), _times_conj(b, b)
    x0, x1, x2, x3 = map(int.__add__, cb, da)
    y0, y1, y2, y3 = map(int.__sub__, da, cb)
    z0, z1, z2, z3 = map(int.__sub__, ca, db)
    flat = [x1 - x3, x0, x1 + x3, x2, 2 * (ab[1] - ab[3]), 2 * ab[0],
            -y1 - y3, -y2, y1 - y3, y0, 2 * (ab[1] + ab[3]), 2 * ab[2],
            z1 - z3, z0, z1 + z3, z2,
            aa[1] - aa[3] - bb[1] + bb[3], aa[0] - bb[0]]
    e = 2 * k + 1
    while e > 0 and not any(A & 1 for A in flat[::2]):
        flat[::2], flat[1::2] = flat[1::2], [A >> 1 for A in flat[::2]]
        e -= 1
    return (e, *flat)


def coset_key(key):
    """A key of the coset U*G of the unitary with canonical key `key`,
    for G the 192-element Clifford group: (e, then R(U)'s three columns,
    each signed so that its first nonzero numerator is positive, sorted).

    Why it names the coset.  R(U*C) = R(U)*R(C), and R(C) runs over the
    24 signed permutations of det 1, so R(U*C) is R(U) with its columns
    permuted and signed: the key is the same on all of U*G.  Conversely,
    two equal keys give R(V) = R(U)*Q for a signed permutation Q.  det R
    = 1 on both sides, so Q has det 1 and Q = R(C) for some Clifford C.
    Then V = omega**j * U * C, because the only scalar unitaries over the
    ring are the omega**j, and all of these are in G: V is in U*G.
    """
    e, *flat = bloch(key)
    cols = []
    for j in range(0, 18, 6):
        col = flat[j:j + 6]
        if next((v for v in col if v), 0) < 0:
            col = [-v for v in col]
        cols.append(tuple(col))
    cols.sort()
    return (e, *cols)
