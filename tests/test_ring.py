"""Exact arithmetic in Z[omega] with sqrt(2)-power denominators."""

import cmath
import math
import random

from hptcanon import census, ring
from hptcanon.ring import RingElem, StateVec, UMat2

OMEGA_C = cmath.exp(1j * math.pi / 4)


def rand_elem(rng, kmax=0):
    return RingElem(rng.randint(-100, 100), rng.randint(-100, 100),
                    rng.randint(-100, 100), rng.randint(-100, 100),
                    rng.randint(0, kmax))


def close(x, y, tol=1e-9):
    return abs(x - y) <= tol * (1 + abs(x) + abs(y))


def test_sqrt2_multiplication_map():
    # _scaled multiplies a numerator by sqrt2**m; the float value agrees.
    rng = random.Random(7)
    for _ in range(200):
        a, b, c, d = (rng.randint(-100, 100) for _ in range(4))
        assert ring._scaled(a, b, c, d, 1) == (b - d, a + c, b + d, c - a)
        x = RingElem(a, b, c, d).to_complex()
        for m in range(6):
            up = RingElem(*ring._scaled(a, b, c, d, m)).to_complex()
            assert close(up, x * math.sqrt(2) ** m)


def test_canonicalize_examples():
    # 1/2 and omega/sqrt2 stay: sqrt2 divides a numerator only when both
    # a = c and b = d (mod 2).  (1,1,1,1)/sqrt2 reduces once, and scaling
    # the result back by sqrt2 recovers the numerator.
    for given, want in (((0, 2, 0, 0, 2), (0, 1, 0, 0, 0)),
                        ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)),
                        ((1, 0, 0, 0, 2), (1, 0, 0, 0, 2)),
                        ((0, 1, 0, 0, 1), (0, 1, 0, 0, 1)),
                        ((1, 1, 1, 1, 1), (0, 1, 1, 0, 0))):
        e = RingElem(*given)
        assert (e.a, e.b, e.c, e.d, e.k) == want
    assert ring._scaled(*e.coeffs, 1) == (1, 1, 1, 1)


def test_canonicalize_idempotent_and_value_preserving():
    rng = random.Random(11)
    for _ in range(500):
        a, b, c, d = (rng.randint(-100, 100) for _ in range(4))
        k = rng.randint(0, 6)
        e = RingElem(a, b, c, d, k)
        again = RingElem(e.a, e.b, e.c, e.d, e.k)
        assert (again.coeffs, again.k) == (e.coeffs, e.k)
        raw = (a + b * OMEGA_C + c * OMEGA_C**2 + d * OMEGA_C**3) \
            / math.sqrt(2) ** k
        assert close(e.to_complex(), raw)


def test_sqrt2_roundtrip():
    # A numerator scaled by sqrt2**m over an exponent m higher reduces back.
    rng = random.Random(23)
    for _ in range(300):
        x = rand_elem(rng, 4)
        m = rng.randint(1, 4)
        assert RingElem(*ring._scaled(*x.coeffs, m), x.k + m) == x


def test_gate_products():
    assert ring.T * ring.T == ring.P
    assert ring.H * ring.H == ring.IDENTITY
    hp = ring.H * ring.P
    assert hp * hp * hp == UMat2(ring.OMEGA, ring.ZERO, ring.ZERO, ring.OMEGA)


def test_adjoints():
    neg_omega3 = RingElem(0, 0, 0, -1)
    assert ring.T.adjoint() == UMat2(ring.ONE, ring.ZERO, ring.ZERO,
                                     neg_omega3)
    assert ring.H.adjoint() == ring.H
    assert ring.P.adjoint() == UMat2(ring.ONE, ring.ZERO, ring.ZERO,
                                     RingElem(0, 0, -1, 0))


def test_apply():
    assert ring.IDENTITY.apply(ring.KET0) == ring.KET0
    assert ring.H.apply(ring.KET0) == StateVec(ring.SQRT2_INV, ring.SQRT2_INV)
    assert ring.PAULI_X.apply(ring.KET0) == StateVec(ring.ZERO, ring.ONE)


def _apply_by_flat_mul(m, state):
    # Reference from census's independent flat product: the state padded
    # to a matrix with a zero column 1, then column 0 of the product.
    pad = UMat2(state.c0, ring.ZERO, state.c1, ring.ZERO).scaled_key()
    key = census._flat_mul(m.scaled_key(), pad)
    return StateVec(RingElem(*key[1:5], key[0]), RingElem(*key[9:13], key[0]))


def test_apply_matches_per_entry_formula(table):
    rng = random.Random(37)
    states = [ring.KET0] + [StateVec(rand_elem(rng, 4), rand_elem(rng, 4))
                            for _ in range(20)]
    assert len({s.c0.k - s.c1.k for s in states}) > 3
    for m in table.elements:
        for s in states:
            got = m.apply(s)
            want = _apply_by_flat_mul(m, s)
            assert got == want and hash(got) == hash(want)
            assert (got.c0, got.c1) == (want.c0, want.c1)


def test_state_equality_across_mixed_exponents():
    one_at_3 = RingElem(0, 2, 0, -2, 3)           # 2*sqrt2/(2*sqrt2)
    a = StateVec(ring.SQRT2_INV, ring.ONE)
    b = StateVec(RingElem(1, 0, 0, 0, 1), one_at_3)
    c = StateVec(RingElem(2, 0, 0, 0, 3), RingElem(2, 0, 0, 0, 2))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert (c.c0, c.c1) == (ring.SQRT2_INV, ring.ONE)
    assert a != StateVec(ring.ONE, ring.SQRT2_INV)
    assert a != StateVec(ring.SQRT2_INV, RingElem(-1, 0, 0, 0))
    rng = random.Random(41)
    for _ in range(300):
        x, y = rand_elem(rng, 4), rand_elem(rng, 4)
        s = StateVec(x, y)
        assert (s.c0, s.c1) == (x, y)
        up = StateVec(RingElem(*ring._scaled(*x.coeffs, 2), x.k + 2),
                      RingElem(*ring._scaled(*y.coeffs, 1), y.k + 1))
        assert up == s and hash(up) == hash(s)


def test_words_up_to_seven_are_unitary_and_normalized():
    # Extend products letter by letter so each word costs one multiply.
    frontier = [ring.IDENTITY]
    for _ in range(7):
        nxt = []
        for m in frontier:
            for g in "HPT":
                prod = m * ring.GATES[g]
                nxt.append(prod)
                # prod * prod^dagger = I gives column 0 norm 1, and
                # column 0 is the state prod|0>.
                assert prod * prod.adjoint() == ring.IDENTITY
                assert prod.apply(ring.KET0) == StateVec(prod.e00, prod.e10)
        frontier = nxt


def test_json_serialization_uses_common_denominator():
    assert ring.H.to_json_dict() == {
        "den_exp": 1,
        "entries": [[[1, 0, 0, 0], [1, 0, 0, 0]],
                    [[1, 0, 0, 0], [-1, 0, 0, 0]]],
    }
    assert ring.T.to_json_dict() == {
        "den_exp": 0,
        "entries": [[[1, 0, 0, 0], [0, 0, 0, 0]],
                    [[0, 0, 0, 0], [0, 1, 0, 0]]],
    }
    # Mixed entry exponents: every serialized entry re-evaluates to the
    # original element at the common exponent.
    m = ring.H * ring.T * ring.H
    d = m.to_json_dict()
    entries = [m.e00, m.e01, m.e10, m.e11]
    flat = d["entries"][0] + d["entries"][1]
    assert d["den_exp"] == max(e.k for e in entries)
    for coeffs, entry in zip(flat, entries):
        assert RingElem(*coeffs, d["den_exp"]) == entry


def test_scaled_key_identifies_matrices():
    # Same key must mean same matrix across a generating corpus.
    seen = {}
    frontier = [ring.IDENTITY]
    for _ in range(6):
        nxt = []
        for m in frontier:
            for g in "HPT":
                prod = m * ring.GATES[g]
                nxt.append(prod)
                key = prod.scaled_key()
                if key in seen:
                    assert seen[key] == prod
                else:
                    seen[key] = prod
        frontier = nxt


def test_matrix_hashing_matches_equality():
    a = ring.H * ring.P
    b = ring.H * ring.P
    assert a == b and hash(a) == hash(b)
    assert a != ring.P * ring.H


def test_matrix_from_mixed_exponent_entries_matches_products():
    # Entries at different exponents, some given non-canonically, land on
    # the same flat key as the matrix reached by products.
    one = RingElem(2, 0, 0, 0, 2)                  # 2/2
    root = RingElem(0, 2, 0, -2, 2)                # 2*sqrt2/2
    diag = UMat2(one, ring.ZERO, ring.ZERO, root)  # diag(1, sqrt2)
    built = UMat2(ring.SQRT2_INV, ring.ONE, ring.SQRT2_INV,
                  RingElem(-1, 0, 0, 0))
    assert [e.k for e in built.entries] == [1, 0, 1, 0]
    assert built == ring.H * diag and hash(built) == hash(ring.H * diag)
    rng = random.Random(31)
    for _ in range(300):
        es = [rand_elem(rng, 4) for _ in range(4)]
        m = UMat2(*es)
        assert m.entries == tuple(es)
        for reached in (ring.IDENTITY * m, ring.H * (ring.H * m),
                        m * ring.T * ring.T.adjoint()):
            assert reached == m and hash(reached) == hash(m)
            assert reached.scaled_key() == m.scaled_key()


def test_gate_step_equals_generic_product():
    # The ring's own H and P take their column steps, any other matrix
    # (R, T, and fresh copies of H and P) the generic product; every one
    # gives _mat_mul's key, on the keys of all H/P/T words of <= 4 letters
    # and on seeded keys at denominator exponents 0 to 33.
    rng = random.Random(41)
    mats = frontier = [ring.IDENTITY]
    for _ in range(4):
        frontier = [m * ring.GATES[g] for m in frontier for g in "HPT"]
        mats = mats + frontier
    keys = [m.scaled_key() for m in mats]
    for k in (0, 0, 1, 2, 7, 20, 20, 33):
        # a odd and c even in the first entry: no sqrt2 divides it.
        first = RingElem(2 * rng.randint(-50, 50) + 1, rng.randint(-100, 100),
                         2 * rng.randint(-50, 50), rng.randint(-100, 100), k)
        key = UMat2(first, *(rand_elem(rng, k) for _ in range(3))).scaled_key()
        assert key[0] == k
        keys.append(key)
    h_copy = UMat2(*ring.H.entries)
    p_copy = UMat2(*ring.P.entries)
    assert h_copy == ring.H and h_copy is not ring.H
    assert p_copy == ring.P and p_copy is not ring.P
    for gate in (ring.H, ring.P, ring.R, ring.T, h_copy, p_copy):
        for key in keys:
            assert ring._gate_mul(key, gate) == ring._mat_mul(
                key, gate.scaled_key())
