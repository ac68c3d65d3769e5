"""Stabilizer triples for normal-form states, with exact parity classes.

A normal-form prefix applied to |0> is stabilized by x*X + y*Y + z*Z
where each coefficient is (a + b*sqrt2)/sqrt2**level with integers a, b
and level = number of T blocks applied.  The triples update by integer
recurrences per block, are deliberately never reduced (the parity
classes T1..T9 are defined at this fixed level), and certify that
normal forms with T gates cannot be the identity.
"""

from enum import Enum
from itertools import accumulate, product
from typing import NamedTuple
from weakref import WeakKeyDictionary

from . import ring
from .normalize import Block, _check_form, normal_form_matrix


class NotSignedPauli(Exception):
    """Conjugating Z by the given element is not a signed Pauli; cannot
    happen for genuine Clifford group elements."""


class NoTGates(Exception):
    """The non-identity certificate only applies to forms with T blocks."""


class ParityClass(Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"
    T7 = "T7"
    T8 = "T8"
    T9 = "T9"
    OTHER = "OTHER"


class StabTriple(NamedTuple):
    x: tuple
    y: tuple
    z: tuple
    level: int


# Parities of (x_a, x_b, y_a, y_b, z_a, z_b), 1 = odd.
_CLASS_BY_PARITY = {
    (0, 1, 0, 0, 0, 1): ParityClass.T1,
    (0, 0, 0, 1, 0, 1): ParityClass.T2,
    (0, 1, 0, 1, 0, 0): ParityClass.T3,
    (0, 1, 1, 0, 1, 0): ParityClass.T4,
    (1, 0, 0, 1, 1, 0): ParityClass.T5,
    (1, 0, 1, 0, 0, 1): ParityClass.T6,
    (0, 1, 1, 1, 1, 1): ParityClass.T7,
    (1, 1, 0, 1, 1, 1): ParityClass.T8,
    (1, 1, 1, 1, 0, 1): ParityClass.T9,
}


# Per table, the axes initial_stab has computed so far, indexed by
# element id.  Weak keys: the memo neither keeps a table alive nor hands
# one table's axes to another.
_AXIS_MEMO = WeakKeyDictionary()


def initial_stab(w0, table):
    """Signed Pauli axis stabilizing f(W0)|0>: read x, y, z off the key of
    f(W0)*Z*f(W0)^dagger (e10 = x + i*y, e00 = z), then check that the key
    is exactly the level-0 key of x*X + y*Y + z*Z.  Level starts at 0.

    The axis depends only on (table, w0), so each is computed once, on
    first use, and memoised per table.  The id is checked on every call:
    one outside 0..order-1 raises ValueError.  An element that does not
    map Z to a signed Pauli raises NotSignedPauli on every call; a failure
    is never memoised."""
    if not 0 <= w0 < table.order:
        raise ValueError(f"element id {w0!r} is not in this table "
                         f"(order {table.order})")
    axes = _AXIS_MEMO.get(table)
    if axes is None:
        axes = _AXIS_MEMO[table] = [None] * table.order
    st = axes[w0]
    if st is None:
        m = table.elements[w0]
        key = ((m * ring.PAULI_Z) * m.adjoint()).scaled_key()
        x, y, z = key[9], key[11], key[1]
        if key != (0, z, 0, 0, 0, x, 0, -y, 0, x, 0, y, 0, -z, 0, 0, 0):
            raise NotSignedPauli(f"element {table.words[w0]!r} does not map "
                                 "Z to a signed Pauli")
        st = axes[w0] = StabTriple((x, 0), (y, 0), (z, 0), 0)
    return st


# Plain ints: an enum class attribute costs a lookup on every block.
_T, _HT, _PHT = map(int, (Block.T, Block.HT, Block.PHT))


def step_block(st, block):
    """Triple for block * (current state); one more sqrt2 in the
    denominator, pure integer updates on the six coefficients."""
    (xa, xb), (ya, yb), (za, zb) = st.x, st.y, st.z
    if block == _T:
        nxt = (xa - ya, xb - yb), (xa + ya, xb + yb), (2 * zb, za)
    elif block == _HT:
        nxt = (2 * zb, za), (-xa - ya, -xb - yb), (xa - ya, xb - yb)
    elif block == _PHT:
        nxt = (xa + ya, xb + yb), (2 * zb, za), (xa - ya, xb - yb)
    else:
        raise ValueError(f"unknown block {block!r}")
    return StabTriple(*nxt, st.level + 1)


def classify(st):
    parity = (st.x[0] & 1, st.x[1] & 1, st.y[0] & 1, st.y[1] & 1,
              st.z[0] & 1, st.z[1] & 1)
    return _CLASS_BY_PARITY.get(parity, ParityClass.OTHER)


def stab_trace(nf, table):
    """Triples at levels 0..len(nf.blocks): the Clifford tail's axis, then
    step_block over the blocks from rightmost (adjacent to the tail) to
    leftmost.  A form that does not belong to the table raises
    ValueError."""
    _check_form(nf, table)
    return list(accumulate(reversed(nf.blocks), step_block,
                           initial=initial_stab(nf.cliff, table)))


def stab_of_normal_form(nf, table):
    """The triple of the whole form: the last item of stab_trace."""
    return stab_trace(nf, table)[-1]


def stab_matrix(st):
    """M = x*X + y*Y + z*Z as an exact ring matrix.  A coefficient has
    numerator (a, b, 0, -b) over sqrt2**level (sqrt2 = omega - omega**3)
    and i*y has (0, yb, ya, yb), which gives the four entries."""
    (xa, xb), (ya, yb), (za, zb), level = st
    elem = ring.RingElem
    return ring.UMat2(elem(za, zb, 0, -zb, level),
                      elem(xa, xb - yb, -ya, -xb - yb, level),
                      elem(xa, xb + yb, ya, -xb + yb, level),
                      elem(-za, -zb, 0, zb, level))


def step_law_counterexample(table):
    """The first (block, level, unit triple) that breaks the step law, or
    None when it holds for every triple at every level.

    The step law for block b with matrix B = table.block_matrices[b]:
    stab_matrix(step_block(st, b)) * B == B * stab_matrix(st).  So if the
    triple st stabilizes a state s, step_block(st, b) stabilizes B s.
    Both sides are linear in the six coefficients, and a triple at level
    l + 2 is the same coefficients at level l divided by 2 on both sides.
    So the six unit triples at levels 0 and 1, for each of the three
    blocks, prove the law for every triple: 36 exact comparisons.
    """
    for b in Block:
        m = table.block_matrices[b]
        for level in (0, 1):
            for axis, unit in product(range(3), ((1, 0), (0, 1))):
                coeffs = [(0, 0)] * 3
                coeffs[axis] = unit
                st = StabTriple(*coeffs, level)
                if stab_matrix(step_block(st, b)) * m != m * stab_matrix(st):
                    return b, level, st
    return None


def verify_stabilizes(st, state):
    """Exact check that (x, y, z) stabilizes the state: M s = s.

    Runs on the flat numerators, with no matrix or RingElem built.  With
    M = N / sqrt2**level (stab_matrix) and s = (u, v) / sqrt2**k, the
    check is N (u, v) = sqrt2**level (u, v), where the rows of N (u, v)
    are z*u + x*v - i*y*v and x*u + i*y*u - z*v.  A coefficient (a, b)
    acts on a numerator w as a*w + b*sqrt2*w.
    """
    (xa, xb), (ya, yb), (za, zb), level = st
    try:
        _, u0, u1, u2, u3, v0, v1, v2, v3 = state._key
    except (AttributeError, ValueError):
        raise TypeError("verify_stabilizes() state must be a StateVec, "
                        f"not {type(state).__name__}") from None
    # sqrt2*w maps (a, b, c, d) to (b - d, a + c, b + d, c - a), and i*w
    # maps it to (-c, -d, a, b).
    r0, r1, r2, r3 = u1 - u3, u0 + u2, u1 + u3, u2 - u0
    t0, t1, t2, t3 = v1 - v3, v0 + v2, v1 + v3, v2 - v0
    yu0, yu1, yu2, yu3 = (ya*u0 + yb*r0, ya*u1 + yb*r1,
                          ya*u2 + yb*r2, ya*u3 + yb*r3)
    yv0, yv1, yv2, yv3 = (ya*v0 + yb*t0, ya*v1 + yb*t1,
                          ya*v2 + yb*t2, ya*v3 + yb*t3)
    # sqrt2**level * w is 2**(level // 2) times w or sqrt2*w.
    f = 1 << (level >> 1)
    su, sv = ((r0, r1, r2, r3), (t0, t1, t2, t3)) if level & 1 else \
        ((u0, u1, u2, u3), (v0, v1, v2, v3))
    return ((za*u0 + zb*r0 + xa*v0 + xb*t0 + yv2,
             za*u1 + zb*r1 + xa*v1 + xb*t1 + yv3,
             za*u2 + zb*r2 + xa*v2 + xb*t2 - yv0,
             za*u3 + zb*r3 + xa*v3 + xb*t3 - yv1)
            == (f * su[0], f * su[1], f * su[2], f * su[3])
            and (xa*u0 + xb*r0 - yu2 - za*v0 - zb*t0,
                 xa*u1 + xb*r1 - yu3 - za*v1 - zb*t1,
                 xa*u2 + xb*r2 + yu0 - za*v2 - zb*t2,
                 xa*u3 + xb*r3 + yu1 - za*v3 - zb*t3)
            == (f * sv[0], f * sv[1], f * sv[2], f * sv[3]))


def nonidentity_witness(nf, table):
    """Certify that a normal form with >= 1 block is not the identity.

    One or two blocks: direct exact-matrix comparison.  Three or more:
    the folded triple's parity class lands in T1..T9, which forces an
    odd (hence nonzero) x or y coefficient, so the stabilizer axis of
    the output state is not (0,0,+-1) and the state differs from |0>.
    """
    if not nf.blocks:
        raise NoTGates("normal form has no T blocks")
    if len(nf.blocks) <= 2:
        return normal_form_matrix(nf, table) != ring.IDENTITY
    return classify(stab_of_normal_form(nf, table)) is not ParityClass.OTHER
