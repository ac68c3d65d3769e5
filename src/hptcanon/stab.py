"""Stabilizer triples for normal-form states, with exact parity classes.

A normal-form prefix applied to |0> is stabilized by x*X + y*Y + z*Z
where each coefficient is (a + b*sqrt2)/sqrt2**level with integers a, b
and level = number of T blocks applied.  The triples update by integer
recurrences per block, are deliberately never reduced (the parity
classes T1..T9 are defined at this fixed level), and certify that
normal forms with T gates cannot be the identity.
"""

from enum import Enum
from itertools import product
from typing import NamedTuple
from weakref import WeakKeyDictionary

from . import ring
from .group import _check_table
from .normalize import Block, _blocks_matrix, _check_form


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
# The same classes by parity_code: the parity tuple read as binary.
_CLASS_BY_CODE = tuple(_CLASS_BY_PARITY.get(parity, ParityClass.OTHER)
                       for parity in product((0, 1), repeat=6))
# The transition law: a class of family A, B or C goes to the class
# given here under the blocks T, HT and PHT.
_FAMILY = {ParityClass.T1: "A", ParityClass.T2: "A", ParityClass.T4: "B",
           ParityClass.T5: "B", ParityClass.T7: "C", ParityClass.T8: "C"}
_LAW = {"A": (ParityClass.T3, ParityClass.T2, ParityClass.T1),
        "B": (ParityClass.T9, ParityClass.T7, ParityClass.T8),
        "C": (ParityClass.T6, ParityClass.T4, ParityClass.T5)}
# By parity_code: the classes _LAW demands after each block, or None.
_LAW_BY_CODE = tuple(_LAW.get(_FAMILY.get(cls)) for cls in _CLASS_BY_CODE)


def _check_triple(st, caller):
    # The one guard of the functions that take a StabTriple.  They call it
    # only once their work has failed, so a triple pays nothing for it.
    if not isinstance(st, StabTriple):
        raise TypeError(f"{caller}() triple must be a StabTriple, "
                        f"not {type(st).__name__}") from None


def _coefficients(st, caller):
    # (xa, xb, ya, yb, za, zb, level); the named errors on the error path.
    try:
        (xa, xb), (ya, yb), (za, zb), level = st
    except (TypeError, ValueError):
        _check_triple(st, caller)
        raise
    if level < 0:
        raise _level_error(level)
    return xa, xb, ya, yb, za, zb, level


def _level_error(level):
    return ValueError(f"stabilizer triple level must be >= 0, got {level}")


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
    _check_table(table, "initial_stab")
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
        st = StabTriple((key[9], 0), (key[11], 0), (key[1], 0), 0)
        if key != (0, *_numerators(st)):
            raise NotSignedPauli(f"element {table.words[w0]!r} does not map "
                                 "Z to a signed Pauli")
        axes[w0] = st
    return st


# Plain ints: an enum class attribute costs a lookup on every block.
_T, _HT, _PHT = map(int, (Block.T, Block.HT, Block.PHT))


def _fold(st, blocks):
    # The block recurrences, unchecked: six coefficients and level per block.
    (xa, xb), (ya, yb), (za, zb), level = st
    for level, block in enumerate(blocks, level + 1):
        if block == _T:
            xa, xb, ya, yb, za, zb = xa - ya, xb - yb, xa + ya, xb + yb, 2 * zb, za
        elif block == _HT:
            xa, xb, ya, yb, za, zb = 2 * zb, za, -xa - ya, -xb - yb, xa - ya, xb - yb
        elif block == _PHT:
            xa, xb, ya, yb, za, zb = xa + ya, xb + yb, 2 * zb, za, xa - ya, xb - yb
        else:
            raise ValueError(f"unknown block {block!r}")
        yield xa, xb, ya, yb, za, zb, level


def _triple(xa, xb, ya, yb, za, zb, level):
    return tuple.__new__(StabTriple, ((xa, xb), (ya, yb), (za, zb), level))


def step_block(st, block):
    """Triple for block * (current state); one more sqrt2 in the
    denominator, pure integer updates on the six coefficients.  A
    negative level raises ValueError."""
    _coefficients(st, "step_block")
    return _triple(*next(_fold(st, (block,))))


def _code(xa, xb, ya, yb, za, zb):
    return ((xa & 1) * 32 + (xb & 1) * 16 + (ya & 1) * 8
            + (yb & 1) * 4 + (za & 1) * 2 + (zb & 1))


def parity_code(st):
    """The parities of (x_a, x_b, y_a, y_b, z_a, z_b), 1 = odd, as the
    bits of a 6-bit code, x_a the highest.  A negative level raises
    ValueError."""
    try:
        (xa, xb), (ya, yb), (za, zb), level = st
        code = _code(xa, xb, ya, yb, za, zb)
    except (TypeError, ValueError):
        _check_triple(st, "parity_code")
        raise
    if level < 0:
        raise _level_error(level)
    return code


def classify(st):
    """The parity class of st, T1..T9 or OTHER.  A negative level raises
    ValueError."""
    try:
        return _CLASS_BY_CODE[parity_code(st)]
    except TypeError:
        _check_triple(st, "classify")
        raise


def _check_chain(nf, table, caller):
    # A form of this table whose blocks are in (T|e)(HT|PHT)*.
    _check_form(nf, table, caller)
    if _T in nf.blocks[1:]:
        raise ValueError(f"{nf!r} is not a normal form: a bare T block "
                         "can only sit leftmost")


def stab_trace(nf, table):
    """Triples at levels 0..len(nf.blocks): the Clifford tail's axis, then
    step_block over the blocks from rightmost (adjacent to the tail) to
    leftmost.  A form that does not belong to the table, or whose blocks
    have a bare T after the leftmost, raises ValueError."""
    _check_chain(nf, table, "stab_trace")
    return _trace(nf, table)


def _trace(nf, table):
    # stab_trace unchecked, for callers that have checked nf already.
    st = initial_stab(nf.cliff, table)
    return [st, *(_triple(*c) for c in _fold(st, reversed(nf.blocks)))]


def law_walk(nf, table):
    """Fold a form as stab_trace does, refusing the same forms, and check
    the transition law on the way: after the i-th block from the right, a
    triple whose class was in a family must be in _LAW's class for that
    block.  Returns (transitions checked, whether all held, stab_trace's
    last triple), counting the first broken transition and none after it."""
    _check_chain(nf, table, "law_walk")
    return _law_walk(nf.blocks, nf.cliff, table)


def _law_walk(blocks, cliff, table):
    # law_walk unchecked, for callers that drew the block tuple and the
    # tail id from the table's normal-form language themselves.
    (xa, xb), (ya, yb), (za, zb), level = st = initial_stab(cliff, table)
    law = _LAW_BY_CODE[_code(xa, xb, ya, yb, za, zb)]
    checks, ok, blocks = 0, True, blocks[::-1]
    for b, (xa, xb, ya, yb, za, zb, level) in zip(blocks, _fold(st, blocks)):
        code = _code(xa, xb, ya, yb, za, zb)
        if law is not None and ok:
            checks += 1
            ok = _CLASS_BY_CODE[code] is law[b]
        law = _LAW_BY_CODE[code]
    return checks, ok, _triple(xa, xb, ya, yb, za, zb, level)


def _numerators(st, caller="stab_matrix"):
    """The 16 numerators over sqrt2**level of x*X + y*Y + z*Z, row-major.
    A coefficient has numerator (a, b, 0, -b) (sqrt2 = omega - omega**3)
    and i*y has (0, yb, ya, yb), which gives the four entries.  A
    negative level raises ValueError."""
    xa, xb, ya, yb, za, zb, _ = _coefficients(st, caller)
    return (za, zb, 0, -zb, xa, xb - yb, -ya, -xb - yb,
            xa, xb + yb, ya, -xb + yb, -za, -zb, 0, zb)


def stab_matrix(st):
    """M = x*X + y*Y + z*Z as an exact ring matrix, from _numerators."""
    n, level = _numerators(st), st[3]
    return ring.UMat2(*(ring.RingElem(*n[i:i + 4], level)
                        for i in range(0, 16, 4)))


def step_law_counterexample(table):
    """The first (block, level, unit triple) that breaks the step law, or
    None when it holds for every triple at every level.

    The step law for block b with matrix B = table.block_matrices[b]:
    stab_matrix(step_block(st, b)) * B == B * stab_matrix(st).  So if the
    triple st stabilizes a state s, step_block(st, b) stabilizes B s.
    Both sides are linear in the six coefficients, and a triple at level
    l + 2 is the same coefficients at level l divided by 2 on both sides.
    So the six unit triples at levels 0 and 1, for each of the three
    blocks, prove the law for every triple: 36 exact comparisons, each
    of two _mat_mul keys.  Its joint sqrt2 reduction makes a key canonical
    whatever its inputs' reduction, so equal keys are equal matrices.
    """
    _check_table(table, "step_law_counterexample")
    mul = ring._mat_mul
    for b in Block:
        key = table.block_matrices[b]._key
        for level in (0, 1):
            for i in range(6):
                st = _triple(*(int(j == i) for j in range(6)), level)
                step = (level + 1, *_numerators(step_block(st, b)))
                if mul(step, key) != mul(key, (level, *_numerators(st))):
                    return b, level, st
    return None


def verify_stabilizes(st, m):
    """Exact check that (x, y, z) stabilizes the state m|0>, column 0 of
    the matrix m: M s = s.

    With M = N / sqrt2**level (N from _numerators) and s = (u, v) / sqrt2**k,
    u and v the key's entries e00 and e10, the check is N (u, v) =
    sqrt2**level (u, v), on integer numerators.  N is [[z, x - i*y],
    [x + i*y, -z]]; a coefficient a + b*sqrt2 takes w to a*w + b*sqrt2*w,
    and sqrt2*w and i*w only permute and sign w's numerators, so the check
    takes 48 integer products and no _mat_mul."""
    if not isinstance(m, ring.UMat2):
        raise TypeError("verify_stabilizes() m must be a UMat2, "
                        f"not {type(m).__name__}")
    xa, xb, ya, yb, za, zb, level = _coefficients(st, "verify_stabilizes")
    u0, u1, u2, u3 = u = m._key[1:5]
    v0, v1, v2, v3 = v = m._key[9:13]
    r0, r1, r2, r3 = u1 - u3, u0 + u2, u1 + u3, u2 - u0  # sqrt2*u
    s0, s1, s2, s3 = v1 - v3, v0 + v2, v1 + v3, v2 - v0  # sqrt2*v
    # z*u + x*v - i*y*v over x*u + i*y*u - z*v, i*w = (-w2, -w3, w0, w1).
    return (za*u0 + zb*r0 + xa*v0 + xb*s0 + ya*v2 + yb*s2,
            za*u1 + zb*r1 + xa*v1 + xb*s1 + ya*v3 + yb*s3,
            za*u2 + zb*r2 + xa*v2 + xb*s2 - ya*v0 - yb*s0,
            za*u3 + zb*r3 + xa*v3 + xb*s3 - ya*v1 - yb*s1,
            xa*u0 + xb*r0 - ya*u2 - yb*r2 - za*v0 - zb*s0,
            xa*u1 + xb*r1 - ya*u3 - yb*r3 - za*v1 - zb*s1,
            xa*u2 + xb*r2 + ya*u0 + yb*r0 - za*v2 - zb*s2,
            xa*u3 + xb*r3 + ya*u1 + yb*r1 - za*v3 - zb*s3,
            ) == ring._scaled(*u, level) + ring._scaled(*v, level)


def nonidentity_witness(nf, table):
    """Certify that a normal form with >= 1 block is not the identity.

    One or two blocks: direct exact-matrix comparison.  Three or more:
    the class of stab_trace's last triple lands in T1..T9, which forces
    an odd (hence nonzero) x or y coefficient, so the stabilizer axis of
    the output state is not (0,0,+-1) and the state differs from |0>.
    A block tuple outside the normal-form language raises ValueError.
    """
    _check_chain(nf, table, "nonidentity_witness")
    if not nf.blocks:
        raise NoTGates("normal form has no T blocks")
    if len(nf.blocks) <= 2:
        m = _blocks_matrix(nf.blocks, table) * table.elements[nf.cliff]
        return m != ring.IDENTITY
    return classify(_trace(nf, table)[-1]) is not ParityClass.OTHER
