"""Streaming canonicalizer for {H,P,T} circuits.

Any circuit equals a unique normal form: a left-to-right chain of blocks
from {T, HT, PHT} (bare T allowed only as the leftmost block) followed
by a single Clifford tail.  The pass below reads gates once, folding
Cliffords into a pending element and pushing T gates through it with the
rewrite rules; adjacent T blocks merge into a P.  Equivalence checking,
T-counting and exact inversion ride on top.
"""

from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

from . import ring
from .group import _check_table, build_standard_table
from .rules import RuleTable, _check_rules, build_rules


class Block(IntEnum):
    T = 0
    HT = 1
    PHT = 2


# The normal-form language (T|HT|PHT)(HT|PHT)*: the choices for the
# leftmost block, and for each block after it.
FIRST_BLOCKS = (Block.T, Block.HT, Block.PHT)
REST_BLOCKS = (Block.HT, Block.PHT)


class ParseError(Exception):
    def __init__(self, position, character):
        super().__init__(
            f"unexpected character {character!r} at position {position}")
        self.position = position
        self.character = character


class NormalForm(NamedTuple):
    blocks: tuple
    cliff: int

    @property
    def t_count(self):
        return len(self.blocks)


@lru_cache(maxsize=1)
def _default_rules():
    """The standard H/P rules; their `.table` is the standard table."""
    return build_rules(build_standard_table())


def _rules(caller, table, rules):
    # Slow path of the entry points' guard: the default rules for no
    # arguments, a RuleTable alone or with its own table, else a refusal.
    if table is None and rules is None:
        return _default_rules()
    _check_rules(rules, caller)
    if table is None or table is rules.table:
        return rules
    raise ValueError(f"{caller}() got a table that is not rules.table; "
                     "pass rules alone, or the table they were built from")


# Translation tables that delete the gate letters, every accepted letter
# other than whitespace, and the letters parse skips (I . |).
_GATES = str.maketrans("", "", "HPT")
_ACCEPTED = str.maketrans("", "", "HPTI.|")
_IGNORED = str.maketrans("", "", "I.|")


def parse(text):
    """Clean a circuit string to its gate letters.

    Whitespace, the '.'/'|' separators used by render, and the explicit
    identity letter 'I' are ignored, so rendered normal forms (including
    an "|I" tail) parse back.  Anything else raises ParseError with the
    offending position.
    """
    # str.translate rather than text.translate, so that a non-string
    # raises TypeError.
    if not str.translate(text, _GATES):
        return text
    rest = text.translate(_ACCEPTED)
    if rest and not rest.isspace():
        for pos, ch in enumerate(text):
            if not (ch in "HPTI.|" or ch.isspace()):
                raise ParseError(pos, ch)
    return "".join(text.translate(_IGNORED).split())


def _unitary_key(k, j, a0, b0, c0, d0, a1, b1, c1, d1):
    # Key of the unitary with row 0 (e00, e01) = (a0..d0, a1..d1) over
    # sqrt2**k and determinant omega**j.  Its row 1 is omega**j *
    # (-conj(e01), conj(e00)), and coefficient i of omega**j * conj(x) is
    # item (j - i) mod 8 of (x, -x): a negative index wraps mod 8 here.
    x0 = a0, b0, c0, d0, -a0, -b0, -c0, -d0
    x1 = -a1, -b1, -c1, -d1, a1, b1, c1, d1
    j &= 7
    return (k, a0, b0, c0, d0, a1, b1, c1, d1,
            x1[j], x1[j - 1], x1[j - 2], x1[j - 3],
            x0[j], x0[j - 1], x0[j - 2], x0[j - 3])


def evaluate(circuit, gates=ring.GATES):
    """Exact matrix of a circuit: gate matrices multiplied in string
    order, leftmost gate leftmost factor.  Empty circuit is the identity.

    An independent word-level product (it never consults the group
    tables or the normalizer).  It carries only row 0 of the running
    product, the flat key's 8 numerators of e00 and e01 over sqrt2**k,
    plus j, the exponent of its determinant omega**j.  Gates are
    dispatched by identity: the ring's own T and P (which ring.GATES and
    every GroupTable.gates hold) rotate e01 by omega and omega**2 and add
    1 and 2 to j, and the ring's own H replaces e00 and e01 by their sum
    and difference with k + 1 and adds 4 to j (det H = -1).  Row 1 is
    rebuilt once, as omega**j * (-conj(e01), conj(e00)), where conj(a, b,
    c, d) = (a, -d, -c, -b).  That holds exactly for every unitary with
    determinant omega**j, and a product of these three gates is one.
    Conjugation and units keep sqrt2 divisibility, so row 1 is divisible
    exactly when row 0 is, and the reduction over row 0 alone leaves the
    whole key canonical.

    Any other matrix, equal to one of them or not, flushes: the run of
    ring gates since the last such gate is completed to its full key and
    multiplied in by the exact generic flat product, then the matrix
    itself, so the rebuild never crosses a matrix that is not known to
    be unitary.  A gate that is not a UMat2 raises TypeError.  The
    mapping is read at each gate, so a caller's later change to it is
    always seen.  These steps are inline, not calls of ring._gate_mul:
    evaluate stays an independent oracle for the ring code, and a call
    per gate would cost it a frame per gate.
    """
    T, H, P = ring.T, ring.H, ring.P
    # done: key of the product up to the last generic gate, if any.
    done = None
    k = j = b0 = c0 = d0 = a1 = b1 = c1 = d1 = 0
    a0 = 1
    for ch in circuit:
        try:
            m = gates[ch]
        except KeyError:
            raise ValueError(f"gate {ch!r} not in this basis") from None
        if m is T:
            # T: e01 times omega, (a, b, c, d) -> (-d, a, b, c).
            a1, b1, c1, d1 = -d1, a1, b1, c1
            j += 1
        elif m is H:
            # H: e00 and e01 become their sum and difference over sqrt2.
            k += 1
            j += 4
            a0, b0, c0, d0, a1, b1, c1, d1 = (
                a0 + a1, b0 + b1, c0 + c1, d0 + d1,
                a0 - a1, b0 - b1, c0 - c1, d0 - d1)
            while k and not ((a0 ^ c0) | (b0 ^ d0)
                             | (a1 ^ c1) | (b1 ^ d1)) & 1:
                # Row 0, and so row 1, is divisible by sqrt2 (see
                # ring._reduced).
                a0, b0, c0, d0 = (b0 - d0) >> 1, (a0 + c0) >> 1, (b0 + d0) >> 1, (c0 - a0) >> 1
                a1, b1, c1, d1 = (b1 - d1) >> 1, (a1 + c1) >> 1, (b1 + d1) >> 1, (c1 - a1) >> 1
                k -= 1
        elif m is P:
            # P: e01 times omega**2 = i.
            a1, b1, c1, d1 = -c1, -d1, a1, b1
            j += 2
        elif not isinstance(m, ring.UMat2):
            raise TypeError(f"evaluate() gate {ch!r} must be a UMat2, "
                            f"not {type(m).__name__}")
        else:
            key = m.scaled_key()
            # Every ring gate adds to j, so j is 0 exactly when the run
            # since the last generic gate is empty.
            if j:
                key = ring._mat_mul(
                    _unitary_key(k, j, a0, b0, c0, d0, a1, b1, c1, d1), key)
                k = j = b0 = c0 = d0 = a1 = b1 = c1 = d1 = 0
                a0 = 1
            done = key if done is None else ring._mat_mul(done, key)
    key = _unitary_key(k, j, a0, b0, c0, d0, a1, b1, c1, d1)
    return ring.UMat2._raw(key if done is None else ring._mat_mul(done, key))


def _not_a_circuit(caller, circuit):
    return TypeError(f"{caller}() circuit must be a str, "
                     f"not {type(circuit).__name__}")


def _fold(circuit, rules, caller="normalize"):
    """normalize's pass: (list of block slots, Clifford id).

    The loop reads one byte code per gate (see RuleTable): each T*T is
    first written as the letter of P = T*T, then every letter becomes its
    code at C speed.  A generator code c takes one lookup, steps[c];
    code 0 is a T.  A letter outside the basis becomes a code past the
    end of steps (IndexError) or does not encode (UnicodeEncodeError),
    and either raises ValueError for the circuit's first such letter; a
    circuit that is not a str raises TypeError naming `caller`.
    """
    try:
        codes = str.replace(circuit, "TT", rules.tt).translate(rules.codes)
    except TypeError:
        raise _not_a_circuit(caller, circuit) from None
    blocks = []
    pending = 0
    steps = rules.steps
    slots = rules.slots
    w1s = rules.w1_ids
    merge = rules.merge
    try:
        for c in codes.encode("latin-1"):
            if c:
                pending = steps[c][pending]
            elif slot := slots[pending]:
                blocks.append(slot)
                pending = w1s[pending]
            elif blocks:
                pending = merge[blocks.pop()][w1s[pending]]
            else:
                blocks.append(0)
                pending = w1s[pending]
    except (IndexError, UnicodeEncodeError):
        letters = rules.table.letter_step
        for ch in circuit:
            if ch != "T" and ch not in letters:
                raise ValueError(f"gate {ch!r} not in this basis") from None
        raise
    return blocks, pending


_BLOCKS = tuple(Block)
_BLOCK_SET = frozenset(_BLOCKS)


def normalize(circuit, table=None, rules=None):
    """Normal form of a circuit in one left-to-right pass.

    State is a block stack plus a pending Clifford (initially identity).
    H/P fold into pending by one step-table lookup, and each adjacent T*T
    in the circuit is read as one P.  Each T looks up pending*T = S*T*W1:
    a non-identity syndrome S pushes block S*T, and an identity syndrome
    either starts the chain with a bare T or pops the previous block X*T,
    merging T*T into P (pending becomes X*P*W1, one lookup in
    rules.merge).  Amortized O(1) table lookups per gate.  A circuit that
    is not a str raises TypeError, and a letter outside the table's
    generators and T raises ValueError.
    """
    if (rules.__class__ is not RuleTable
            or table is not None and table is not rules.table):
        rules = _rules("normalize", table, rules)
    blocks, cliff = _fold(circuit, rules)
    return NormalForm(tuple(map(_BLOCKS.__getitem__, blocks)), cliff)


def _check_form(nf, table, caller):
    # The one guard of every entry point that takes a NormalForm.
    if not isinstance(nf, NormalForm):
        raise TypeError(f"{caller}() form must be a NormalForm, "
                        f"not {type(nf).__name__}")
    _check_table(table, caller)
    if not (0 <= nf.cliff < len(table.elements)
            and _BLOCK_SET.issuperset(nf.blocks)):
        raise ValueError(f"{nf!r} is not a normal form of this table")


def render(nf, table=None):
    """Text form: blocks joined with '.', then '|', then the canonical
    Clifford word ('I' when empty)."""
    if table is None:
        table = _default_rules().table
    _check_form(nf, table, "render")
    return (".".join(map(table.block_labels.__getitem__, nf.blocks))
            + "|" + (table.words[nf.cliff] or "I"))


def _blocks_matrix(blocks, table):
    # Exact matrix of a block tuple, unchecked: evaluate on the blocks'
    # labels joined, so each block runs through its T, H and P branches.
    return evaluate("".join(map(table.block_labels.__getitem__, blocks)),
                    table.gates)


def normal_form_matrix(nf, table=None):
    """Exact matrix of a normal form: its blocks' matrix times the Clifford
    tail's element matrix.  A form without blocks is its tail's matrix."""
    if table is None:
        table = _default_rules().table
    _check_form(nf, table, "normal_form_matrix")
    tail = table.elements[nf.cliff]
    return _blocks_matrix(nf.blocks, table) * tail if nf.blocks else tail


def equivalent(c1, c2, table=None, rules=None):
    """Exact equality of the two circuits' matrices, decided structurally
    on normal forms."""
    if (rules.__class__ is not RuleTable
            or table is not None and table is not rules.table):
        rules = _rules("equivalent", table, rules)
    return (_fold(c1, rules, "equivalent")
            == _fold(c2, rules, "equivalent"))


def t_count(circuit, table=None, rules=None):
    """Minimal number of T gates over all circuits computing the same
    matrix; the block count of the normal form."""
    if (rules.__class__ is not RuleTable
            or table is not None and table is not rules.table):
        rules = _rules("t_count", table, rules)
    return len(_fold(circuit, rules, "t_count")[0])


def invert(circuit, table=None, rules=None):
    """Normal form of the exact inverse circuit.

    The word is reversed letterwise and translated by rules.inverse, which
    replaces each Clifford generator by its inverse's canonical word and T
    by T followed by the phase gate's inverse word (T**-1 = T**7 =
    T*P**3), then normalized.  The T count is preserved.  A letter outside
    the basis passes through unchanged and normalize rejects it.
    """
    if (rules.__class__ is not RuleTable
            or table is not None and table is not rules.table):
        rules = _rules("invert", table, rules)
    if not isinstance(circuit, str):
        raise _not_a_circuit("invert", circuit)
    return normalize(circuit[::-1].translate(rules.inverse), rules.table,
                     rules)
