"""Rewrite rules W0*T = S*T*W1 for pushing T gates left through Cliffords.

For every group element W0 there is exactly one syndrome S in {I, H, PH}
and one element W1 with f(W0)*T = f(S)*T*f(W1); S is the syndrome in
W0's slot of the table's `coset_slots`, and W1 = T_adj * S_adj * W0 * T.
S_adj * W0 lies in C_T, so W1 is read off the inverse of the group
table's T-conjugation, with no matrix product.  A RuleTable is built
from its table alone; build_rules(table) is the same thing.  The
normalizer consumes these as pure table lookups.
"""

from __future__ import annotations

from .group import _check_table


class RuleDerivationFailure(Exception):
    """The coset decomposition behind the rules does not hold, so some
    conjugate T_adj * S_adj * W0 * T lands outside the group.  Impossible
    for the standard H/P basis; reachable with exotic generator sets."""


class RuleTable:
    """One rule per group element, indexed by the W0 element id.

    Built from the GroupTable `table` alone, as by build_rules(table), so
    a RuleTable is the whole context the normalizer needs.  `merge[x][w1]`
    is the pending element after a T whose rule has the identity syndrome
    meets a previous block x: X*T*T*W1 = X*P*W1, with X the block's
    syndrome and P = T*T the second generator, whose letter is `tt`.  Each
    `merge[x]` is a row of the table's `mul`, a tuple.

    The normalizer reads a circuit as byte codes, one per gate: `codes`
    is a str.translate table that maps T to chr(0) and generator i to
    chr(i + 1), and `steps[i + 1]` is generator i's letter_step row
    (`steps[0]` is None, since T takes the rules instead).  Each code
    character that is not itself a basis letter maps to the sentinel
    chr(255), past the end of `steps`, so it cannot pass for a gate.
    `inverse` is the str.translate table that invert applies to the
    reversed circuit: each generator to its inverse's canonical word, and
    T to T followed by P's inverse word (T**-1 = T**7 = T*P**3).
    """

    def __init__(self, table):
        _check_table(table, "RuleTable")
        self.table = table
        # untwist[x] is the id of T_adj * elements[x] * T; x is missing when
        # that matrix is not an element.
        untwist = {c: g for g, c in enumerate(table.t_conj) if c is not None}
        mul, inv, syndrome_ids = table.mul, table.inv, table.syndrome_ids
        w1_ids = []
        for w0, slot in enumerate(table.coset_slots):
            if slot is None:
                raise RuleDerivationFailure(f"element {table.words[w0]!r} "
                                            "is in no unique syndrome coset")
            w1 = untwist.get(mul[inv[syndrome_ids[slot]]][w0])
            if w1 is None:
                raise RuleDerivationFailure(
                    f"conjugate of {table.words[w0]!r} leaves the group")
            w1_ids.append(w1)
        self.slots = table.coset_slots
        self.w1_ids = tuple(w1_ids)
        names = table.gen_names
        p_id = table.gen_ids[names[1]]
        self.merge = tuple(mul[mul[sid][p_id]] for sid in table.syndrome_ids)
        self.tt = names[1]
        letters = ("T", *names)
        self.codes = str.maketrans(
            {**{chr(code): "\xff" for code in range(len(letters))},
             **{ch: chr(code) for code, ch in enumerate(letters)}})
        self.steps = (None, *map(table.letter_step.__getitem__, names))
        inv_words = {name: table.words[inv[gid]]
                     for name, gid in table.gen_ids.items()}
        inv_words["T"] = "T" + inv_words[names[1]]
        self.inverse = str.maketrans(inv_words)

    def __len__(self):
        return len(self.slots)


def _check_rules(rules, caller):
    # The one guard of every entry point that takes a RuleTable.
    if not isinstance(rules, RuleTable):
        raise TypeError(f"{caller}() argument 'rules' must be a RuleTable, "
                        f"not {type(rules).__name__}")


def build_rules(table):
    """The rules of `table`: the same as RuleTable(table)."""
    _check_table(table, "build_rules")
    return RuleTable(table)


def _word_or_i(word):
    return word if word else "I"


def emit_rules(rules):
    """Render all rules as text, one per line, in three syndrome sections.

    Within a section rules are ordered by W0 element id, which is the
    breadth-first discovery order, so output is deterministic.
    """
    _check_rules(rules, "emit_rules")
    table = rules.table
    out = []
    for slot in range(3):
        label = table.syndrome_labels[slot]
        prefix = "" if label == "I" else label
        out.append(f"# section S = {label}")
        for w0 in range(table.order):
            if rules.slots[w0] != slot:
                continue
            lhs = _word_or_i(table.words[w0])
            rhs = _word_or_i(table.words[rules.w1_ids[w0]])
            out.append(f"{lhs}T = {prefix}T{rhs}")
    return "\n".join(out) + "\n"


def parse_fixture(text):
    """Parse fixture text into (lhs, rhs) word pairs; '#' starts a comment."""
    if not isinstance(text, str):
        raise TypeError("parse_fixture() text must be a str, "
                        f"not {type(text).__name__}")
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("=")
        if len(parts) != 2:
            raise ValueError(f"fixture line {lineno}: expected one '=': {raw!r}")
        rows.append((parts[0].strip(), parts[1].strip()))
    return rows


def load_bundled_fixture():
    from importlib import resources
    return resources.files("hptcanon.data").joinpath(
        "appendix_rules.txt").read_text()


def check_fixture(rules, rows):
    """Check fixture rows against exact arithmetic and the derived rules.

    Each row W0T = <S>T<W1> is checked at matrix level: both sides must
    evaluate to the same matrix, and the row's (S, W1) must agree with the
    derived rule for W0 as matrices.  Words are over the table's
    generators plus T, with I allowed as an explicit identity letter.
    Returns a list of mismatch descriptions; empty means the fixture
    passes.
    """
    # normalize imports this module, so evaluate is imported here.
    from .normalize import evaluate
    _check_rules(rules, "check_fixture")
    table = rules.table
    gates = table.gates
    by_len = sorted(range(3), key=lambda s: -len(table.block_labels[s]))
    problems = []
    seen_w0 = set()
    for lhs, rhs in rows:
        if not (isinstance(lhs, str) and isinstance(rhs, str)):
            raise TypeError("check_fixture() rows must be pairs of str, "
                            f"not {(lhs, rhs)!r}")
        where = f"{lhs} = {rhs}"
        if not lhs.endswith("T"):
            problems.append(f"{where}: left side does not end in T")
            continue
        for slot in by_len:
            if rhs.startswith(table.block_labels[slot]):
                break
        else:
            problems.append(f"{where}: right side has no T block prefix")
            continue
        w1_word = rhs[len(table.block_labels[slot]):]
        try:
            lhs_mat, rhs_mat, w0_mat, w1_mat = [
                evaluate(word.replace("I", ""), gates)
                for word in (lhs, rhs, lhs[:-1], w1_word)]
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if lhs_mat != rhs_mat:
            problems.append(f"{where}: sides evaluate to different matrices")
            continue
        try:
            w0 = table.index[w0_mat]
        except KeyError:
            problems.append(f"{where}: left side is not a group element")
            continue
        seen_w0.add(w0)
        if rules.slots[w0] != slot:
            problems.append(f"{where}: syndrome differs from derived rule")
        if table.elements[rules.w1_ids[w0]] != w1_mat:
            problems.append(f"{where}: W1 differs from derived rule")
    if len(rows) != len(rules.slots):
        problems.append(
            f"fixture has {len(rows)} rules, expected {len(rules.slots)}")
    elif len(seen_w0) != len(rules.slots):
        problems.append("fixture left-hand sides do not cover every element")
    return problems
