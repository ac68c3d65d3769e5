"""Clifford group closure, canonical words, cosets, scalars, quotient."""

import random
import re

import pytest

from hptcanon import ring
from hptcanon.group import (ClosureExceedsLimit, GroupTable,
                            build_standard_table, quotient_profile,
                            subgroup_ct)
from hptcanon.normalize import Block, NormalForm, evaluate, normal_form_matrix


def test_order_and_identity_word(table):
    assert table.order == 192
    assert table.words[0] == ""


def test_single_generator_identity_group():
    t = GroupTable([("E", ring.IDENTITY)])
    assert t.order == 1
    assert t.words == [""]


def test_group_table_refuses_non_matrix_generators():
    with pytest.raises(TypeError, match="generator 'H' must be a UMat2, not int"):
        GroupTable([("H", 5)])


@pytest.mark.parametrize("gens, kind, message", [
    # T would be read as a generator by the rules but as ring.T by evaluate.
    ([("T", ring.H), ("P", ring.P)], ValueError,
     "generator name 'T' is taken by the T gate"),
    # A repeat would leave gates and letter_step one generator short.
    ([("H", ring.H), ("H", ring.P)], ValueError,
     "generator name 'H' is repeated"),
    # parse drops these, so normalize(parse(w)) would drop the gate.
    *[([("H", ring.H), (ch, ring.P)], ValueError,
       f"generator name {ch!r} is a character parse drops")
      for ch in ("I", ".", "|", " ", "\n")],
    # One item long, but no letter: parse and the rules read str names.
    ([(b"H", ring.H), ("P", ring.P)], TypeError,
     "generator name b'H' must be a str, not bytes"),
    ([(("H",), ring.H), ("P", ring.P)], TypeError,
     "generator name ('H',) must be a str, not tuple"),
], ids=["T", "repeat", "I", "dot", "bar", "space", "newline", "bytes",
        "tuple"])
def test_group_table_refuses_names_that_would_misread(gens, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        GroupTable(gens)


def test_standard_build_takes_four_products(monkeypatch):
    # The P*H syndrome and the three block matrices: every other table
    # comes off the closure tree by lookups.
    calls = []
    mat_mul = ring._mat_mul

    def counted(x, y):
        calls.append(None)
        return mat_mul(x, y)

    monkeypatch.setattr(ring, "_mat_mul", counted)
    build_standard_table()
    assert len(calls) == 4


def test_closure_limit_enforced():
    # <H, T> is infinite: its closure stops at the limit.
    with pytest.raises(ClosureExceedsLimit,
                       match="^group closure exceeded 10000 elements$"):
        GroupTable([("H", ring.H), ("U", ring.T)])


def test_canonical_words_are_shortest_and_lex_least(table):
    # Independent oracle: walk words levelwise in H-before-P order,
    # evaluating each extension from scratch; first sighting of a matrix
    # is its shortest, lexicographically least word.
    first_word = {}
    frontier = [("", ring.IDENTITY)]
    while frontier and len(first_word) < 192:
        nxt = []
        for word, mat in frontier:
            if mat not in first_word:
                first_word[mat] = word
                nxt.append((word, mat))
        frontier = [(w + g, m * ring.GATES[g]) for w, m in nxt for g in "HP"]
    assert len(first_word) == 192
    for gid in range(table.order):
        assert table.words[gid] == first_word[table.elements[gid]]


@pytest.mark.parametrize("gens, order", [
    ((("H", ring.H), ("P", ring.P)), 192),
    ((("R", ring.R), ("P", ring.P)), 192),
    # One-generator tables reach the row and inverse recurrences' n = 4,
    # 2 and 1 cases; T * X * T_adj is not in <X>, so its t_conj is None.
    ((("P", ring.P),), 4),
    ((("X", ring.PAULI_X),), 2),
    ((("E", ring.IDENTITY),), 1),
], ids=["HP", "RP", "P", "X", "I"])
def test_mul_and_t_conj_match_direct_products(gens, order):
    t = GroupTable(gens)
    assert t.order == order
    for i, a in enumerate(t.elements):
        row = t.mul[i]
        for j, b in enumerate(t.elements):
            assert row[j] == t.index[a * b]
        assert t.elements[t.inv[i]] == a.adjoint()
    t_mat, t_adj = t.t_mat, t.t_mat.adjoint()
    for g, m in enumerate(t.elements):
        assert t.t_conj[g] == t.index.get((t_mat * m) * t_adj)
    assert t.ct_ids == subgroup_ct(t)


def test_inverse_table(table):
    for g in range(table.order):
        assert table.mul[table.inv[g]][g] == 0
        assert table.elements[table.inv[g]] == table.elements[g].adjoint()


def test_gen_step_agrees_with_mul(table):
    for name in table.gen_names:
        gid = table.gen_ids[name]
        for g in range(table.order):
            assert table.letter_step[name][g] == table.mul[g][gid]


def test_conjugation_subgroup_generating_set(table):
    # C_T holds the identity and is closed under products, and P, HPPH
    # and HPHPHP generate it.
    ct, mul = table.ct_ids, table.mul
    assert 0 in ct
    assert all(mul[a][b] in ct for a in ct for b in ct)
    gens = [table.index[evaluate(w, table.gates)]
            for w in ("P", "HPPH", "HPHPHP")]
    reached, grown = set(), {0}
    while grown != reached:
        reached, grown = grown, grown | {mul[a][g] for a in grown for g in gens}
    assert reached == ct


def test_coset_tags(table, r_rules):
    # An element's coset tag is its slot: the index of its syndrome.
    for tab, labels in ((table, ("I", "H", "PH")),
                        (r_rules.table, ("I", "R", "PR"))):
        assert tab.syndrome_labels == labels
        ids = [tab.index[evaluate(w, tab.gates)] for w in (*labels[1:], "P")]
        assert [tab.coset_slots[g] for g in ids] == [1, 2, 0]
        for g, slot in enumerate(tab.coset_slots):
            # the slot's syndrome actually translates g into the subgroup
            sid = tab.syndrome_ids[slot]
            assert tab.mul[tab.inv[sid]][g] in tab.ct_ids
        assert [tab.coset_slots.count(s) for s in range(3)] == [64, 64, 64]


def test_scalar_subgroup(table, r_rules):
    assert table.index[evaluate("HPHPHP", table.gates)] in table.scalar_ids
    # the eighth roots of unity, +-omega**j for j = 0..3
    expected = {ring.RingElem(*(s * (j == i) for j in range(4)))
                for i in range(4) for s in (1, -1)}
    p_table = GroupTable([("P", ring.P)])
    for tab, want in ((table, expected), (r_rules.table, expected),
                      (p_table, {ring.ONE})):
        # The entry-wise definition, element by element.
        scalars = tuple(i for i, m in enumerate(tab.elements)
                        if m.e01 == m.e10 == ring.ZERO and m.e00 == m.e11)
        assert tab.scalar_ids == scalars
        assert {tab.elements[sid].e00 for sid in scalars} == want


def test_element_id_rejects_non_members(table):
    assert table.element_id(ring.P) == table.gen_ids["P"]
    with pytest.raises(ValueError, match="not an element of this group"):
        table.element_id(ring.T)


def test_quotient_profile():
    # <P> is abelian, all of it is C_T, and its only scalar is I; criterion
    # 2 pins the standard table's profile.
    p_table = GroupTable([("P", ring.P)])
    assert quotient_profile(p_table) == (4, True, {1: 1, 2: 1, 4: 2})


def test_gates_map_generator_names_and_t_to_matrices(table, r_rules):
    assert table.gates == {"H": ring.H, "P": ring.P, "T": ring.T}
    assert r_rules.table.gates == {"R": ring.R, "P": ring.P, "T": ring.T}


@pytest.mark.parametrize("basis", ["HP", "RP"])
def test_right_products_walk_equals_full_products(basis, table, r_rules):
    # One walk of the closure tree gives the same keys as one full
    # product per element, on <H,P> (the H and P steps) and on <R,P>
    # (R takes the generic product).
    tab = table if basis == "HP" else r_rules.table
    rng = random.Random(43)
    for nblocks in range(7):
        for _ in range(3):
            blocks = tuple(rng.choice((Block.HT, Block.PHT) if i else
                                      (Block.T, Block.HT, Block.PHT))
                           for i in range(nblocks))
            nf = NormalForm(blocks, rng.randrange(tab.order))
            m = normal_form_matrix(nf, tab)
            assert tab.right_products(m.scaled_key()) == [
                (m * e).scaled_key() for e in tab.elements]
