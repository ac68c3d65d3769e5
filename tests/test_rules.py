"""Generated rewrite rules W0*T = S*T*W1 and the bundled fixture."""

import copy

import pytest

from hptcanon import ring
from hptcanon.group import CosetTag, build_group
from hptcanon.normalize import evaluate
from hptcanon.rules import (RuleDerivationFailure, build_rules, check_fixture,
                            emit_rules, load_bundled_fixture, parse_fixture)


def test_rule_count_and_sections(rules, table):
    assert len(rules) == 192
    for slot in range(3):
        assert sum(1 for s in rules.slots if s == slot) == 64


def _assert_every_rule_holds(rules):
    # W0*T == S*T*W1 by exact products, independent of how W1 was found.
    table = rules.table
    t = table.t_mat
    for w0 in range(table.order):
        tag, w1 = rules.rule_for(w0)
        syn = table.matrix(table.syndrome_ids[tag.value])
        lhs = table.matrix(w0) * t
        rhs = (syn * t) * table.matrix(w1)
        assert lhs == rhs


def test_every_rule_holds_exactly(rules):
    _assert_every_rule_holds(rules)


def test_specific_rules(rules, table):
    w1_expected = table.word_id("HPHPPPH")
    assert rules.rule_for(table.word_id("HPPH")) == (CosetTag.S_I, w1_expected)
    assert rules.rule_for(table.word_id("PPH")) == (CosetTag.S_H, w1_expected)
    assert rules.rule_for(table.word_id("PPPH")) == (CosetTag.S_PH,
                                                     w1_expected)
    assert rules.rule_for(0) == (CosetTag.S_I, 0)


def test_identity_section_is_a_bijection_on_the_subgroup(rules, table):
    ct = table.ct_ids
    mapped = {}
    for w0 in ct:
        tag, w1 = rules.rule_for(w0)
        assert tag == CosetTag.S_I
        mapped[w0] = w1
    assert set(mapped) == ct
    assert set(mapped.values()) == ct  # conjugation by T permutes C_T


def test_syndrome_sections_pair_with_identity_section(rules, table):
    # The rule for S*W0 (W0 in C_T) carries syndrome S and the same W1 as
    # the rule for W0.
    h = table.gen_ids[table.gen_names[0]]
    ph = table.syndrome_ids[2]
    for w0 in table.ct_ids:
        _, w1 = rules.rule_for(w0)
        tag_h, w1_h = rules.rule_for(table.mul[h][w0])
        tag_ph, w1_ph = rules.rule_for(table.mul[ph][w0])
        assert (tag_h, w1_h) == (CosetTag.S_H, w1)
        assert (tag_ph, w1_ph) == (CosetTag.S_PH, w1)


def test_emit_format(rules, table):
    text = emit_rules(rules)
    lines = text.splitlines()
    assert lines[0] == "# section S = I"
    assert "IT = TI" in lines
    assert "# section S = H" in lines
    assert "# section S = PH" in lines
    assert len([ln for ln in lines if not ln.startswith("#")]) == 192
    # every emitted line is an exact matrix identity
    for ln in lines:
        if ln.startswith("#"):
            continue
        lhs, rhs = ln.split(" = ")
        assert evaluate(lhs.replace("I", "")) == evaluate(rhs.replace("I", ""))


def test_bundled_fixture_matches_generated_rules(rules):
    rows = parse_fixture(load_bundled_fixture())
    assert len(rows) == 192
    assert check_fixture(rules, rows) == []


def test_fixture_check_catches_corruption(rules):
    text = load_bundled_fixture()
    bad = text.replace("HPPHT = THPHPPPH", "HPPHT = THPHPH", 1)
    assert bad != text
    problems = check_fixture(rules, parse_fixture(bad))
    assert problems
    assert any("HPPHT" in p for p in problems)


def test_rules_derive_for_alternate_two_generator_basis():
    # The same construction goes through with the other Hadamard-like
    # generator; derivation fails only if some conjugate leaves the group.
    r_rules = build_rules(build_group([("R", ring.R), ("P", ring.P)]))
    assert len(r_rules) == 192
    _assert_every_rule_holds(r_rules)


def test_single_generator_rules_fail_and_name_the_element():
    # <P> is abelian, so every element lies in C_T, and hence in the
    # coset of more than one syndrome.
    with pytest.raises(RuleDerivationFailure,
                       match="^element '' is in no unique syndrome coset$"):
        build_rules(build_group([("P", ring.P)]))


def test_missing_conjugate_fails_and_names_the_element(table):
    # Without the identity's T-conjugate no W1 is found for W0 = I.
    broken = copy.copy(table)
    broken.t_conj = (None,) + table.t_conj[1:]
    with pytest.raises(RuleDerivationFailure,
                       match="^conjugate of '' leaves the group$"):
        build_rules(broken)
