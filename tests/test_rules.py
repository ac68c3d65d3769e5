"""Generated rewrite rules W0*T = S*T*W1 and the bundled fixture."""

import copy

import pytest

from hptcanon import ring
from hptcanon.group import GroupTable
from hptcanon.normalize import evaluate
from hptcanon.rules import (RuleDerivationFailure, RuleTable, build_rules,
                            check_fixture, emit_rules, load_bundled_fixture,
                            parse_fixture)


def _rule(rules, w0):
    return rules.slots[w0], rules.w1_ids[w0]


def test_specific_rules(rules, table):
    w1_expected, *w0s = (table.index[evaluate(w, table.gates)]
                         for w in ("HPHPPPH", "HPPH", "PPH", "PPPH"))
    for slot, w0 in enumerate(w0s):
        assert _rule(rules, w0) == (slot, w1_expected)
    assert _rule(rules, 0) == (0, 0)


def test_syndrome_sections_pair_with_identity_section(rules, table):
    # The rule for S*W0 (W0 in C_T) carries syndrome S and the same W1 as
    # the rule for W0.
    h = table.gen_ids[table.gen_names[0]]
    ph = table.syndrome_ids[2]
    for w0 in table.ct_ids:
        w1 = rules.w1_ids[w0]
        assert _rule(rules, table.mul[h][w0]) == (1, w1)
        assert _rule(rules, table.mul[ph][w0]) == (2, w1)


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


def test_fixture_check_catches_corruption(rules):
    text = load_bundled_fixture()
    cases = {
        # Not a matrix identity, so the row's W0 goes unchecked.
        "HPPHT = THPHPPPH\n": ("HPPHT = THPHPH\n", [
            "HPPHT = THPHPH: sides evaluate to different matrices",
            "fixture left-hand sides do not cover every element"]),
        # True (T**8 = I), but with syndrome I where H's rule has H.
        "\nHT = HT\n": ("\nHT = TTTTTTTTHT\n", [
            "HT = TTTTTTTTHT: syndrome differs from derived rule",
            "HT = TTTTTTTTHT: W1 differs from derived rule"]),
    }
    for row, (bad_row, problems) in cases.items():
        assert text.count(row) == 1
        bad = text.replace(row, bad_row)
        assert check_fixture(rules, parse_fixture(bad)) == problems


def test_rules_derive_for_alternate_two_generator_basis(r_rules):
    # The same construction goes through with the other Hadamard-like
    # generator; derivation fails only if some conjugate leaves the group.
    # W0*T == S*T*W1 by exact products, independent of how W1 was found;
    # rewrite-rules checks the same on the standard rules.
    table = r_rules.table
    t = table.t_mat
    assert len(r_rules) == 192
    for w0, m in enumerate(table.elements):
        syn = table.elements[table.syndrome_ids[r_rules.slots[w0]]]
        assert m * t == (syn * t) * table.elements[r_rules.w1_ids[w0]]


@pytest.mark.parametrize("build", [build_rules, RuleTable],
                         ids=["build_rules", "RuleTable"])
def test_single_generator_rules_fail_and_name_the_element(build):
    # <P> is abelian, so every element lies in C_T, and hence in the
    # coset of more than one syndrome.
    with pytest.raises(RuleDerivationFailure,
                       match="^element '' is in no unique syndrome coset$"):
        build(GroupTable([("P", ring.P)]))


@pytest.mark.parametrize("build", [build_rules, RuleTable],
                         ids=["build_rules", "RuleTable"])
def test_missing_conjugate_fails_and_names_the_element(table, build):
    # Without the identity's T-conjugate no W1 is found for W0 = I.
    broken = copy.copy(table)
    broken.t_conj = (None,) + table.t_conj[1:]
    with pytest.raises(RuleDerivationFailure,
                       match="^conjugate of '' leaves the group$"):
        build(broken)
