"""Acceptance gate: the eleven headline claims, one test and one summary
line each.  The claims are checked by `hptcanon.verify` alone; each test
asserts that its checks from the session's one `verify.run_all()` pass
with exactly the expected detail, whose counts pin the corpora and whose
budget words pin the 1 s / 10 s / 30 s bounds.  Every test records its
PASS/FAIL verdict before asserting, so the terminal summary always shows
all eleven outcomes.  The other tests here feed the checks a wrong input
and assert the failing verdict and detail: a check that cannot fail
proves nothing."""

import weakref

import pytest

from hptcanon import census, ring, rules as rules_mod, stab, verify
from hptcanon.group import GroupTable
from hptcanon.normalize import Block


@pytest.fixture
def accept(checks, criteria):
    """Record criterion `number` from the named checks' results, then
    assert each passed with exactly the expected detail."""
    def record_and_assert(number, expected):
        results = [checks[name] for name in expected]
        criteria(number,
                 all(r.ok and r.detail == expected[r.name] for r in results),
                 "; ".join(f"{r.name}: {r.detail}" for r in results))
        for r in results:
            assert (r.ok, r.detail) == (True, expected[r.name])
    return record_and_assert


def test_criterion_1_group_order(accept):
    accept(1, {"group-order": "order=192, fresh rebuild within 1s budget"})


def test_criterion_2_coset_structure(accept):
    accept(2, {"coset-structure": "|C_T|=64 cosets=[64, 64, 64] quotient="
                                  "(8, abelian=False, {1: 1, 4: 2, 2: 5})"})


def test_criterion_3_rule_tables(accept):
    accept(3, {
        "rewrite-rules": "192 rules, sections [64, 64, 64], "
                         "0 identity failures",
        "appendix-fixture": "192 rows, 0 mismatches",
    })


# H given P's W1: the detail each rule-dependent check gets.
_WRONG_RULE_DETAILS = {
    "check_rules": "192 rules, sections [64, 64, 64], 1 identity failures",
    "check_appendix": "192 rows, 1 mismatches; first: HT = HT: W1 differs "
                      "from derived rule",
    "check_soundness": "13280 words, 6689 failures, within 30s budget",
    "check_tcount_minimality": "303 matrices over words <=7, "
                               "0 beaten minima, 52 unattained witnesses",
    "check_inverse_tcount": "4224 normal forms <= 3 blocks, 66 failures",
}


def test_a_wrong_rule_fails_each_rule_check(table, rules):
    assert table.words[1:3] == ["H", "P"]
    wrong = rules_mod.RuleTable(table)
    w1 = rules.w1_ids
    wrong.w1_ids = (w1[0], w1[2], *w1[2:])
    ctx = {"table": table, "rules": wrong}
    for name, detail in _WRONG_RULE_DETAILS.items():
        res = getattr(verify, name)(ctx)
        assert (res.ok, res.detail) == (False, detail), name


def _one_form_short(n, table, with_oracle=True):
    # A census count one below the closed form, as a lost form would give.
    return census.count_closed_form(n) - 1


@pytest.mark.parametrize("check, target, stub, detail", [
    (verify.check_group_order, "hptcanon.verify.build_standard_table",
     lambda: GroupTable([("P", ring.P)]),
     "order=4, fresh rebuild within 1s budget"),
    (verify.check_coset_structure, "hptcanon.verify.subgroup_ct",
     lambda table: frozenset(),
     "|C_T|=64 cosets=[64, 64, 64] quotient=(8, abelian=False, "
     "{1: 1, 4: 2, 2: 5})"),
    (verify.check_oracle, "hptcanon.census.verify_uniqueness",
     _one_form_short, "n=4: enumeration 8831 == oracle 8831, "
                      "within 10s budget"),
    (verify.check_uniqueness, "hptcanon.census.verify_uniqueness",
     _one_form_short, "n=5: 18047 distinct matrices, no collisions"),
    (verify.check_hp_cubed, "hptcanon.verify.evaluate",
     lambda word: ring.IDENTITY,
     "(HP)^3 equals the omega scalar matrix exactly"),
], ids=["group-order", "coset-structure", "oracle-match", "uniqueness",
        "hp-cubed-scalar"])
def test_a_wrong_input_fails_its_check(table, rules, monkeypatch, check,
                                       target, stub, detail):
    monkeypatch.setattr(target, stub)
    res = check({"table": table, "rules": rules})
    assert (res.ok, res.detail) == (False, detail)


def test_criterion_4_counting(accept):
    accept(4, {
        "counting": "n<=12: 2358912 normal forms, strictly ordered, "
                    "layers match closed forms",
        "oracle-match": "n=4: enumeration 8832 == oracle 8832, "
                        "within 10s budget",
    })


def test_criterion_5_uniqueness(accept):
    accept(5, {"uniqueness": "n=5: 18048 distinct matrices, no collisions"})


def test_criterion_6_normalizer_soundness(accept):
    accept(6, {"normalizer-soundness": "13280 words, 0 failures, "
                                       "within 30s budget"})


def test_criterion_7_tcount_minimality(accept):
    accept(7, {"tcount-minimality": "303 matrices over words <=7, "
                                    "0 beaten minima, 0 unattained witnesses"})


def test_criterion_8_inverse_preserves_tcount(accept):
    accept(8, {"inverse-tcount": "4224 normal forms <= 3 blocks, 0 failures"})


def test_criterion_9_stabilizer_machinery(accept):
    accept(9, {"stabilizer-chains": "10000 chains, 139944 transition-law "
                                    "checks, 0 failures, within 30s budget"})


def test_stabilizer_chains_must_end_in_a_parity_class(table, rules,
                                                      monkeypatch):
    # Every triple read as parity code 0, class OTHER: no transition law
    # applies, so only the terminal-class condition can fail these chains.
    assert stab._CLASS_BY_CODE[0] is stab.ParityClass.OTHER
    monkeypatch.setattr(stab, "_code", lambda *coefficients: 0)
    res = verify.check_stab_chains({"table": table, "rules": rules}, count=20)
    assert (res.ok, res.detail) == (
        False, "20 chains, 0 transition-law checks, 20 failures, "
               "within 30s budget")


def test_law_walk_counts_sum_to_the_chains_detail(table, rules, monkeypatch):
    walks = []
    law_walk = stab._law_walk

    def recorded(blocks, cliff, table):
        walks.append(law_walk(blocks, cliff, table))
        return walks[-1]
    monkeypatch.setattr(stab, "_law_walk", recorded)
    res = verify.check_stab_chains({"table": table, "rules": rules}, count=20)
    assert (len(walks), all(ok for _, ok, _ in walks)) == (20, True)
    assert res.detail.startswith(
        f"20 chains, {sum(checks for checks, _, _ in walks)} transition-law "
        "checks, 0 failures")


def test_stabilizer_chains_name_a_broken_step_law(table, rules,
                                                  monkeypatch):
    # One wrong coefficient in the fold's PHT branch: z_a gets x_a + y_a,
    # not x_a - y_a.  step_block and the chains both fold through it.
    # Parities are unchanged, so every transition law still holds; the
    # step law and each chain's end check fail.
    fold = stab._fold

    def wrong(st, blocks):
        for b in blocks:
            xa, xb, ya, yb, za, zb, level = next(fold(st, (b,)))
            if b == Block.PHT:
                za = st[0][0] + st[1][0]
            st = (xa, xb), (ya, yb), (za, zb), level
            yield xa, xb, ya, yb, za, zb, level
    monkeypatch.setattr(stab, "_fold", wrong)
    res = verify.check_stab_chains({"table": table, "rules": rules}, count=20)
    assert (res.ok, res.detail) == (
        False, "20 chains, 281 transition-law checks, 20 failures, "
               "within 30s budget; step law fails for block PHT at level 0")


def test_stabilizer_chains_check_the_initial_axis(table, rules, monkeypatch):
    # Every initial axis with its sign flipped, from a cleared memo.  The
    # parity classes cannot see a sign; each chain's end check does.
    monkeypatch.setattr(stab, "_AXIS_MEMO", weakref.WeakKeyDictionary())
    minus_z = ring.UMat2(ring.RingElem(-1, 0, 0, 0), ring.ZERO, ring.ZERO,
                         ring.ONE)
    monkeypatch.setattr(ring, "PAULI_Z", minus_z)
    res = verify.check_stab_chains({"table": table, "rules": rules}, count=20)
    assert (res.ok, res.detail) == (
        False, "20 chains, 281 transition-law checks, 20 failures, "
               "within 30s budget")


def test_criterion_10_hp_cubed_phase(accept):
    accept(10, {"hp-cubed-scalar": "(HP)^3 equals the omega scalar matrix "
                                   "exactly"})


def test_criterion_11_alternate_basis(accept):
    accept(11, {"remark-r-basis": "|<R,P>|=192 recorded, decomposition=True, "
                                  "n=3 census 4224==4224"})


def test_alternate_basis_fails_without_a_coset_decomposition(monkeypatch):
    def no_rules(table):
        raise rules_mod.RuleDerivationFailure("no coset decomposition")
    monkeypatch.setattr(rules_mod, "build_rules", no_rules)
    res = verify.check_remark_r({})
    assert (res.ok, res.detail) == (
        False, "|<R,P>|=192 recorded, decomposition=False")


def test_alternate_basis_fails_on_a_wrong_round_trip(monkeypatch):
    # The fifth word's normal form gets the wrong Clifford tail.
    calls = []
    normalize = verify.normalize

    def wrong(word, table, rules):
        nf = normalize(word, table, rules)
        calls.append(word)
        return nf._replace(cliff=nf.cliff ^ 1) if len(calls) == 5 else nf
    monkeypatch.setattr(verify, "normalize", wrong)
    res = verify.check_remark_r({})
    assert (res.ok, res.detail) == (
        False, "|<R,P>|=192 recorded, decomposition=True, "
               "n=3 census 4224==4224")
