"""Self-contained invariant suite behind the `verify` CLI subcommand.

Each check takes `ctx`, a dict holding the standard `table` and the
`rules` built from it (run_all builds them once and shares them), runs
one verification from the test battery (group structure, rewrite rules,
counting, normalizer soundness, stabilizer chains, the published-table
fixture, the R-basis remark), and reports pass/fail with a one-line
detail.  Checks are pure and ordered; output is deterministic.  This is
the only implementation of the headline checks: the test suite's
acceptance gate asserts on these results and their exact details.
"""

import random
import time
from itertools import product, repeat
from typing import NamedTuple

from . import census, ring, rules as rules_mod, stab
from .group import (GroupTable, _check_table, build_standard_table,
                    quotient_profile, subgroup_ct)
from .normalize import (FIRST_BLOCKS, REST_BLOCKS, _blocks_matrix,
                        evaluate, invert, normal_form_matrix, normalize,
                        parse, render)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


def _result(name, started, ok, detail):
    return CheckResult(name, ok, detail, time.perf_counter() - started)


def _context(ctx, check):
    # The one guard of the checks that read ctx: (its table, its rules).
    try:
        table, rules = ctx["table"], ctx["rules"]
    except (KeyError, TypeError):
        raise TypeError(f"{check}() ctx needs 'table' and 'rules'") from None
    _check_table(table, check)
    rules_mod._check_rules(rules, check)
    if table is not rules.table:
        raise ValueError(f"{check}() ctx['table'] is not ctx['rules'].table")
    return table, rules


def check_group_order(ctx):
    t0 = time.perf_counter()
    table = build_standard_table()
    dt = time.perf_counter() - t0
    ok = (table.order == 192 and table.words[0] == "" and dt < 1.0)
    # Details stay byte-identical across runs: budgets are reported as
    # satisfied/exceeded, never as measured seconds (those go on stderr).
    return _result("group-order", t0, ok,
                   f"order={table.order}, fresh rebuild "
                   f"{'within' if dt < 1.0 else 'EXCEEDS'} 1s budget")


def check_coset_structure(ctx):
    t0 = time.perf_counter()
    table = _context(ctx, "check_coset_structure")[0]
    counts = [sum(1 for s in table.coset_slots if s == k) for k in range(3)]
    qorder, qabelian, qorders = quotient_profile(table)
    ok = (len(table.ct_ids) == 64
          and subgroup_ct(table) == table.ct_ids
          and counts == [64, 64, 64]
          and None not in table.coset_slots
          and len(table.scalar_ids) == 8
          and (qorder, qabelian, qorders) == (8, False, {1: 1, 2: 5, 4: 2}))
    return _result("coset-structure", t0, ok,
                   f"|C_T|={len(table.ct_ids)} cosets={counts} "
                   f"quotient=({qorder}, abelian={qabelian}, {qorders})")


def check_rules(ctx):
    t0 = time.perf_counter()
    table, rules = _context(ctx, "check_rules")
    t = table.t_mat
    bad = 0
    for w0 in range(table.order):
        s, w1 = rules.slots[w0], rules.w1_ids[w0]
        lhs = table.elements[w0] * t
        rhs = (table.elements[table.syndrome_ids[s]] * t) * table.elements[w1]
        if lhs != rhs:
            bad += 1
    section = [rules.slots.count(k) for k in range(3)]
    s_i_image = {rules.w1_ids[w0] for w0 in table.ct_ids}
    ok = (len(rules) == 192 and section == [64, 64, 64] and bad == 0
          and s_i_image == set(table.ct_ids))
    return _result("rewrite-rules", t0, ok,
                   f"{len(rules)} rules, sections {section}, "
                   f"{bad} identity failures")


def check_appendix(ctx):
    t0 = time.perf_counter()
    rules = _context(ctx, "check_appendix")[1]
    rows = rules_mod.parse_fixture(rules_mod.load_bundled_fixture())
    problems = rules_mod.check_fixture(rules, rows)
    ok = not problems and len(rows) == 192
    detail = f"{len(rows)} rows, {len(problems)} mismatches"
    if problems:
        detail += f"; first: {problems[0]}"
    return _result("appendix-fixture", t0, ok, detail)


def check_counting(ctx, nmax=12):
    """Count the normal forms with <= nmax blocks per layer against the
    closed forms, and check that they come strictly ordered by
    (len(blocks), blocks, cliff).

    The count walks census.block_tuples: each tuple adds table.order
    forms, whose tails are range(order) and so ordered by construction.
    So the order holds when (len(blocks), blocks) strictly increases from
    tuple to tuple, and a tuple that breaks it breaks it at its first
    form, whose index is the number of forms before it.
    """
    census._check_n(nmax, "check_counting() nmax")
    t0 = time.perf_counter()
    order = _context(ctx, "check_counting")[0].order
    layer = [0] * (nmax + 1)
    prev = None
    broken = None
    for blocks in census.block_tuples(nmax):
        code = (len(blocks), blocks)
        if broken is None and not (prev is None or prev < code):
            broken = sum(layer)
        prev = code
        layer[len(blocks)] += order
    bad = [(k, got, want) for k, got in enumerate(layer)
           if got != (want := census.count_closed_form(k, exact=True))]
    ok = broken is None and not bad
    order = ("strictly ordered" if broken is None
             else f"order broken at form {broken}")
    layers = ("layers match closed forms" if not bad
              else "layer {}: {} forms, closed form {}".format(*bad[0]))
    return _result("counting", t0, ok,
                   f"n<={nmax}: {sum(layer)} normal forms, {order}, {layers}")


def check_oracle(ctx, oracle_max=4):
    census._check_n(oracle_max, "check_oracle() oracle_max")
    t0 = time.perf_counter()
    count = census.verify_uniqueness(oracle_max,
                                     _context(ctx, "check_oracle")[0])
    dt = time.perf_counter() - t0
    ok = count == census.count_closed_form(oracle_max) and dt < 10.0
    return _result("oracle-match", t0, ok,
                   f"n={oracle_max}: enumeration {count} == oracle {count}, "
                   f"{'within' if dt < 10.0 else 'EXCEEDS'} 10s budget")


def check_uniqueness(ctx, tmax=5):
    # A collision raises VerificationFailure (run_all reports it as a failed
    # check); the count is held to the closed form here, above n = 12 too.
    census._check_n(tmax, "check_uniqueness() tmax")
    t0 = time.perf_counter()
    count = census.verify_uniqueness(
        tmax, _context(ctx, "check_uniqueness")[0], with_oracle=False)
    ok = count == census.count_closed_form(tmax)
    return _result("uniqueness", t0, ok,
                   f"n={tmax}: {count} distinct matrices, no collisions")


def _exhaustive_words(maxlen):
    for k in range(maxlen + 1):
        for letters in product("HPT", repeat=k):
            yield "".join(letters)


def check_soundness(ctx):
    t0 = time.perf_counter()
    table, rules = _context(ctx, "check_soundness")
    rng = random.Random(20260825)
    words = list(_exhaustive_words(7))
    words += ["".join(rng.choice("HPT") for _ in range(rng.randrange(0, 61)))
              for _ in range(10000)]
    by_key = {}
    by_nf = {}
    failures = 0
    for w in words:
        nf = normalize(w, table, rules)
        m = evaluate(w)
        text = parse(render(nf, table))
        key = m.scaled_key()
        if (evaluate(text) != m
                or normalize(text, table, rules) != nf
                or by_key.setdefault(key, nf) != nf
                or by_nf.setdefault(nf, key) != key):
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 30.0
    return _result("normalizer-soundness", t0, ok,
                   f"{len(words)} words, {failures} failures, "
                   f"{'within' if dt < 30.0 else 'EXCEEDS'} 30s budget")


def check_tcount_minimality(ctx):
    # Block count == min T symbols over *all* equivalent words.  Two halves:
    # no corpus word beats the block count, and the rendered normal form is
    # itself an equivalent word attaining it.  (A handful of Cliffords have
    # no T-free word within 7 letters, so the corpus minimum alone is not a
    # valid upper bound.)
    t0 = time.perf_counter()
    table, rules = _context(ctx, "check_tcount_minimality")
    buckets = {}
    for w in _exhaustive_words(7):
        key = evaluate(w).scaled_key()
        nf = normalize(w, table, rules)
        entry = buckets.setdefault(key, [nf, w.count("T")])
        entry[1] = min(entry[1], w.count("T"))
    beaten = 0
    unattained = 0
    for key, (nf, min_t) in buckets.items():
        if len(nf.blocks) > min_t:
            beaten += 1
        witness = render(nf, table)
        if (witness.count("T") != len(nf.blocks)
                or evaluate(parse(witness)).scaled_key() != key):
            unattained += 1
    ok = beaten == 0 and unattained == 0
    return _result("tcount-minimality", t0, ok,
                   f"{len(buckets)} matrices over words <=7, "
                   f"{beaten} beaten minima, {unattained} unattained witnesses")


def check_inverse_tcount(ctx):
    t0 = time.perf_counter()
    table, rules = _context(ctx, "check_inverse_tcount")
    bad = 0
    total = 0
    for nf in census.enumerate_normal_forms(3, table):
        total += 1
        inv = invert(parse(render(nf, table)), table, rules)
        if (len(inv.blocks) != len(nf.blocks)
                or normal_form_matrix(inv, table)
                * normal_form_matrix(nf, table) != ring.IDENTITY):
            bad += 1
    return _result("inverse-tcount", t0, bad == 0,
                   f"{total} normal forms <= 3 blocks, {bad} failures")


def check_stab_chains(ctx, count=10000, seed=20260825):
    """Stabilizer folds of `count` seeded random chains of 2..30 blocks,
    against the paper's parity-class transition laws and exact states.

    Each chain is walked once: stab._law_walk, law_walk without its form
    guard (the chains are drawn from the normal-form language here),
    folds it from its tail's axis, checks every class transition out of
    a family against the law as it goes, and hands back the last triple
    for the end checks.

    The states are proved, not stepped.  stab.step_law_counterexample
    proves, for every triple at every level, that step_block(st, b)
    stabilizes B s whenever st stabilizes s, by 36 comparisons of
    canonical flat keys, and step_block is one step of the same fold.
    initial_stab is exact at level 0: it is read off
    f(W0)*Z*f(W0)^dagger.  By induction every triple of the fold
    stabilizes its prefix's state.  One exact end check per chain then
    ties the fold to the form's matrix, which is independent of it: the
    last triple must stabilize normal_form_matrix(nf)|0>, checked by
    verify_stabilizes' integer kernel on that matrix's column 0.

    Per chain, every transition must follow the law, the last triple
    must be at level k, its class must be T1..T9
    (nonidentity_witness's certificate for >= 3 blocks) and the matrix
    must not be the identity (the witness for 2 blocks).  A failed step
    law gives ok=False and names its first counterexample's block and
    level in the detail.
    """
    census._check_n(count, "check_stab_chains() count")
    t0 = time.perf_counter()
    table = _context(ctx, "check_stab_chains")[0]
    counterexample = stab.step_law_counterexample(table)
    rng = random.Random(seed)
    choice = rng.choice
    failures = 0
    law_checks = 0
    for _ in range(count):
        k = rng.randint(2, 30)
        blocks = (choice(FIRST_BLOCKS),
                  *map(choice, repeat(REST_BLOCKS, k - 1)))
        cliff = rng.randrange(table.order)
        checks, ok, last = stab._law_walk(blocks, cliff, table)
        law_checks += checks
        m = _blocks_matrix(blocks, table) * table.elements[cliff]
        if (not ok or last.level != k
                or stab.classify(last) is stab.ParityClass.OTHER
                or m == ring.IDENTITY
                or not stab.verify_stabilizes(last, m)):
            failures += 1
    dt = time.perf_counter() - t0
    ok = counterexample is None and failures == 0 and dt < 30.0
    detail = (f"{count} chains, {law_checks} transition-law checks, "
              f"{failures} failures, "
              f"{'within' if dt < 30.0 else 'EXCEEDS'} 30s budget")
    if counterexample is not None:
        b, level, _ = counterexample
        detail += f"; step law fails for block {b.name} at level {level}"
    return _result("stabilizer-chains", t0, ok, detail)


def check_hp_cubed(ctx):
    t0 = time.perf_counter()
    table = _context(ctx, "check_hp_cubed")[0]
    hp3 = evaluate("HPHPHP")
    omega_i = ring.UMat2(ring.OMEGA, ring.ZERO, ring.ZERO, ring.OMEGA)
    # omega**2 == i pins the phase at pi/4, not pi/8.
    ok = (hp3 == omega_i
          and omega_i * omega_i == ring.UMat2(ring.I_UNIT, ring.ZERO,
                                              ring.ZERO, ring.I_UNIT)
          and table.element_id(hp3) in table.scalar_ids
          and hp3 != ring.IDENTITY)
    return _result("hp-cubed-scalar", t0, ok,
                   "(HP)^3 equals the omega scalar matrix exactly")


def check_remark_r(ctx):
    """Rerun the pipeline with generator R in place of H: close {R, P}
    (order recorded, not asserted), derive the rules for the syndromes
    {I, R, PR} (a RuleDerivationFailure gives decomposition=False), check
    uniqueness against the oracle at n = 3 and round-trip the normalizer
    on 200 seeded random {R,P,T} words."""
    t0 = time.perf_counter()
    table = GroupTable([("R", ring.R), ("P", ring.P)])
    detail = f"|<R,P>|={table.order} recorded, decomposition="
    try:
        rules = rules_mod.build_rules(table)
    except rules_mod.RuleDerivationFailure:
        return _result("remark-r-basis", t0, False, detail + "False")
    count = census.verify_uniqueness(3, table)
    rng = random.Random(20260825)
    words = ("".join(rng.choice("RPT") for _ in range(rng.randrange(0, 40)))
             for _ in range(200))
    ok = all(normal_form_matrix(normalize(w, table, rules), table)
             == evaluate(w, table.gates) for w in words)
    return _result("remark-r-basis", t0, ok,
                   f"{detail}True, n=3 census {count}=={count}")


_CHECKS = (
    ("group-order", check_group_order),
    ("coset-structure", check_coset_structure),
    ("rewrite-rules", check_rules),
    ("appendix-fixture", check_appendix),
    ("counting", check_counting),
    ("oracle-match", check_oracle),
    ("uniqueness", check_uniqueness),
    ("normalizer-soundness", check_soundness),
    ("tcount-minimality", check_tcount_minimality),
    ("inverse-tcount", check_inverse_tcount),
    ("stabilizer-chains", check_stab_chains),
    ("hp-cubed-scalar", check_hp_cubed),
    ("remark-r-basis", check_remark_r),
)


def run_all(tmax=5, oracle_max=4):
    rules = rules_mod.build_rules(build_standard_table())
    ctx = {"table": rules.table, "rules": rules}
    kwargs = {"uniqueness": {"tmax": tmax},
              "oracle-match": {"oracle_max": oracle_max}}
    results = []
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            res = fn(ctx, **kwargs.get(name, {}))
        except Exception as exc:
            res = CheckResult(name, False, f"exception: {exc}",
                              time.perf_counter() - t0)
        results.append(res)
    return results
