"""Stabilizer triples, block transitions, parity classes, witnesses."""

import gc
import random
import weakref
from itertools import count, product

import pytest

from hptcanon import normalize, ring, stab
from hptcanon.group import GroupTable
from hptcanon.normalize import Block, NormalForm, evaluate, normal_form_matrix
from hptcanon.ring import RingElem
from hptcanon.stab import (NoTGates, NotSignedPauli, ParityClass, StabTriple,
                           classify, initial_stab, law_walk,
                           nonidentity_witness, parity_code, stab_matrix,
                           stab_trace, step_block, step_law_counterexample,
                           verify_stabilizes)


def _random_form(rng, k, table):
    # A bare T block can only sit leftmost in a normal form.
    blocks = tuple(rng.choice((Block.HT, Block.PHT)) for _ in range(k))
    if blocks and rng.random() < 0.5:
        blocks = (Block.T,) + blocks[1:]
    return NormalForm(blocks, rng.randrange(table.order))


def test_initial_axes(table):
    assert initial_stab(0, table) == StabTriple((0, 0), (0, 0), (1, 0), 0)
    assert initial_stab(table.index[evaluate("H", table.gates)], table) == \
        StabTriple((1, 0), (0, 0), (0, 0), 0)
    assert initial_stab(table.index[evaluate("P", table.gates)], table) == \
        StabTriple((0, 0), (0, 0), (1, 0), 0)


def test_initial_axis_is_signed_pauli_for_all_elements(table):
    axes = set()
    for g in range(table.order):
        st = initial_stab(g, table)
        assert st.level == 0
        nonzero = [c for c in (st.x, st.y, st.z) if c != (0, 0)]
        assert len(nonzero) == 1 and nonzero[0] in ((1, 0), (-1, 0))
        axes.add((st.x, st.y, st.z))
    assert len(axes) == 6  # all six signed axes occur


def test_initial_stab_equals_direct_conjugation_per_table(table,
                                                          monkeypatch):
    # Fresh memo; the two tables are called in alternation, so an axis
    # memoised for one table and handed to the other would show here.
    monkeypatch.setattr(stab, "_AXIS_MEMO", weakref.WeakKeyDictionary())
    r_table = GroupTable([("R", ring.R), ("P", ring.P)])
    assert r_table.order == table.order
    differ = 0
    for w0 in range(table.order):
        got = {}
        for t in (table, r_table, table, r_table):
            m = t.elements[w0]
            st = initial_stab(w0, t)
            assert st.level == 0
            assert stab_matrix(st) == (m * ring.PAULI_Z) * m.adjoint(), w0
            assert got.setdefault(t, st) == st
        differ += got[table] != got[r_table]
    assert differ > 0


def test_initial_stab_refuses_ids_and_non_clifford_elements(table):
    for w0 in range(table.order):
        initial_stab(w0, table)
    # Still refused once the table's memo is full.
    for bad in (500, 192, -1):
        with pytest.raises(ValueError, match="not in this table"):
            initial_stab(bad, table)
    # <HTH> is cyclic of order 8, and HTH maps Z to (Z - Y)/sqrt2.  The
    # failure is raised on every call, never memoised.
    q_table = GroupTable([("Q", ring.H * ring.T * ring.H)])
    assert q_table.order == 8
    for _ in range(2):
        with pytest.raises(NotSignedPauli):
            initial_stab(q_table.gen_ids["Q"], q_table)
    assert initial_stab(0, q_table) == StabTriple((0, 0), (0, 0), (1, 0), 0)
    # The memo does not keep a table alive.
    ref = weakref.ref(q_table)
    del q_table
    gc.collect()
    assert ref() is None


def test_step_t_on_z_axis():
    st = step_block(StabTriple((0, 0), (0, 0), (1, 0), 0), Block.T)
    assert st == StabTriple((0, 0), (0, 0), (0, 1), 1)


def test_step_t_on_x_axis():
    st = step_block(StabTriple((1, 0), (0, 0), (0, 0), 0), Block.T)
    assert st == StabTriple((1, 0), (1, 0), (0, 0), 1)


def test_step_ht():
    st = step_block(StabTriple((0, 1), (0, 0), (0, 0), 1), Block.HT)
    assert st == StabTriple((0, 0), (0, -1), (0, 1), 2)
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        step_block(StabTriple((0, 1), (0, 0), (0, 0), -1), Block.HT)


def test_step_law_holds_and_names_a_wrong_coefficient(table, monkeypatch):
    assert step_law_counterexample(table) is None
    # One wrong coefficient in one branch: the y_a term of the new x
    # coefficient is off by 2.  The first failing unit triple is y = 1.
    for block in Block:
        def wrong(st, b, block=block):
            nxt = step_block(st, b)
            if b != block:
                return nxt
            return nxt._replace(x=(nxt.x[0] + 2 * st.y[0], nxt.x[1]))
        monkeypatch.setattr(stab, "step_block", wrong)
        assert step_law_counterexample(table) == (
            block, 0, StabTriple((0, 0), (1, 0), (0, 0), 0))


def test_classify_examples():
    assert classify(StabTriple((0, 1), (0, 0), (0, 1), 2)) == ParityClass.T1
    assert classify(StabTriple((0, 0), (0, -1), (0, 1), 2)) == ParityClass.T2
    assert classify(StabTriple((0, 0), (0, 0), (0, 1), 1)) == \
        ParityClass.OTHER
    # The x axis at level -1: refused as step_block refuses it.
    for fn in (classify, parity_code):
        with pytest.raises(ValueError, match="^stabilizer triple level "
                                             "must be >= 0, got -1$"):
            fn(StabTriple((1, 0), (0, 0), (0, 0), -1))


def test_parity_code_reads_the_parities_as_binary():
    # Each of the 64 parity patterns, lifted by seeded even offsets of
    # either sign: the code is the pattern read as binary, x_a highest,
    # and the class is the pattern's row.
    rng = random.Random(71)
    for parity in product((0, 1), repeat=6):
        coeffs = [p + 2 * rng.randint(-9, 9) for p in parity]
        st = StabTriple(*zip(coeffs[::2], coeffs[1::2]), rng.randint(0, 9))
        assert parity_code(st) == int("".join(map(str, parity)), 2)
        assert classify(st) is stab._CLASS_BY_PARITY.get(parity,
                                                         ParityClass.OTHER)


def test_law_walk_stops_at_the_first_broken_transition(table, monkeypatch):
    # From the z axis the classes run OTHER, OTHER, T2, T1, ..., T2, T3:
    # the transitions into levels 3..9 leave a family, so seven are
    # checked.  Level j read as code 0 (OTHER) breaks the j-th; the walk
    # reads one code per level, from level 0 up.
    nf = NormalForm((Block.T, *(Block.HT, Block.PHT) * 4), 0)
    assert law_walk(nf, table)[:2] == (7, True)
    real = stab._code
    for j in range(3, 10):
        monkeypatch.setattr(stab, "_code", lambda *c, j=j, n=count():
                            0 if next(n) == j else real(*c))
        assert law_walk(nf, table)[:2] == (j - 2, False)


def test_unchecked_walk_is_law_walk_on_the_chains_draw(table, r_rules):
    # check_stab_chains' draw for one seed: its unchecked walk is
    # law_walk's, on <H,P> and <R,P>.
    for t in (table, r_rules.table):
        rng = random.Random(20260825)
        for _ in range(300):
            k = rng.randint(2, 30)
            blocks = (rng.choice(normalize.FIRST_BLOCKS),
                      *(rng.choice(normalize.REST_BLOCKS)
                        for _ in range(k - 1)))
            cliff = rng.randrange(t.order)
            assert (stab._law_walk(blocks, cliff, t)
                    == law_walk(NormalForm(blocks, cliff), t)), blocks


def _reference_walk(nf, table, law):
    # law_walk rebuilt from stab_trace: each triple's class read off the
    # bits of its parity_code, and law's class for the block after it.
    def cls(st):
        bits = tuple(map(int, f"{parity_code(st):06b}"))
        return stab._CLASS_BY_PARITY.get(bits, ParityClass.OTHER)
    trace = stab_trace(nf, table)
    checks = 0
    for b, st, nxt in zip(reversed(nf.blocks), trace, trace[1:]):
        family = stab._FAMILY.get(cls(st))
        if family is not None:
            checks += 1
            if cls(nxt) is not law[family][b]:
                return checks, False, trace[-1]
    return checks, True, trace[-1]


def test_law_walk_matches_a_walk_over_stab_trace(table, r_rules,
                                                 monkeypatch):
    # Seeded forms of 0..30 blocks on <H,P> and <R,P>, under the paper's
    # law and under one with family A sent to T1 by HT, which breaks.
    wrong = {**stab._LAW, "A": (ParityClass.T3, ParityClass.T1,
                                ParityClass.T1)}
    rng = random.Random(73)
    breaks = 0
    for law in (stab._LAW, wrong):
        monkeypatch.setattr(stab, "_LAW_BY_CODE", tuple(
            law.get(stab._FAMILY.get(c)) for c in stab._CLASS_BY_CODE))
        for t in (table, r_rules.table):
            for k in [*range(31), *(rng.randint(0, 30) for _ in range(60))]:
                nf = _random_form(rng, k, t)
                want = _reference_walk(nf, t, law)
                assert law_walk(nf, t) == want, nf
                breaks += not want[1]
    assert breaks > 0


def test_fold_over_normal_form(table):
    h_id = table.index[evaluate("H", table.gates)]
    for nf, last in (
            (NormalForm((Block.HT, Block.HT), 0), ((0, 0), (0, -1), (0, 1), 2)),
            (NormalForm((), 0), ((0, 0), (0, 0), (1, 0), 0)),
            (NormalForm((Block.T,), h_id), ((1, 0), (1, 0), (0, 0), 1))):
        assert stab_trace(nf, table)[-1] == StabTriple(*last)

    # The trace holds levels 0..k: the tail's axis, then one step per
    # block from the rightmost block to the leftmost.
    rng = random.Random(61)
    for k in list(range(31)) + [rng.randint(0, 30) for _ in range(100)]:
        nf = _random_form(rng, k, table)
        trace = stab_trace(nf, table)
        assert [st.level for st in trace] == list(range(k + 1))
        assert trace[0] == initial_stab(nf.cliff, table)
        for st, b, nxt in zip(trace, reversed(nf.blocks), trace[1:]):
            assert nxt == step_block(st, b)
    # A bare T block after the leftmost is outside the language.
    for foreign in (NormalForm((Block.T,), table.order),
                    NormalForm((Block.HT, 7), 0),
                    NormalForm((Block.HT, Block.T), 0),
                    NormalForm((Block.T,) * 4, 0)):
        with pytest.raises(ValueError, match="not a normal form"):
            stab_trace(foreign, table)


def test_verify_stabilizes():
    # The state is column 0 of the matrix: |0>, |+> = H|0>, |1> = X|0>.
    z_axis = StabTriple((0, 0), (0, 0), (1, 0), 0)
    x_axis = StabTriple((1, 0), (0, 0), (0, 0), 0)
    assert verify_stabilizes(z_axis, ring.IDENTITY)
    assert verify_stabilizes(x_axis, ring.H)
    assert not verify_stabilizes(z_axis, ring.PAULI_X)
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        verify_stabilizes(z_axis._replace(level=-1), ring.IDENTITY)


def _axis(m, level):
    # The true triple at `level` of the state m|0>, read off m*Z*m^dagger
    # as initial_stab does: e00 is z and e10 is x + i*y, whose numerator
    # is (x_a, x_b + y_b, y_a, y_b - x_b).
    k, *n = (m * ring.PAULI_Z * m.adjoint()).scaled_key()
    za, zb, _, _ = ring._scaled(*n[:4], level - k)
    xa, p, ya, q = ring._scaled(*n[8:12], level - k)
    return StabTriple((xa, (p - q) // 2), (ya, (p + q) // 2), (za, zb), level)


def test_flat_check_matches_stab_matrix_on_chains(table, r_rules):
    # The flat kernel against its specification, M s = s for s column 0 of
    # the chain's matrix and M built by stab_matrix, at levels 0..30 on
    # <H,P> and <R,P>.  The true triple is read off m*Z*m^dagger (on <H,P>
    # it is the fold's too); four wrong ones must fail: a coefficient off
    # by 2, the level off by one, y negated (the mirror state, caught when
    # y != 0: a wrong sign of i*y) and the whole triple negated (the
    # orthogonal state).
    rng = random.Random(59)
    for t in (table, r_rules.table):
        for level in [*range(31)] * 6:
            cliff = rng.randrange(t.order)
            st, m = initial_stab(cliff, t), t.elements[cliff]
            for _ in range(level):
                b = rng.choice(tuple(Block))
                st, m = step_block(st, b), t.block_matrices[b] * m
            true = _axis(m, level)
            assert t is not table or st == true
            axis = rng.randrange(3)
            pair = list(true[axis])
            pair[rng.randrange(2)] += 2
            cands = [(true, True),
                     (true._replace(**{"xyz"[axis]: tuple(pair)}), False),
                     (true._replace(level=level + rng.choice((-1, 1))
                                    if level else 1), False),
                     (StabTriple(*(tuple(-c for c in v) for v in true[:3]),
                                 level), False)]
            if true.y != (0, 0):
                cands.append((true._replace(y=(-true.y[0], -true.y[1])),
                              False))
            for cand, want in cands:
                assert verify_stabilizes(cand, m) is want, (cand, m)
                ms = stab_matrix(cand) * m
                assert ((ms.e00, ms.e10) == (m.e00, m.e10)) is want


def test_stab_matrix_is_hermitian_combination():
    st = StabTriple((1, 2), (0, -1), (3, 0), 2)
    m = stab_matrix(st)
    assert (m.e00, m.e11) == (RingElem(3, 0, 0, 0, 2), RingElem(-3, 0, 0, 0, 2))
    assert (m.e01, m.e10) == (RingElem(1, 3, 0, -1, 2), RingElem(1, 1, 0, -3, 2))
    assert m.adjoint() == m
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        stab_matrix(st._replace(level=-1))


def test_witness_basics(table):
    assert nonidentity_witness(NormalForm((Block.T,), 0), table)
    assert nonidentity_witness(NormalForm((Block.HT, Block.HT), 0), table)
    with pytest.raises(NoTGates):
        nonidentity_witness(NormalForm((), 0), table)
    # T**4 = Z is not the identity, but its block tuple is no normal form,
    # so neither branch certifies it.
    for foreign in (NormalForm((Block.T,) * 4, 0),
                    NormalForm((Block.HT, Block.T), 0)):
        with pytest.raises(ValueError, match="not a normal form"):
            nonidentity_witness(foreign, table)
    # One and two blocks take the matrix branch, three or more the fold;
    # both must agree with the exact matrix.
    rng = random.Random(67)
    for k in ([1, 2] * 50 + list(range(3, 31))
              + [rng.randint(1, 30) for _ in range(100)]):
        nf = _random_form(rng, k, table)
        really = normal_form_matrix(nf, table) != ring.IDENTITY
        assert (nonidentity_witness(nf, table), really) == (True, True), nf


@pytest.mark.parametrize("k", [1, 2, 4])
def test_witness_checks_its_form_once(k, table, monkeypatch):
    # stab holds its own binding of normalize._check_form; a second check
    # could come through either name, so both count.
    calls = []
    real = normalize._check_form

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(normalize, "_check_form", counted)
    monkeypatch.setattr(stab, "_check_form", counted)
    nf = NormalForm((Block.T,) + (Block.HT,) * (k - 1), 5)
    assert nonidentity_witness(nf, table)
    assert calls == ["nonidentity_witness"]


def test_two_block_classes_from_each_axis(table):
    # After two non-bare blocks the class depends only on the starting
    # axis: z-axis starts land in {T1,T2}, x/y starts in {T4,T5}.
    for cliff in range(table.order):
        st0 = initial_stab(cliff, table)
        axis = "z" if st0.z != (0, 0) else "xy"
        for b1, b2 in product((Block.HT, Block.PHT), repeat=2):
            cls = classify(step_block(step_block(st0, b1), b2))
            if axis == "z":
                assert cls in (ParityClass.T1, ParityClass.T2)
            else:
                assert cls in (ParityClass.T4, ParityClass.T5)


def test_two_block_classes_with_leading_bare_t(table):
    # A bare T block can only sit leftmost (applied last); those chains
    # land in the T-step classes instead.
    seen = set()
    for cliff in range(table.order):
        st0 = initial_stab(cliff, table)
        for b1 in (Block.HT, Block.PHT):
            cls = classify(step_block(step_block(st0, b1), Block.T))
            assert cls != ParityClass.OTHER
            seen.add(cls)
    assert seen == {ParityClass.T3, ParityClass.T6}


def test_stab_matrix_scaling_matches_level():
    # component (a, b) at level l denotes (a + b*sqrt2)/sqrt2**l
    st = StabTriple((0, 0), (0, -1), (0, 1), 2)
    m = stab_matrix(st)
    assert m.e00 == ring.SQRT2_INV                 # z = sqrt2/2 = 1/sqrt2
    assert m.e01 == RingElem(0, 0, 1, 0, 1)        # -i*y = i/sqrt2
