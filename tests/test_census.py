"""Normal-form enumeration, counting formulas, brute-force oracles."""

import tracemalloc
from itertools import islice

import pytest

from hptcanon import census, ring, verify
from hptcanon.census import (brute_force_mn, count_closed_form,
                             enumerate_normal_forms, verify_uniqueness)
from hptcanon.group import GroupTable
from hptcanon.normalize import Block, NormalForm, normal_form_matrix
from hptcanon.ring import UMat2


def test_closed_forms():
    # 4224 = 192 * (3*2**3 - 2)
    assert [count_closed_form(n) for n in range(4)] == [192, 768, 1920, 4224]
    assert [count_closed_form(n, exact=True) for n in range(4)] == [
        192, 576, 1152, 2304]


def test_closed_form_consistency():
    for n in range(1, 15):
        assert count_closed_form(n) == count_closed_form(n - 1) \
            + count_closed_form(n, exact=True)


def test_enumeration_equals_nested_loop_reference(table, r_rules):
    # Block tuples layer by layer, each extended by its last block.
    tuples = [()]
    layer = [(b,) for b in (Block.T, Block.HT, Block.PHT)]
    for _ in range(5):
        tuples += layer
        layer = [t + (b,) for t in layer for b in (Block.HT, Block.PHT)]
    for tab in (table, r_rules.table):
        want = [NormalForm(blocks, cliff)
                for blocks in tuples for cliff in range(tab.order)]
        for n in range(6):
            got = list(enumerate_normal_forms(n, tab))
            assert got == want[:count_closed_form(n)]
        assert all(type(nf) is NormalForm and type(nf.cliff) is int
                   and all(type(b) is Block for b in nf.blocks)
                   for nf in got)


def test_enumeration_is_lazy(table):
    # n = 60 means about 7 * 10**20 forms; only the first are ever built.
    assert list(islice(enumerate_normal_forms(60, table), 3)) == [
        NormalForm((), 0), NormalForm((), 1), NormalForm((), 2)]
    assert next(islice(enumerate_normal_forms(60, table), 192, None)) == \
        NormalForm((Block.T,), 0)


def _swap_block_groups(tuples):
    # Layer 1's (HT,) and (PHT,) trade places; counts are kept.
    tuples[2], tuples[3] = tuples[3], tuples[2]


def _duplicate_tuple(tuples):
    # (T,) comes twice and (HT,) not at all; counts are kept.
    tuples[2] = tuples[1]


def _move_into_layer_0(tuples):
    # (T,) comes before the empty tuple; counts are kept.
    tuples.insert(0, tuples.pop(1))


def _drop_tuple(tuples):
    # (T, PHT) is missing, so layer 2 is one tuple short.
    del tuples[5]


# The detail each mutated walk of block tuples gets: the failed condition
# is named.  Per-tail faults cannot arise: the tails are range(order).
_COUNTING_FAILURES = {
    _swap_block_groups: "4224 normal forms, order broken at form 576, "
                        "layers match closed forms",
    _duplicate_tuple: "4224 normal forms, order broken at form 384, "
                      "layers match closed forms",
    _move_into_layer_0: "4224 normal forms, order broken at form 192, "
                        "layers match closed forms",
    _drop_tuple: "4032 normal forms, strictly ordered, layer 2: 960 forms, "
                 "closed form 1152",
}


@pytest.mark.parametrize("mutate", list(_COUNTING_FAILURES))
def test_counting_check_fails_on_misordered_enumeration(table, rules,
                                                        monkeypatch, mutate):
    real = census.block_tuples

    def mutated(n):
        tuples = list(real(n))
        mutate(tuples)
        return iter(tuples)

    monkeypatch.setattr(census, "block_tuples", mutated)
    res = verify.check_counting({"table": table, "rules": rules}, nmax=3)
    assert not res.ok
    assert res.detail == f"n<=3: {_COUNTING_FAILURES[mutate]}"


def _naive_closures(nmax, table):
    # Definitional oracle: plain matrix closure with no layering tricks,
    # no scalar batching, and no dedupe beyond a set of canonical keys.
    # The key sets after 0..nmax rounds, as a list.
    cliffords = table.elements
    current = {m.scaled_key(): m for m in cliffords}
    sets = [set(current)]
    for _ in range(nmax):
        nxt = dict(current)
        for c in cliffords:
            ct = c * ring.T
            for m in current.values():
                prod = ct * m
                nxt.setdefault(prod.scaled_key(), prod)
        current = nxt
        sets.append(set(current))
    return sets


def test_oracle_matches_naive_closure_small(table, r_rules):
    for tab in (table, r_rules.table):
        for n, naive in enumerate(_naive_closures(2, tab)):
            fast, _ = brute_force_mn(n, tab)
            assert fast == naive


def test_oracle_partial_scalar_orbits():
    # <P> holds no scalar but the identity, and every element is
    # diagonal: D is the whole group, with one coset.
    p_table = GroupTable([("P", ring.P)])
    assert p_table.scalar_ids == (0,)
    for n, naive in enumerate(_naive_closures(3, p_table)):
        fast, _ = brute_force_mn(n, p_table)
        assert fast == naive


def test_oracle_no_diagonal_but_identity():
    # <H> = {I, H}: D = {I}, so each orbit is one element.
    h_table = GroupTable([("H", ring.H)])
    assert h_table.order == 2
    for n, naive in enumerate(_naive_closures(3, h_table)):
        fast, _ = brute_force_mn(n, h_table)
        assert fast == naive


def _diagonal_elements(tab):
    return [d for d in tab.elements if census._diagonal_powers(d.scaled_key())]


def test_orbit_is_diagonal_products(table, r_rules):
    for tab in (table, r_rules.table):
        diags = _diagonal_elements(tab)
        assert len(diags) == 32
        pairs = [census._diagonal_powers(d.scaled_key()) for d in diags]
        for m in tab.elements:
            assert census._orbit(m.scaled_key(), pairs) == \
                [(d * m).scaled_key() for d in diags]


@pytest.mark.parametrize("basis", ["HP", "RP", "P"])
def test_orbit_key_is_the_orbits_least_key(basis, table, r_rules):
    tab = {"HP": table, "RP": r_rules.table,
           "P": GroupTable([("P", ring.P)])}[basis]
    diags = _diagonal_elements(tab)
    pairs = [census._diagonal_powers(d.scaled_key()) for d in diags]
    paired = {a: [b for c, b in pairs if c == a] for a, _ in pairs}
    for m in tab.elements:
        key = census._orbit_key(m.scaled_key(), paired)
        assert key == min(census._orbit(m.scaled_key(), pairs))
        for d in diags:
            assert census._orbit_key((d * m).scaled_key(), paired) == key


def _repeat_a_member(orbit):
    # The orbit with its last member replaced by its first: one key short.
    return lambda key, pairs: orbit(key, pairs)[:-1] + orbit(key, pairs)[:1]


@pytest.mark.parametrize("layer", [0, 1])
def test_oracle_refuses_orbits_that_do_not_tile(layer, table, monkeypatch):
    # At the group, a key that is not reduced makes each element its own
    # orbit: 192 orbits of 32 keys cannot tile 192 keys.  At a layer, an
    # orbit that repeats a member adds 31 keys, not 32.
    if layer == 0:
        monkeypatch.setattr(census, "_orbit_key", lambda key, paired: key)
    else:
        monkeypatch.setattr(census, "_orbit", _repeat_a_member(census._orbit))
    with pytest.raises(census.VerificationFailure,
                       match=f"^D-orbits do not tile layer {layer}$"):
        brute_force_mn(2, table)


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_takes_orbit_keys_only_at_layer_0(n, table, monkeypatch):
    # One _orbit_key per group element picks the layer-0 representatives;
    # a later layer's product is dropped or expanded as it comes.
    calls = []
    orbit_key = census._orbit_key

    def counted(key, paired):
        calls.append(key)
        return orbit_key(key, paired)
    monkeypatch.setattr(census, "_orbit_key", counted)
    brute_force_mn(n, table)
    assert len(calls) == table.order


@pytest.fixture(scope="module")
def oracle_runs(table):
    """`brute_force_mn(n)` for n = 0..4, computed once for this module."""
    return [brute_force_mn(n, table) for n in range(0, 5)]


def test_oracle_strict_containment(oracle_runs):
    prev, layers = oracle_runs[0]
    assert layers == (192,)
    for n in range(1, 5):
        cur, layers = oracle_runs[n]
        assert layers == tuple(count_closed_form(k, exact=True)
                               for k in range(n + 1))
        assert prev < cur
        assert len(cur) - len(prev) == count_closed_form(n, exact=True)
        prev = cur


def test_exact_layers_closed_under_inverse(oracle_runs):
    prev = set()
    for n, (cur, _) in enumerate(oracle_runs[:4]):
        exact = cur - prev
        assert len(exact) == count_closed_form(n, exact=True)
        for key in exact:
            inv_key = UMat2._raw(key).adjoint().scaled_key()
            assert inv_key in exact
        prev = cur


def test_oracle_limit(table):
    # The library sets no depth limit; the CLI caps `count --oracle`.
    big, _ = brute_force_mn(5, table)
    assert len(big) == count_closed_form(5)


def test_verify_uniqueness_with_oracle(table):
    for n, size in enumerate([192, 768, 1920, 4224]):
        assert verify_uniqueness(n, table) == size
    assert verify_uniqueness(2, table, with_oracle=False) == 1920


@pytest.mark.parametrize("basis", ["HP", "RP"])
def test_verify_uniqueness_certifies_ten_blocks(basis, table, r_rules):
    tab = table if basis == "HP" else r_rules.table
    assert verify_uniqueness(10, tab, with_oracle=False) == \
        count_closed_form(10)


@pytest.mark.parametrize("gens, order", [
    ([("P", ring.P)], 4),
    # T*<H,P>*T_adj: 192 elements, but T*H*T_adj is not a Clifford.
    ([("A", ring.T * ring.H * ring.T.adjoint()), ("P", ring.P)], 192),
], ids=["order-4", "not-clifford"])
def test_verify_uniqueness_refuses_a_table_that_is_not_the_cliffords(
        gens, order):
    tab = GroupTable(gens)
    assert tab.order == order
    with pytest.raises(ValueError, match="^verify_uniqueness\\(\\) table "
                       "must be the 192-element Clifford group$"):
        verify_uniqueness(1, tab, with_oracle=False)


def test_verify_uniqueness_certifies_the_t_count(table, monkeypatch):
    # (T,) gets the matrix of (T, HT): a coset of its own, but its Bloch
    # sde is 2, not its one block.
    real = census._blocks_matrix

    def two_ts(blocks, tab):
        return real((Block.T, Block.HT) if blocks == (Block.T,) else blocks,
                    tab)

    monkeypatch.setattr(census, "_blocks_matrix", two_ts)
    with pytest.raises(census.VerificationFailure) as failure:
        verify_uniqueness(1, table, with_oracle=False)
    assert str(failure.value) == (
        f"T-count certificate fails: blocks {(Block.T,)} have Bloch sde 2")


@pytest.mark.parametrize("basis", ["HP", "RP"])
def test_a_block_tuples_coset_has_order_distinct_keys(basis, table, r_rules):
    # The step that lets verify_uniqueness keep one key per block tuple: B
    # is invertible, so B*g runs through order distinct keys.
    tab = table if basis == "HP" else r_rules.table
    for blocks in census.block_tuples(5):
        m = normal_form_matrix(NormalForm(blocks, 0), tab)
        assert len(set(tab.right_products(m.scaled_key()))) == tab.order


def test_verify_uniqueness_keeps_one_key_per_block_tuple(table):
    verify_uniqueness(6, table, with_oracle=False)
    tracemalloc.start()
    try:
        verify_uniqueness(6, table, with_oracle=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_verify_uniqueness_fails_on_a_shared_matrix(table, monkeypatch):
    # Every block tuple gets the same matrix, so the forms T|g and |g
    # collide.
    monkeypatch.setattr(census, "_blocks_matrix",
                        lambda blocks, tab: ring.IDENTITY)
    with pytest.raises(census.VerificationFailure,
                       match="^distinct normal forms share a matrix: "):
        verify_uniqueness(1, table, with_oracle=False)


def test_verify_uniqueness_finds_a_collision_inside_a_coset(table,
                                                            monkeypatch):
    # (T,) gets the matrix H, so its forms H*g are the forms |g in
    # another order.  H*g and g differ for each g, so comparing the keys
    # of tail 0 alone would miss it; the cosets' minimum keys are equal.
    real = census._blocks_matrix
    h_id = table.gen_ids["H"]

    def h_for_t(blocks, tab):
        return ring.H if blocks == (Block.T,) else real(blocks, tab)

    monkeypatch.setattr(census, "_blocks_matrix", h_for_t)
    keys = [m.scaled_key() for m in table.elements]
    low = keys.index(min(keys))
    with pytest.raises(census.VerificationFailure) as failure:
        verify_uniqueness(1, table, with_oracle=False)
    assert str(failure.value) == (
        "distinct normal forms share a matrix: "
        f"{NormalForm((), low)} vs "
        f"{NormalForm((Block.T,), table.mul[table.inv[h_id]][low])}")


# The zero matrix: a key that no form and no oracle step can produce.
_FOREIGN = (0,) * 17


def test_verify_uniqueness_fails_when_the_oracle_differs(table, monkeypatch):
    # The oracle's set one key short fails a block tuple's superset check,
    # one key extra only the final count, one key swapped only the
    # superset check.  The message names a key of each side, or None.
    oracle = census.brute_force_mn
    low = min(oracle(1, table)[0])
    for short, extra in ((True, False), (False, True), (True, True)):
        def changed(n, tab, short=short, extra=extra):
            keys, layers = oracle(n, tab)
            if short:
                keys = keys - {low}
            if extra:
                keys = keys | {_FOREIGN}
            return keys, layers

        monkeypatch.setattr(census, "brute_force_mn", changed)
        with pytest.raises(census.VerificationFailure) as failure:
            verify_uniqueness(1, table)
        assert str(failure.value) == (
            "enumeration/oracle sets differ: enumerated-only key "
            f"{low if short else None}, oracle-only key "
            f"{_FOREIGN if extra else None}")
