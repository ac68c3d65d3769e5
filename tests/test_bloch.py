"""Exact Bloch matrices and the Clifford coset key read off them."""

import random

import pytest

from hptcanon import census, ring
from hptcanon.bloch import bloch, coset_key
from hptcanon.normalize import NormalForm, evaluate, normal_form_matrix

# The Pauli matrices X, Y, Z as nested lists of complex numbers.
_PAULIS = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])


def _mul(x, y):
    return [[sum(x[i][t] * y[t][j] for t in range(2)) for j in range(2)]
            for i in range(2)]


def _float_bloch(m):
    # R_ij = tr(sigma_i * U * sigma_j * U_adj) / 2, in floats.
    u = m.to_complex()
    u_adj = [[u[j][i].conjugate() for j in range(2)] for i in range(2)]
    return [[(sum(_mul(_mul(_PAULIS[i], u), _mul(_PAULIS[j], u_adj))[t][t]
                  for t in range(2)) / 2).real
             for j in range(3)] for i in range(3)]


def _entries(key):
    # R as floats from its flat key: column j, row i is pair 3*j + i.
    e, *flat = key
    return [[(flat[6 * j + 2 * i] + flat[6 * j + 2 * i + 1] * 2 ** 0.5)
             / 2 ** (e / 2) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("basis", ["HP", "RP"])
def test_bloch_matches_the_float_bloch_matrix(basis, table, r_rules):
    tab = table if basis == "HP" else r_rules.table
    letters = "".join(tab.gates)
    rng = random.Random(3201)
    for _ in range(200):
        word = "".join(rng.choice(letters)
                       for _ in range(rng.randrange(0, 40)))
        m = evaluate(word, tab.gates)
        key = bloch(m.scaled_key())
        want = _float_bloch(m)
        got = _entries(key)
        assert all(abs(got[i][j] - want[i][j]) < 1e-9
                   for i in range(3) for j in range(3)), word
        # e is least: some A is odd, or e is 0.
        assert key[0] == 0 or any(a & 1 for a in key[1::2]), word


@pytest.mark.parametrize("basis", ["HP", "RP"])
def test_a_clifford_has_a_signed_permutation(basis, table, r_rules):
    tab = table if basis == "HP" else r_rules.table
    for m in tab.elements:
        e, *flat = bloch(m.scaled_key())
        assert e == 0 and all(b == 0 for b in flat[1::2])
        assert sorted(map(abs, flat[::2])) == [0] * 6 + [1] * 3
    assert bloch(ring.T.scaled_key())[0] == 1


@pytest.mark.parametrize("basis", ["HP", "RP"])
def test_coset_key_is_one_key_over_every_tail(basis, table, r_rules):
    tab = table if basis == "HP" else r_rules.table
    keys = set()
    for blocks in census.block_tuples(4):
        m = normal_form_matrix(NormalForm(blocks, 0), tab)
        coset = set(map(coset_key, tab.right_products(m.scaled_key())))
        assert len(coset) == 1, blocks
        keys |= coset
    assert len(keys) == 46
