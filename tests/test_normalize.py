"""Parsing, evaluation, normalization, rendering, equivalence, inversion."""

import copy
import hashlib
import random
import re
from itertools import product

import pytest

from hptcanon import census, ring
from hptcanon import normalize as normalize_mod
from hptcanon.normalize import (Block, NormalForm, ParseError, equivalent,
                                evaluate, invert, normal_form_matrix,
                                normalize, parse, render, t_count)
from hptcanon.stab import stab_trace


def test_parse_plain_and_whitespace():
    assert parse("HPP") == "HPP"
    assert parse("H P\tT") == "HPT"
    assert parse("") == ""


def test_parse_accepts_rendered_forms():
    assert parse("T|I") == "T"
    assert parse("PHT.HT|HP") == "PHTHTHP"


def test_parse_rejects_everything_else():
    with pytest.raises(ParseError) as err:
        parse("HXT")
    assert err.value.position == 1
    assert err.value.character == "X"
    with pytest.raises(ParseError) as err:
        parse("hpt")
    assert err.value.position == 0


def _parse_reference(text):
    # Per-character reference parser: keep H/P/T, skip I, '.', '|' and
    # whitespace, and reject the first other character.
    gates = []
    for pos, ch in enumerate(text):
        if ch in "HPT":
            gates.append(ch)
        elif ch == "I" or ch.isspace() or ch in ".|":
            continue
        else:
            raise ParseError(pos, ch)
    return "".join(gates)


def _outcome(fn, text):
    try:
        return "ok", fn(text)
    except ParseError as err:
        return "error", err.position, err.character


def test_parse_matches_per_character_reference():
    spaces = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
    assert len(spaces) > 20
    chars = spaces + [chr(cp) for cp in range(0x3100)]
    for ch in chars:
        for context in ("H?T", "?", "PT|?", "\tI. ?"):
            text = context.replace("?", ch)
            assert _outcome(parse, text) == _outcome(_parse_reference,
                                                     text), repr(text)


def test_evaluate():
    assert evaluate("TT") == ring.P
    assert evaluate("") == ring.IDENTITY
    assert evaluate("HHP") == evaluate("PHH")


def test_evaluate_rejects_unknown_gate():
    with pytest.raises(ValueError, match="gate 'X' not in this basis"):
        evaluate("HXT")
    with pytest.raises(ValueError, match="gate 'H' not in this basis"):
        evaluate("TH", {"T": ring.T})
    with pytest.raises(TypeError, match="gate 'X' must be a UMat2, not int"):
        evaluate("X", {"X": 3})


def test_evaluate_reads_the_gates_mapping_at_each_call(table):
    # A caller's later change to its own mapping is seen, and a matrix
    # equal to a ring gate but not the same object takes the generic
    # product, with the same result.
    gates = {"H": ring.H, "P": ring.P, "T": ring.T}
    assert evaluate("THT", gates) == evaluate("THT")
    gates["T"] = ring.P
    assert evaluate("THT", gates) == evaluate("PHP")
    gates["T"] = ring.UMat2(ring.ONE, ring.ZERO, ring.ZERO, ring.OMEGA)
    assert evaluate("THT", gates) == evaluate("THT")
    del gates["T"]
    with pytest.raises(ValueError, match="gate 'T' not in this basis"):
        evaluate("THT", gates)
    # The shared gate sets cannot be changed under evaluate.
    for shared in (ring.GATES, table.gates):
        with pytest.raises(TypeError):
            shared["T"] = ring.P


def test_evaluate_takes_the_generic_product_for_equal_gate_objects():
    # Fresh matrices equal to H, P and T are not the ring's objects, so
    # every gate takes ring._mat_mul instead of a T, H or P branch.
    fresh = {ch: ring.UMat2(*m.entries) for ch, m in ring.GATES.items()}
    assert fresh == dict(ring.GATES)
    assert not any(fresh[ch] is m for ch, m in ring.GATES.items())
    rng = random.Random(67)
    words = ["".join(w) for n in range(7) for w in product("HPT", repeat=n)]
    words += ["".join(rng.choice("HPT") for _ in range(500)) for _ in range(3)]
    for w in words:
        assert evaluate(w, fresh) == evaluate(w), w


def _oracle_key(word, gates):
    # Independent route: fold census's flat product over the gate keys.
    key = ring.IDENTITY.scaled_key()
    for ch in word:
        key = census._flat_mul(key, gates[ch].scaled_key())
    return key


def test_evaluate_matches_flat_oracle_on_all_words_up_to_eight():
    # Grow the oracle keys one letter at a time: one flat product a word.
    frontier = {"": ring.IDENTITY.scaled_key()}
    checked = 0
    for _ in range(9):
        nxt = {}
        for w, key in frontier.items():
            assert evaluate(w).scaled_key() == key, w
            checked += 1
            for g in "HPT":
                nxt[w + g] = census._flat_mul(key, ring.GATES[g].scaled_key())
        frontier = nxt
    assert checked == 9841


def test_evaluate_matches_flat_oracle_on_long_words():
    rng = random.Random(67)
    for _ in range(3):
        w = "".join(rng.choice("HPT") for _ in range(4000))
        key = evaluate(w).scaled_key()
        assert key == _oracle_key(w, ring.GATES)
        assert key[0] > 50      # the sqrt2 exponent grows with the word


_S = 2 ** -0.5
_FLOAT_GATES = {"R": [[_S, _S], [-_S, _S]], "P": [[1, 0], [0, 1j]],
                "T": [[1, 0], [0, complex(_S, _S)]]}


def _float_product(word):
    m = [[1, 0], [0, 1]]
    for ch in word:
        g = _FLOAT_GATES[ch]
        m = [[m[i][0] * g[0][j] + m[i][1] * g[1][j] for j in range(2)]
             for i in range(2)]
    return m


def test_evaluate_alternate_basis_matches_float_shadow():
    # R is neither H nor diag(1, omega**j), so it takes the generic
    # product; P and T keep their specialised steps.
    gates = {"R": ring.R, "P": ring.P, "T": ring.T}
    rng = random.Random(71)
    words = ["".join(w) for k in range(0, 6) for w in product("RPT", repeat=k)]
    words += ["".join(rng.choice("RPT") for _ in range(rng.randrange(6, 80)))
              for _ in range(300)]
    for w in words:
        got = evaluate(w, gates)
        for row, want in zip(got.to_complex(), _float_product(w)):
            for x, y in zip(row, want):
                assert abs(x - y) < 1e-9, w
        assert got.scaled_key() == _oracle_key(w, gates)


def test_evaluate_flushes_its_run_at_a_non_unitary_gate():
    # N is not unitary, so evaluate cannot rebuild row 1 across it: each
    # N must close the run of ring gates before it, and runs may be empty
    # (N first, last or twice in a row).
    gates = {**ring.GATES, "N": ring.UMat2(ring.ONE, ring.ONE, ring.ZERO,
                                           ring.ONE)}
    rng = random.Random(73)
    words = ["N", "NN", "HN", "NH", "TNNT", "HTNPHNNTH"]
    words += ["".join(rng.choices("HPTN", weights=(3, 3, 3, 1),
                                  k=rng.randrange(0, 120)))
              for _ in range(300)]
    for w in words:
        assert evaluate(w, gates).scaled_key() == _oracle_key(w, gates), w


def test_evaluate_dispatches_on_gate_objects_not_letters():
    # The determinant exponent follows the matrix a letter maps to: X, Y
    # and Z take the T, H and P steps.
    gates = {"X": ring.T, "Y": ring.H, "Z": ring.P}
    rng = random.Random(79)
    words = ["".join(w) for n in range(6) for w in product("XYZ", repeat=n)]
    words += ["".join(rng.choices("XYZ", k=rng.randrange(6, 300)))
              for _ in range(100)]
    for w in words:
        assert evaluate(w, gates).scaled_key() == _oracle_key(w, gates), w


def test_rules_carry_their_table_and_refuse_another(table, rules, r_rules):
    r_table = r_rules.table
    # A table with rules built for another table is refused by name.
    for name, call in [
        ("normalize", lambda: normalize("RPTRTPRT", r_table, rules)),
        ("invert", lambda: invert("HT", table, r_rules)),
        ("equivalent", lambda: equivalent("HT", "TH", r_table, rules)),
        ("t_count", lambda: t_count("HT", table, r_rules)),
    ]:
        with pytest.raises(ValueError, match=rf"^{name}\(\).*rules\.table"):
            call()
    # Rules alone carry their table: every entry point reads the words in
    # the <R,P> basis, never in the default tables.
    gates = {"R": ring.R, "P": ring.P, "T": ring.T}
    words = ["".join(w) for k in range(0, 5) for w in product("RPT", repeat=k)]
    for w in words:
        m = evaluate(w, gates)
        nf = normalize(w, rules=r_rules)
        assert normal_form_matrix(nf, r_table) == m, w
        assert t_count(w, rules=r_rules) == len(nf.blocks)
        assert equivalent(w, "PPPP" + w, rules=r_rules)
        assert not equivalent(w, w + "T", rules=r_rules)
        inv = normal_form_matrix(invert(w, rules=r_rules), r_table)
        assert inv * m == ring.IDENTITY, w


def test_rules_alone_and_no_arguments_skip_the_resolver(monkeypatch,
                                                       table, rules):
    want = [normalize("HTPHT", table, rules), t_count("HTPHT", table, rules),
            equivalent("HTT", "HP", table, rules),
            invert("HTPHT", table, rules)]

    def resolver_called(*args):
        raise AssertionError(f"_rules{args[:1]} was called")

    # Rules alone take the entry points' inline guard, never _rules.
    with monkeypatch.context() as patch:
        patch.setattr(normalize_mod, "_rules", resolver_called)
        assert [normalize("HTPHT", rules=rules),
                t_count("HTPHT", rules=rules),
                equivalent("HTT", "HP", rules=rules),
                invert("HTPHT", rules=rules)] == want
    # No arguments: _rules hands out the cached default rules.
    assert [normalize("HTPHT"), t_count("HTPHT"), equivalent("HTT", "HP"),
            invert("HTPHT")] == want


def test_normalize_examples(table, rules):
    for word, blocks, tail in (("HPPHT", (Block.T,), "HPHPPPH"),
                               ("PPHT", (Block.HT,), "HPHPPPH"),
                               ("TT", (), "P"), ("HPH", (), "HPH"),
                               ("", (), "")):
        assert normalize(word, table, rules) == NormalForm(
            blocks, table.index[evaluate(tail, table.gates)])


def test_normal_form_shape(table, rules):
    rng = random.Random(41)
    for _ in range(500):
        w = "".join(rng.choice("HPT") for _ in range(rng.randrange(0, 40)))
        nf = normalize(w, table, rules)
        assert all(b in (Block.HT, Block.PHT) for b in nf.blocks[1:])
        assert 0 <= nf.cliff < table.order


def test_render(table):
    assert render(NormalForm((Block.T,), 0), table) == "T|I"
    p_id = table.index[evaluate("P", table.gates)]
    h_id = table.index[evaluate("H", table.gates)]
    assert render(NormalForm((), p_id), table) == "|P"
    assert render(NormalForm((Block.PHT, Block.HT), h_id), table) == "PHT.HT|H"


@pytest.mark.parametrize("density", [0.05, 0.33, 0.70])
def test_long_words_agree_with_evaluate_and_invert(table, rules, density):
    rng = random.Random(int(density * 100))
    w = "".join("T" if rng.random() < density else rng.choice("HP")
                for _ in range(20_000))
    nf = normalize(w, table, rules)
    assert all(b is Block(b) for b in nf.blocks)
    assert normal_form_matrix(nf, table) == evaluate(w)
    assert t_count(w, table, rules) == len(nf.blocks)
    back = render(invert(w, table, rules), table)
    assert render(normalize(parse(w + back), table, rules), table) == "|I"


@pytest.mark.parametrize("nf", [
    NormalForm((), 500), NormalForm((), 192), NormalForm((), -1),
    NormalForm((Block.HT, 7), 0), NormalForm((-1,), 0),
])
def test_foreign_normal_form_is_a_named_value_error(table, nf):
    with pytest.raises(ValueError, match="not a normal form of this table"):
        normal_form_matrix(nf, table)
    with pytest.raises(ValueError, match="not a normal form of this table"):
        render(nf, table)
    with pytest.raises(ValueError, match="not a normal form of this table"):
        stab_trace(nf, table)


def test_plain_int_blocks_are_accepted(table):
    nf = NormalForm((0, 2), 3)
    as_blocks = NormalForm((Block.T, Block.PHT), 3)
    assert render(nf, table) == render(as_blocks, table)
    assert normal_form_matrix(nf, table) == normal_form_matrix(as_blocks,
                                                               table)


def test_normal_form_matrix_agrees_with_render(table, rules):
    rng = random.Random(47)
    for _ in range(300):
        w = "".join(rng.choice("HPT") for _ in range(rng.randrange(0, 35)))
        nf = normalize(w, table, rules)
        assert normal_form_matrix(nf, table) == evaluate(parse(render(nf,
                                                                      table)))


def _block_product_fold(nf, table):
    # Generic reference: one ring product per block matrix S*T (the
    # table's block_matrices), then the Clifford tail.
    m = ring.IDENTITY
    for b in nf.blocks:
        m = m * table.block_matrices[b]
    return m * table.elements[nf.cliff]


def test_normal_form_matrix_matches_block_product_fold(table, r_rules):
    rng = random.Random(53)
    for tab in (table, r_rules.table):
        for n in range(31):
            for _ in range(4):
                blocks = tuple(rng.choice((Block.T, Block.HT, Block.PHT))
                               for _ in range(n))
                nf = NormalForm(blocks, rng.randrange(tab.order))
                assert normal_form_matrix(nf, tab) == \
                    _block_product_fold(nf, tab), nf


def test_equivalent(table, rules):
    assert equivalent("HHP", "PHH", table, rules)
    assert equivalent("HPPHT", "THPHPPPH", table, rules)
    assert not equivalent("T", "P", table, rules)


def test_equivalence_matches_matrix_equality(table, rules):
    rng = random.Random(53)
    words = ["".join(rng.choice("HPT") for _ in range(rng.randrange(0, 25)))
             for _ in range(400)]
    by_key = {}
    for w in words:
        by_key.setdefault(evaluate(w).scaled_key(), []).append(w)
    # within a bucket everything is equivalent; across buckets nothing is
    buckets = list(by_key.values())
    for bucket in buckets:
        for other in bucket[1:]:
            assert equivalent(bucket[0], other, table, rules)
    for i in range(len(buckets) - 1):
        assert not equivalent(buckets[i][0], buckets[i + 1][0], table, rules)


def test_t_count_basics(table, rules):
    assert t_count("TT", table, rules) == 0
    assert t_count("T", table, rules) == 1


def test_t_count_ththt_by_membership_oracle(table, rules):
    # Independent route: the brute-force closure sets decide the minimal
    # T budget that can reach the matrix, without touching the normalizer.
    target = evaluate("THTHT").scaled_key()
    m2, _ = census.brute_force_mn(2, table)
    m3, _ = census.brute_force_mn(3, table)
    assert target not in m2
    assert target in m3
    assert t_count("THTHT", table, rules) == 3


def test_t_count_never_exceeds_t_letters(table, rules):
    rng = random.Random(59)
    for _ in range(2000):
        w = "".join(rng.choice("HPT") for _ in range(rng.randrange(0, 45)))
        assert t_count(w, table, rules) <= w.count("T")


def test_invert_examples(table, rules):
    nf = invert("H", table, rules)
    assert nf == NormalForm((), table.index[evaluate("H", table.gates)])

    nf = invert("T", table, rules)
    assert nf.t_count == 1
    assert normal_form_matrix(nf, table) * ring.T == ring.IDENTITY

    nf = invert("HT", table, rules)
    assert nf.t_count == 1
    assert normal_form_matrix(nf, table) * evaluate("HT") == ring.IDENTITY


# Each circuit entry point, with the circuit in the slot under test.
_CIRCUIT_CALLS = (
    lambda c, rules: normalize(c, rules=rules),
    lambda c, rules: t_count(c, rules=rules),
    lambda c, rules: equivalent(c, "HT", rules=rules),
    lambda c, rules: equivalent("HT", c, rules=rules),
    lambda c, rules: invert(c, rules=rules),
)


@pytest.mark.parametrize("circuit, basis, letter", [
    ("HXT", "HP", "X"), ("é", "HP", "é"), ("中", "HP", "中"),
    ("TĀ", "HP", "Ā"), ("\x00", "HP", "\x00"), ("\x01", "HP", "\x01"),
    ("\x02", "HP", "\x02"), ("HT\xff", "HP", "\xff"), ("H", "RP", "H"),
])
def test_a_letter_outside_the_basis_is_a_named_value_error(
        rules, r_rules, circuit, basis, letter):
    # Code characters (T is chr(0), generator i is chr(i + 1)), a latin-1
    # letter past the codes and letters that latin-1 cannot encode are all
    # refused, never read as a gate.
    basis_rules = rules if basis == "HP" else r_rules
    for call in _CIRCUIT_CALLS:
        with pytest.raises(ValueError, match=re.escape(
                f"gate {letter!r} not in this basis")):
            call(circuit, basis_rules)


class _CountingRow:
    def __init__(self, row, hits):
        self._row = row
        self._hits = hits

    def __getitem__(self, i):
        self._hits.append(1)
        return self._row[i]


class _CountingGrid:
    def __init__(self, rows, hits):
        self._rows = rows
        self._hits = hits

    def __getitem__(self, i):
        return _CountingRow(self._rows[i], self._hits)


def test_lookup_bound_is_two_per_gate(table, rules):
    # Count logical lookups (generator step, merge, rule) through
    # proxy tables; the push/pop argument bounds them by 2n.
    rng = random.Random(61)
    cases = ["", "T", "TT", "TTTT", "HPPHT", "T" * 40]
    cases += ["".join(rng.choice("HPT") for _ in range(rng.randrange(1, 60)))
              for _ in range(200)]
    for w in cases:
        hits = []
        counting = copy.copy(rules)
        counting.steps = (None, *(_CountingRow(row, hits)
                                  for row in rules.steps[1:]))
        counting.slots = _CountingRow(rules.slots, hits)
        counting.merge = _CountingGrid(rules.merge, hits)
        nf = normalize(w, table, counting)
        assert nf == normalize(w, table, rules)
        assert len(hits) <= 2 * len(w)


def _corpus(rng, letters):
    # Three T densities at lengths 0-64, 10**4 and 1.6 * 10**5, then T**k.
    words = []
    for density in (0.05, 0.33, 0.70):
        rest = (1 - density) / 2
        for n in [*range(65), 10_000, 160_000]:
            words.append("".join(rng.choices(
                letters + "T", weights=(rest, rest, density), k=n)))
    return words + ["T" * k for k in range(18)]


def test_answers_match_the_recorded_corpus_digest(rules, r_rules):
    # sha256 of every answer over seeded corpora on <H,P> and <R,P>,
    # recorded before the fold read T*T as P and letters as byte codes.
    digest = hashlib.sha256()
    for seed, basis_rules in ((83, rules), (89, r_rules)):
        table = basis_rules.table
        prev = ""
        for w in _corpus(random.Random(seed), "".join(table.gen_names)):
            digest.update(("%s %d %d %d %s\n" % (
                render(normalize(w, rules=basis_rules), table),
                t_count(w, rules=basis_rules),
                equivalent(w, prev, rules=basis_rules),
                equivalent(w, "T" * 8 + w, rules=basis_rules),
                render(invert(w, rules=basis_rules), table))).encode())
            prev = w
    assert digest.hexdigest() == ("fdffcd77319002d32812ea6642d11ca2"
                                  "da271780129bab2873f93874791cbb84")


def test_fold_is_unchanged_by_writing_p_as_tt(rules, r_rules):
    rng = random.Random(97)
    for basis_rules in (rules, r_rules):
        letters = "".join(basis_rules.table.gen_names) + "T"
        for _ in range(400):
            w = "".join(rng.choices(letters, k=rng.randrange(0, 60)))
            tt = "".join("TT" if ch == "P" and rng.random() < 0.5 else ch
                         for ch in w)
            assert normalize_mod._fold(w, basis_rules) == \
                normalize_mod._fold(tt, basis_rules), (w, tt)
