"""Mutation gate: every row below is a small wrong edit of the source, and
the test suite must fail on each one.

    python tools/mutants.py

Run it from anywhere; it takes no arguments.  It first runs the suite on
an unmutated copy, which must pass.  Then, for each row, it copies src/,
tests/ and pyproject.toml into a fresh temporary directory (without
__pycache__), replaces the row's old text, which must occur exactly once
in its file, by the new text, and runs `python -m pytest -x -q` there.
A mutant is killed when pytest fails.  One line per row reports killed
or SURVIVED, the seconds taken and, for a killed mutant, the first test
that failed.  The exit status is 1 when the clean copy fails, any row's
old text does not occur exactly once, or any mutant survives; otherwise
0.

A row names the mutant by the claim it breaks.  Only mutants that change
behaviour belong here: an equivalent mutant (one no test can tell from
the original) survives by right, so it is recorded in CHANGES.md
instead.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = (
    # ring: the exact core.
    Mutant("_gate_mul: the P step rotates column 1 by i",
           "src/hptcanon/ring.py",
           "return (k, a0, b0, c0, d0, -c1, -d1, a1, b1,",
           "return (k, a0, b0, c0, d0, c1, -d1, a1, b1,"),
    Mutant("_gate_mul: the H step reduces by sqrt2",
           "src/hptcanon/ring.py",
           "    while k and not ((a0 ^ c0) | (b0 ^ d0) | (a1 ^ c1) | (b1 ^ d1)",
           "    while False and not ((a0 ^ c0) | (b0 ^ d0) | (a1 ^ c1) | (b1 ^ d1)"),
    Mutant("H has -1/sqrt2 in e11",
           "src/hptcanon/ring.py",
           "H = UMat2(SQRT2_INV, SQRT2_INV, SQRT2_INV, RingElem(-1, 0, 0, 0, 1))",
           "H = UMat2(SQRT2_INV, SQRT2_INV, SQRT2_INV, SQRT2_INV)"),
    Mutant("_reduced: sqrt2 divides only when a = c and b = d (mod 2)",
           "src/hptcanon/ring.py",
           "while k > 0 and (a - c) % 2 == 0 and (b - d) % 2 == 0:",
           "while k > 0 and (a - c) % 2 == 0:"),
    Mutant("_scaled: the odd sqrt2 step",
           "src/hptcanon/ring.py",
           "a, b, c, d = b - d, a + c, b + d, c - a",
           "a, b, c, d = b + d, a + c, b + d, c - a"),
    Mutant("_mat_mul: omega**4 = -1 folds with a sign",
           "src/hptcanon/ring.py",
           "e0 = p0*a0 - q0*d0",
           "e0 = p0*a0 + q0*d0"),
    # bloch: the exact Bloch matrix and the coset key.
    Mutant("bloch: the Y column's x is -Im(d*conj(a) - c*conj(b))",
           "src/hptcanon/bloch.py",
           "-y1 - y3, -y2, y1 - y3, y0,",
           "y1 + y3, -y2, y1 - y3, y0,"),
    Mutant("bloch: the entries share the least sqrt2 exponent",
           "src/hptcanon/bloch.py",
           "while e > 0 and not any(A & 1 for A in flat[::2]):",
           "while False and not any(A & 1 for A in flat[::2]):"),
    Mutant("coset_key signs each column by its first nonzero numerator",
           "src/hptcanon/bloch.py",
           "if next((v for v in col if v), 0) < 0:",
           "if False:"),
    Mutant("coset_key sorts the columns",
           "src/hptcanon/bloch.py",
           "    cols.sort()\n",
           ""),
    # group: closure, derived tables and the table guard.
    Mutant("the table guard refuses a table that is not a GroupTable",
           "src/hptcanon/group.py",
           "    if not isinstance(table, GroupTable):\n",
           "    if False:\n"),
    Mutant("right_products walks from each element's parent",
           "src/hptcanon/group.py",
           "append(_gate_mul(out[p], gate))",
           "append(_gate_mul(out[-1], gate))"),
    Mutant("a block matrix is S*T, not off by a phase",
           "src/hptcanon/group.py",
           "elements[sid] * t_mat for sid in syndrome_ids)",
           "elements[sid] * t_mat * ring.UMat2(ring.OMEGA, ring.ZERO, "
           "ring.ZERO, ring.OMEGA) for sid in syndrome_ids)"),
    Mutant("one letter_step entry is elements[i] * generator",
           "src/hptcanon/group.py",
           "self.letter_step = dict(zip(gen_names, gen_step))",
           "self.letter_step = dict(zip(gen_names, [gen_step[0][:5] + "
           "gen_step[0][6:7] + gen_step[0][6:], *gen_step[1:]]))"),
    Mutant("GroupTable refuses a generator name that is not a str",
           "src/hptcanon/group.py",
           "if not isinstance(name, str):",
           "if False:"),
    Mutant("GroupTable refuses the generator name T",
           "src/hptcanon/group.py",
           '            if name == "T":\n',
           "            if False:\n"),
    Mutant("GroupTable refuses a name that parse drops",
           "src/hptcanon/group.py",
           '            if name in "I.|" or name.isspace():\n',
           '            if name in "I.":\n'),
    Mutant("GroupTable refuses a repeated generator name",
           "src/hptcanon/group.py",
           "if any(name == other for other, _ in gens[:pos]):",
           "if False:"),
    Mutant("a mul row is read off its element's parent's row",
           "src/hptcanon/group.py",
           "mul.append(itemgetter(*left[last[i]])(mul[parent[i]]))",
           "mul.append(itemgetter(*left[last[i]])(mul[i - 1]))"),
    Mutant("a mul row steps by its element's last generator",
           "src/hptcanon/group.py",
           "mul.append(itemgetter(*left[last[i]])(mul[parent[i]]))",
           "mul.append(itemgetter(*left[0])(mul[parent[i]]))"),
    Mutant("the left-step walk reads each element's parent",
           "src/hptcanon/group.py",
           "row.append(gen_step[last[j]][row[parent[j]]])",
           "row.append(gen_step[last[j]][row[j - 1]])"),
    Mutant("an inverse steps by its element's last generator",
           "src/hptcanon/group.py",
           "inv.append(mul[gen_inv[last[i]]][inv[parent[i]]])",
           "inv.append(mul[gen_inv[0]][inv[parent[i]]])"),
    Mutant("t_conj turns e01 by a unit, not a bare shift",
           "src/hptcanon/group.py",
           "b1, c1, d1, -a1, -d2",
           "b1, c1, d1, a1, -d2"),
    Mutant("t_conj turns e01 by omega**-1 and e10 by omega",
           "src/hptcanon/group.py",
           "ids.get((k, a0, b0, c0, d0, b1, c1, d1, -a1, -d2, a2, b2, c2,",
           "ids.get((k, a0, b0, c0, d0, -d1, a1, b1, c1, b2, c2, d2, -a2,"),
    Mutant("an element in two syndrome cosets has no slot",
           "src/hptcanon/group.py",
           "matches[0] if len(matches) == 1 else None",
           "matches[0] if matches else None"),
    Mutant("quotient_profile reports an abelian quotient",
           "src/hptcanon/group.py",
           "abelian = all(qmul(a, b) == qmul(b, a) for a in reps for b in rep_set)",
           "abelian = False"),
    # rules: derivation and the fixture check.
    Mutant("one w1_ids entry is the derived W1",
           "src/hptcanon/rules.py",
           "self.w1_ids = tuple(w1_ids)",
           "self.w1_ids = (w1_ids[0], w1_ids[2], *w1_ids[2:])"),
    Mutant("RuleTable refuses a table that is not a GroupTable",
           "src/hptcanon/rules.py",
           '        _check_table(table, "RuleTable")\n',
           ""),
    Mutant("one rules.merge entry is X*P",
           "src/hptcanon/rules.py",
           "self.merge = tuple(mul[mul[sid][p_id]] for sid in table.syndrome_ids)",
           "self.merge = tuple(mul[mul[sid][p_id]] for sid in "
           "table.syndrome_ids[:2]) + (mul[table.syndrome_ids[2]],)"),
    Mutant("T*T is read as the second generator, P",
           "src/hptcanon/rules.py",
           "self.tt = names[1]",
           "self.tt = names[0]"),
    Mutant("each generator has its own byte code",
           "src/hptcanon/rules.py",
           "**{ch: chr(code) for code, ch in enumerate(letters)}})",
           '**{ch: chr(code) for code, ch in enumerate(("T", *names[::-1]))}})'),
    Mutant("a code character outside the basis maps to the sentinel",
           "src/hptcanon/rules.py",
           '{**{chr(code): "\\xff" for code in range(len(letters))},',
           '{**{chr(code): "\\xff" for code in range(0)},'),
    Mutant("check_fixture compares the row's syndrome",
           "src/hptcanon/rules.py",
           "        if rules.slots[w0] != slot:\n            problems",
           "        if False:\n            problems"),
    Mutant("check_fixture compares the row's W1",
           "src/hptcanon/rules.py",
           "if table.elements[rules.w1_ids[w0]] != w1_mat:",
           "if False:"),
    Mutant("the rules guard refuses a value that is not a RuleTable",
           "src/hptcanon/rules.py",
           "    if not isinstance(rules, RuleTable):\n",
           "    if False:\n"),
    Mutant("check_fixture refuses a row that is not a pair of str",
           "src/hptcanon/rules.py",
           "        if not (isinstance(lhs, str) and isinstance(rhs, str)):\n",
           "        if False:\n"),
    Mutant("emit_rules writes no I before the T",
           "src/hptcanon/rules.py",
           'prefix = "" if label == "I" else label',
           "prefix = label"),
    # normalize: parse, evaluate, the fold and the guard.
    Mutant("evaluate's T step multiplies e01 by omega",
           "src/hptcanon/normalize.py",
           "a1, b1, c1, d1 = -d1, a1, b1, c1",
           "a1, b1, c1, d1 = d1, a1, b1, c1"),
    Mutant("evaluate's H step multiplies the determinant by omega**4",
           "src/hptcanon/normalize.py",
           "            j += 4\n",
           "            j += 0\n"),
    Mutant("evaluate's row 1 is -omega**j * conj(e01) first",
           "src/hptcanon/normalize.py",
           "x1 = -a1, -b1, -c1, -d1, a1, b1, c1, d1",
           "x1 = -a1, -b1, -c1, d1, a1, b1, c1, d1"),
    Mutant("evaluate multiplies in the pending run at a generic gate",
           "src/hptcanon/normalize.py",
           "                key = ring._mat_mul(\n"
           "                    _unitary_key(k, j, a0, b0, c0, d0, a1, b1, c1, "
           "d1), key)\n",
           ""),
    Mutant("_rules refuses a table that is not rules.table",
           "src/hptcanon/normalize.py",
           "    if table is None or table is rules.table:\n"
           "        return rules\n",
           "    if True:\n        return rules\n"),
    Mutant("a merge reads the rule's W1",
           "src/hptcanon/normalize.py",
           "pending = merge[blocks.pop()][w1s[pending]]",
           "pending = merge[blocks.pop()][pending]"),
    Mutant("parse skips the '|' separator",
           "src/hptcanon/normalize.py",
           '_IGNORED = str.maketrans("", "", "I.|")',
           '_IGNORED = str.maketrans("", "", "I.")'),
    Mutant("a form's entry points refuse a table that is not a GroupTable",
           "src/hptcanon/normalize.py",
           "    _check_table(table, caller)\n",
           ""),
    Mutant("normal_form_matrix keeps the Clifford tail",
           "src/hptcanon/normalize.py",
           "return _blocks_matrix(nf.blocks, table) * tail if nf.blocks",
           "return _blocks_matrix(nf.blocks, table) if nf.blocks"),
    Mutant("a normal form's first block may be a bare T",
           "src/hptcanon/normalize.py",
           "FIRST_BLOCKS = (Block.T, Block.HT, Block.PHT)",
           "FIRST_BLOCKS = (Block.HT, Block.PHT)"),
    Mutant("invert writes T**-1 as T*P**3",
           "src/hptcanon/rules.py",
           'inv_words["T"] = "T" + inv_words[names[1]]',
           'inv_words["T"] = "T"'),
    # census: counting, enumeration and the oracle.
    Mutant("the closed form holds at n = 13",
           "src/hptcanon/census.py",
           "return 192 * (3 * 2 ** n - 2)",
           "return 192 * (3 * 2 ** n - 2) + (n == 13)"),
    Mutant("count_closed_form refuses an exact that is not a bool",
           "src/hptcanon/census.py",
           "    if not isinstance(exact, bool):\n",
           "    if False:\n"),
    Mutant("a size n refuses a bool",
           "src/hptcanon/census.py",
           "    if not isinstance(n, int) or isinstance(n, bool):\n",
           "    if not isinstance(n, int):\n"),
    Mutant("a size refuses a negative value",
           "src/hptcanon/census.py",
           "    if n < 0:\n",
           "    if False:\n"),
    Mutant("enumeration reaches n blocks",
           "src/hptcanon/census.py",
           "for k in range(1, n + 1)))",
           "for k in range(1, n)))"),
    Mutant("enumerate_normal_forms pairs each block tuple with every tail",
           "src/hptcanon/census.py",
           "product((blocks,), tails) for blocks in block_tuples(n)))",
           "product((blocks,), tails[:-1]) for blocks in block_tuples(n)))"),
    Mutant("_flat_mul: omega**4 = -1 folds with a sign",
           "src/hptcanon/census.py",
           "a0 = xa0*ya0 - xb0*yd0",
           "a0 = xa0*ya0 + xb0*yd0"),
    Mutant("_diagonal_powers: -omega**j is omega**(j + 4)",
           "src/hptcanon/census.py",
           "e.index(-1) + 4",
           "e.index(-1)"),
    Mutant("_row_rotations: row 1 of omega*row",
           "src/hptcanon/census.py",
           "(-d0, a0, b0, c0, -d1, a1, b1, c1),",
           "(d0, a0, b0, c0, -d1, a1, b1, c1),"),
    Mutant("verify_uniqueness refuses two forms with one matrix",
           "src/hptcanon/census.py",
           "        if other is not None:\n",
           "        if False:\n"),
    Mutant("verify_uniqueness keys a block tuple by its coset, not its "
           "Bloch matrix",
           "src/hptcanon/census.py",
           "key = coset_key(m)",
           "key = bloch(m)"),
    Mutant("verify_uniqueness finds each form's key in the oracle's set",
           "src/hptcanon/census.py",
           "if okeys is not None and not okeys.issuperset(",
           "if False and not okeys.issuperset("),
    Mutant("verify_uniqueness refuses a table that is not the Cliffords",
           "src/hptcanon/census.py",
           "    _check_clifford(table)\n",
           ""),
    Mutant("verify_uniqueness certifies each tuple's sde as its T-count",
           "src/hptcanon/census.py",
           "        if key[0] != len(blocks):\n",
           "        if False:\n"),
    Mutant("verify_uniqueness compares the oracle's size with the forms'",
           "src/hptcanon/census.py",
           "if okeys is not None and len(okeys) != total:",
           "if False:"),
    Mutant("verify_uniqueness counts a block tuple as order forms",
           "src/hptcanon/census.py",
           "total = table.order * len(seen)",
           "total = (table.order - 1) * len(seen)"),
    Mutant("_orbit_key: a* is the least row-0 rotation",
           "src/hptcanon/census.py",
           "a = min(paired, key=top.__getitem__)",
           "a = max(paired, key=top.__getitem__)"),
    Mutant("_orbit_key: row 1 takes its least paired rotation",
           "src/hptcanon/census.py",
           "min(map(bottom.__getitem__, paired[a]))",
           "bottom[paired[a][0]]"),
    Mutant("the oracle drops a key already in its set",
           "src/hptcanon/census.py",
           "                if prod not in total:\n",
           "                if True:\n"),
    Mutant("the oracle expands a new orbit from its product",
           "src/hptcanon/census.py",
           "total.update(_orbit(prod, pairs))",
           "total.update(_orbit(tm, pairs))"),
    Mutant("the group's D-orbits tile it, by count",
           "src/hptcanon/census.py",
           "    if len(total) != layer_sizes[0]:\n",
           "    if False:\n"),
    Mutant("each oracle layer adds |D| keys per new orbit, by count",
           "src/hptcanon/census.py",
           "        if len(total) != sum(layer_sizes):\n",
           "        if False:\n"),
    Mutant("the oracle's frontier is the last layer's orbits",
           "src/hptcanon/census.py",
           "        frontier = new\n",
           "        frontier = reps\n"),
    # stab: the triples and their check.
    Mutant("_fold: PHT's z_a is x_a - y_a",
           "src/hptcanon/stab.py",
           "= xa + ya, xb + yb, 2 * zb, za, xa - ya, xb - yb",
           "= xa + ya, xb + yb, 2 * zb, za, xa + ya, xb - yb"),
    Mutant("the fold adds one level per block",
           "src/hptcanon/stab.py",
           "    for level, block in enumerate(blocks, level + 1):\n",
           "    for block in blocks:\n"),
    Mutant("initial_stab: the y axis keeps its sign",
           "src/hptcanon/stab.py",
           "st = StabTriple((key[9], 0), (key[11], 0), (key[1], 0), 0)",
           "st = StabTriple((key[9], 0), (-key[11], 0), (key[1], 0), 0)"),
    Mutant("_CLASS_BY_PARITY: the T1 row",
           "src/hptcanon/stab.py",
           "(0, 1, 0, 0, 0, 1): ParityClass.T1,",
           "(0, 1, 0, 0, 0, 1): ParityClass.T2,"),
    Mutant("_code: x_a is the high bit, x_b the next",
           "src/hptcanon/stab.py",
           "return ((xa & 1) * 32 + (xb & 1) * 16",
           "return ((xa & 1) * 16 + (xb & 1) * 32"),
    Mutant("the triple guard refuses a triple that is not a StabTriple",
           "src/hptcanon/stab.py",
           "    if not isinstance(st, StabTriple):\n",
           "    if False:\n"),
    Mutant("step_block checks its triple",
           "src/hptcanon/stab.py",
           '    _coefficients(st, "step_block")\n',
           ""),
    Mutant("stab_matrix reads a triple's level by position",
           "src/hptcanon/stab.py",
           "n, level = _numerators(st), st[3]",
           "n, level = _numerators(st), st.level"),
    Mutant("_numerators: i*y in e10",
           "src/hptcanon/stab.py",
           "xa, xb - yb, -ya, -xb - yb,",
           "xa, xb - yb, ya, -xb - yb,"),
    Mutant("verify_stabilizes refuses a StateVec for its matrix",
           "src/hptcanon/stab.py",
           "    if not isinstance(m, ring.UMat2):\n",
           "    if not hasattr(m, \"_key\"):\n"),
    Mutant("verify_stabilizes compares at the triple's level",
           "src/hptcanon/stab.py",
           ") == ring._scaled(*u, level) + ring._scaled(*v, level)",
           ") == ring._scaled(*u, 0) + ring._scaled(*v, 0)"),
    Mutant("verify_stabilizes: -i*y*v in the top row",
           "src/hptcanon/stab.py",
           "za*u0 + zb*r0 + xa*v0 + xb*s0 + ya*v2 + yb*s2,",
           "za*u0 + zb*r0 + xa*v0 + xb*s0 - ya*v2 + yb*s2,"),
    Mutant("verify_stabilizes takes sqrt2 times u",
           "src/hptcanon/stab.py",
           "r0, r1, r2, r3 = u1 - u3, u0 + u2, u1 + u3, u2 - u0",
           "r0, r1, r2, r3 = u0, u1, u2, u3"),
    Mutant("the step law takes the stepped triple one level up",
           "src/hptcanon/stab.py",
           "step = (level + 1, *_numerators(step_block(st, b)))",
           "step = (level, *_numerators(step_block(st, b)))"),
    Mutant("_LAW: family A under HT goes to T2",
           "src/hptcanon/stab.py",
           '"A": (ParityClass.T3, ParityClass.T2, ParityClass.T1),',
           '"A": (ParityClass.T3, ParityClass.T1, ParityClass.T1),'),
    Mutant("law_walk stops at the first broken transition",
           "src/hptcanon/stab.py",
           "        if law is not None and ok:\n",
           "        if law is not None:\n"),
    Mutant("parity_code refuses a negative level",
           "src/hptcanon/stab.py",
           "    if level < 0:\n        raise _level_error(level)\n"
           "    return code\n",
           "    return code\n"),
    Mutant("law_walk returns the fold's last triple, not the initial one",
           "src/hptcanon/stab.py",
           "    return checks, ok, _triple(xa, xb, ya, yb, za, zb, level)\n",
           "    return checks, ok, st\n"),
    # verify: the headline checks.
    Mutant("the ctx guard names the check for a ctx without its tables",
           "src/hptcanon/verify.py",
           "    except (KeyError, TypeError):\n",
           "    except ():\n"),
    Mutant("the ctx guard checks the type of its table",
           "src/hptcanon/verify.py",
           "    _check_table(table, check)\n",
           ""),
    Mutant("the ctx guard checks the type of its rules",
           "src/hptcanon/verify.py",
           "    rules_mod._check_rules(rules, check)\n",
           ""),
    Mutant("the ctx guard refuses rules built for another table",
           "src/hptcanon/verify.py",
           "    if table is not rules.table:\n",
           "    if False:\n"),
    Mutant("stabilizer-chains ends on the form's matrix",
           "src/hptcanon/verify.py",
           "not stab.verify_stabilizes(last, m)",
           "not stab.verify_stabilizes(last, table.elements[cliff])"),
    Mutant("stabilizer-chains needs a final parity class",
           "src/hptcanon/verify.py",
           "or stab.classify(last) is stab.ParityClass.OTHER",
           "or False"),
    Mutant("oracle-match holds its count to the closed form",
           "src/hptcanon/verify.py",
           "ok = count == census.count_closed_form(oracle_max) and dt < 10.0",
           "ok = dt < 10.0"),
    Mutant("uniqueness holds its count to the closed form",
           "src/hptcanon/verify.py",
           "    ok = count == census.count_closed_form(tmax)\n",
           "    ok = True\n"),
    Mutant("stabilizer-chains walks each chain from its tail",
           "src/hptcanon/verify.py",
           "stab._law_walk(blocks, cliff, table)",
           "stab._law_walk(blocks, 0, table)"),
    Mutant("stabilizer-chains' end matrix takes the tail",
           "src/hptcanon/verify.py",
           "m = _blocks_matrix(blocks, table) * table.elements[cliff]",
           "m = _blocks_matrix(blocks, table)"),
    Mutant("stabilizer-chains checks its count",
           "src/hptcanon/verify.py",
           '    census._check_n(count, "check_stab_chains() count")\n',
           ""),
    Mutant("counting checks nmax before it sizes its layers",
           "src/hptcanon/verify.py",
           '    census._check_n(nmax, "check_counting() nmax")\n',
           ""),
    Mutant("oracle-match names itself for a bad oracle_max",
           "src/hptcanon/verify.py",
           '    census._check_n(oracle_max, "check_oracle() oracle_max")\n',
           ""),
    Mutant("uniqueness names itself for a bad tmax",
           "src/hptcanon/verify.py",
           '    census._check_n(tmax, "check_uniqueness() tmax")\n',
           ""),
    Mutant("counting runs to n = 12",
           "src/hptcanon/verify.py",
           "def check_counting(ctx, nmax=12):",
           "def check_counting(ctx, nmax=11):"),
    Mutant("counting refuses a block tuple equal to the one before",
           "src/hptcanon/verify.py",
           "not (prev is None or prev < code)",
           "not (prev is None or prev <= code)"),
    Mutant("remark-r-basis fails without rules",
           "src/hptcanon/verify.py",
           '_result("remark-r-basis", t0, False, detail + "False")',
           '_result("remark-r-basis", t0, True, detail + "False")'),
    Mutant("remark-r-basis compares the round trips",
           "src/hptcanon/verify.py",
           "ok = all(normal_form_matrix(normalize(w, table, rules), table)",
           "ok = True or all(normal_form_matrix(normalize(w, table, rules), table)"),
    Mutant("group-order verdict reads the order",
           "src/hptcanon/verify.py",
           'ok = (table.order == 192 and table.words[0] == ""',
           'ok = (table.words[0] == ""'),
    Mutant("coset-structure verdict reads subgroup_ct",
           "src/hptcanon/verify.py",
           "          and subgroup_ct(table) == table.ct_ids\n",
           ""),
    Mutant("rewrite-rules verdict reads the identity failures",
           "src/hptcanon/verify.py",
           "section == [64, 64, 64] and bad == 0",
           "section == [64, 64, 64]"),
    Mutant("appendix-fixture verdict reads the mismatches",
           "src/hptcanon/verify.py",
           "ok = not problems and len(rows) == 192",
           "ok = len(rows) == 192"),
    Mutant("normalizer-soundness verdict reads the failures",
           "src/hptcanon/verify.py",
           "ok = failures == 0 and dt < 30.0",
           "ok = dt < 30.0"),
    Mutant("tcount-minimality verdict reads the unattained witnesses",
           "src/hptcanon/verify.py",
           "ok = beaten == 0 and unattained == 0",
           "ok = beaten == 0"),
    Mutant("inverse-tcount verdict reads the failures",
           "src/hptcanon/verify.py",
           '_result("inverse-tcount", t0, bad == 0,',
           '_result("inverse-tcount", t0, True,'),
    Mutant("hp-cubed-scalar verdict reads (HP)^3",
           "src/hptcanon/verify.py",
           '_result("hp-cubed-scalar", t0, ok,',
           '_result("hp-cubed-scalar", t0, True,'),
    # cli: the oracle cap, the tables and the exit code.
    Mutant("count --oracle is capped above n = 4",
           "src/hptcanon/cli.py",
           "if args.oracle and args.n > 4:",
           "if args.oracle and args.n >= 4:"),
    Mutant("tables --dump-group tags each element by its slot",
           "src/hptcanon/cli.py",
           'tag = "S_" + table.syndrome_labels[table.coset_slots[gid]]',
           'tag = "S_" + table.syndrome_labels[-table.coset_slots[gid]]'),
    Mutant("verify exits 2 on a failed check",
           "src/hptcanon/cli.py",
           "return 0 if all(res.ok for res in results) else 2",
           "return 0"),
)


def _copy_tree(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _apply(dest, mutant):
    path = dest / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.path}: old text occurs {count} times, "
                         f"not once: {mutant.old!r}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _run_suite(mutant=None):
    """Run the suite on a fresh copy, with `mutant` applied if given.
    Returns (passed, seconds, the first failing test's id or "")."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            _apply(dest, mutant)
        # The copy's own src/ only: never a checkout on the caller's path.
        env = dict(os.environ, PYTHONPATH=str(dest / "src"))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q"],
                              cwd=dest, env=env, capture_output=True,
                              text=True)
        seconds = time.perf_counter() - t0
    # pytest's short summary names the failure: "FAILED <id> - ...".
    first = next((line.split()[1] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return done.returncode == 0, seconds, first


def main():
    passed, seconds, first = _run_suite()
    print(f"{'passed' if passed else 'FAILED':8} {seconds:5.1f}s  "
          f"unmutated copy  {first}".rstrip(), flush=True)
    if not passed:
        return 1
    survivors = 0
    bad_rows = 0
    for mutant in MUTANTS:
        try:
            passed, seconds, first = _run_suite(mutant)
        except ValueError as exc:
            bad_rows += 1
            print(f"BAD ROW  {mutant.name}: {exc}", flush=True)
            continue
        survivors += passed
        print(f"{'SURVIVED' if passed else 'killed':8} {seconds:5.1f}s  "
              f"{mutant.path.rsplit('/', 1)[-1]}: {mutant.name}  "
              f"{first}".rstrip(), flush=True)
    print(f"{len(MUTANTS)} mutants: {survivors} survived, {bad_rows} bad rows")
    return 1 if survivors or bad_rows else 0


if __name__ == "__main__":
    sys.exit(main())
