"""Finite matrix group closure over exact-ring generators.

Builds the 192-element group generated by H and P by breadth-first
closure, assigning every element a canonical word: the shortest word in
the generators, ties broken lexicographically in the given generator
order.  The table also records conjugation by T, the subgroup C_T of
elements whose T-conjugate stays in the group, the resulting three-coset
decomposition, and the scalar (global phase) subgroup.  An element g's
coset tag is its `coset_slots` entry: the index of the S with S_adj * g
in C_T in `syndrome_ids` and `syndrome_labels`.

The other tables come off the closure tree by table lookups alone, with
no matrix product: a row of the multiplication table (a tuple) is its
parent's row read through one left-multiplication table, an inverse is
its last generator's inverse times its parent's inverse, and an
element's T-conjugate is its own key with the off-diagonal entries
turned by a unit, looked up in the closure's key dict.  The closure
itself steps on flat keys with ring._gate_mul, so an H or P step is a
column sum and difference or a column rotation, not a full product.  The
table keeps the closure tree, and GroupTable.right_products walks it to
multiply one matrix by every element with one generator step per
element; census's uniqueness sweep keys each coset by its Bloch matrix
instead, and takes these products only for its oracle check and a
collision's message.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from types import MappingProxyType

from . import ring
from .ring import UMat2, _gate_mul

CLOSURE_LIMIT = 10000


class ClosureExceedsLimit(Exception):
    def __init__(self, limit):
        super().__init__(f"group closure exceeded {limit} elements")
        self.limit = limit


class GroupTable:
    """Immutable closure table; elements are addressed by integer id.

    Id 0 is the identity (canonical word "").  `mul[i][j]` is the id of
    elements[i] * elements[j], matching left-to-right circuit composition;
    each row `mul[i]` is a tuple.  `t_conj[g]` is the id of
    T * elements[g] * T_adj, or None when that matrix is not an element;
    `ct_ids` is the set of g where it is not None.
    """

    def __init__(self, generators):
        """Close `generators` (sequence of (single-letter name, matrix)
        pairs) under multiplication, breadth-first on flat keys: each
        (element, generator) product is one ring._gate_mul step, a column
        sum and difference for the ring's own H and a column rotation for
        its own P.  Every other table is read off the tree it grows by
        table lookups, with no matrix product; the tree is kept for
        right_products (census's oracle check and collision message).

        A name that is not a str raises TypeError.  A name that is not one
        letter, is T (the gate the table conjugates by), is one that parse
        drops (I, '.', '|' or whitespace) or repeats an earlier name raises
        ValueError, and a matrix that is not a UMat2 raises TypeError.
        Raises ClosureExceedsLimit if more than CLOSURE_LIMIT distinct
        elements appear, so the generators of an infinite group, such as
        {H, T}, cannot loop forever.  T is the non-Clifford gate used for
        the conjugation subgroup and cosets.
        """
        gens = [(name, mat) for name, mat in generators]
        if not gens:
            raise ValueError("at least one generator required")
        for pos, (name, mat) in enumerate(gens):
            if not isinstance(name, str):
                raise TypeError(f"generator name {name!r} must be a str, "
                                f"not {type(name).__name__}")
            if len(name) != 1:
                raise ValueError(
                    f"generator names must be single letters: {name!r}")
            if name == "T":
                raise ValueError("generator name 'T' is taken by the T gate")
            if name in "I.|" or name.isspace():
                raise ValueError(
                    f"generator name {name!r} is a character parse drops")
            if any(name == other for other, _ in gens[:pos]):
                raise ValueError(f"generator name {name!r} is repeated")
            if not isinstance(mat, UMat2):
                raise TypeError(f"generator {name!r} must be a UMat2, "
                                f"not {type(mat).__name__}")

        keys = [ring.IDENTITY.scaled_key()]
        words = [""]
        ids = {keys[0]: 0}
        # gen_step[pos][i] is the id of elements[i] * generator pos; element j
        # is first reached as elements[parent[j]] * generator last[j].
        gen_step = [[] for _ in gens]
        parent = [None]
        last = [None]
        queue = deque([0])
        while queue:
            i = queue.popleft()
            base = keys[i]
            for pos, (name, mat) in enumerate(gens):
                prod = _gate_mul(base, mat)
                j = ids.get(prod)
                if j is None:
                    if len(keys) >= CLOSURE_LIMIT:
                        raise ClosureExceedsLimit(CLOSURE_LIMIT)
                    j = ids[prod] = len(keys)
                    keys.append(prod)
                    words.append(words[i] + name)
                    parent.append(i)
                    last.append(pos)
                    queue.append(j)
                gen_step[pos].append(j)
        n = len(keys)
        elements = [UMat2._raw(key) for key in keys]
        index = dict(zip(elements, range(n)))
        self.gen_names = gen_names = tuple(name for name, _ in gens)
        self.elements = elements
        self.words = words
        self.index = index
        # (parent, generator matrix) of each element j >= 1, in id order.
        self._tree = tuple(zip(parent[1:], [gens[g][1] for g in last[1:]]))

        # left[g][j] is the id of generator g * elements[j]: elements[j] is
        # elements[parent[j]] * generator last[j], and parent[j] < j, so it
        # walks the tree with one step-table lookup per element.
        left = []
        for step in gen_step:
            row = [step[0]]
            for j in range(1, n):
                row.append(gen_step[last[j]][row[parent[j]]])
            left.append(row)
        # Multiplication table, one row at a time: elements[i] * elements[j]
        # = elements[parent[i]] * (generator last[i] * elements[j]), so row
        # i is row parent[i] read through left[last[i]].  No product.
        mul = self.mul = [tuple(range(n))]
        for i in range(1, n):
            mul.append(itemgetter(*left[last[i]])(mul[parent[i]]))

        # (elements[parent[i]] * g)^-1 = g^-1 * elements[parent[i]]^-1 for
        # g = generator last[i], and gen_inv[g] is the id of g^-1.
        gen_inv = [step.index(0) for step in gen_step]
        inv = self.inv = [0]
        for i in range(1, n):
            inv.append(mul[gen_inv[last[i]]][inv[parent[i]]])

        # T = diag(1, omega), so T * M * T_adj is M with e01 turned by
        # omega**-1, (a, b, c, d) -> (b, c, d, -a), and e10 turned by omega,
        # (a, b, c, d) -> (-d, a, b, c).  A unit keeps every entry's sqrt2
        # divisibility, so the turned key is canonical: one dict lookup.
        t_mat = self.t_mat = ring.T
        t_conj = self.t_conj = tuple(
            ids.get((k, a0, b0, c0, d0, b1, c1, d1, -a1, -d2, a2, b2, c2,
                     a3, b3, c3, d3))
            for (k, a0, b0, c0, d0, a1, b1, c1, d1,
                 a2, b2, c2, d2, a3, b3, c3, d3) in keys)
        ct_ids = self.ct_ids = frozenset(
            i for i, c in enumerate(t_conj) if c is not None)

        # Syndromes I, g0, g1*g0; with a single generator the second syndrome
        # degenerates to g0*g0 so the triple stays well-formed (the coset
        # decomposition is only meaningful for two-generator sets).
        syn0 = gens[0][1]
        second = gens[1] if len(gens) > 1 else gens[0]
        syndrome_ids = self.syndrome_ids = (
            0, index[syn0], index[second[1] * syn0])
        syndrome_labels = self.syndrome_labels = (
            "I", gens[0][0], second[0] + gens[0][0])

        coset_slots = []
        for g in range(n):
            matches = [s for s, sid in enumerate(syndrome_ids)
                       if mul[inv[sid]][g] in ct_ids]
            coset_slots.append(matches[0] if len(matches) == 1 else None)
        self.coset_slots = tuple(coset_slots)

        # Scalars read off the flat key: both off-diagonal numerators zero and
        # the diagonal numerators equal (over the key's common sqrt2**k).
        self.scalar_ids = tuple(
            i for i, key in enumerate(keys)
            if not any(key[5:13]) and key[1:5] == key[13:17])

        # letter_step[name][i] is the id of elements[i] * generator `name`.
        self.letter_step = dict(zip(gen_names, gen_step))
        self.gen_ids = {name: row[0] for name, row in self.letter_step.items()}
        # Gate letter -> matrix for evaluate: the generator matrices as
        # given, then T; read-only like the rest of the table.
        self.gates = MappingProxyType({**dict(gens), "T": t_mat})
        self.block_labels = tuple(
            ("" if lbl == "I" else lbl) + "T" for lbl in syndrome_labels)
        self.block_matrices = tuple(
            elements[sid] * t_mat for sid in syndrome_ids)

    @property
    def order(self):
        return len(self.elements)

    def element_id(self, mat):
        try:
            return self.index[mat]
        except KeyError:
            raise ValueError("matrix is not an element of this group") from None

    def right_products(self, key):
        """Keys of m * elements[j] for j = 0..order-1, where m is the
        matrix with canonical key `key` (UMat2.scaled_key()).

        One walk of the closure tree: m * elements[j] is
        (m * elements[parent[j]]) * the generator that first reached j,
        and parent[j] < j, so each element costs one ring._gate_mul step
        from an earlier entry, not a full product.
        """
        out = [key]
        append = out.append
        for p, gate in self._tree:
            append(_gate_mul(out[p], gate))
        return out


def _check_table(table, caller):
    # The one guard of every entry point that takes a GroupTable.
    if not isinstance(table, GroupTable):
        raise TypeError(f"{caller}() table must be a GroupTable, "
                        f"not {type(table).__name__}")


def build_standard_table():
    """The 192-element group generated by H and P, with T-cosets."""
    return GroupTable([("H", ring.H), ("P", ring.P)])


def subgroup_ct(table):
    """Recompute {g : T * g * T_adjoint stays in the group} from scratch.

    Same set as table.ct_ids; kept separate so tests can cross-check the
    stored value against the definition.
    """
    _check_table(table, "subgroup_ct")
    t = table.t_mat
    t_adj = t.adjoint()
    return frozenset(i for i, m in enumerate(table.elements)
                     if (t * m) * t_adj in table.index)


def quotient_profile(table):
    """Structure of C_T modulo the scalar subgroup.

    Returns (order, is_abelian, {element_order: count}).  Scalars commute
    with everything, so left and right cosets agree and the quotient is a
    genuine group on the canonical (minimum-id) coset representatives.
    """
    _check_table(table, "quotient_profile")
    mul = table.mul
    scalars = table.scalar_ids
    for s in scalars:
        if s not in table.ct_ids:
            raise ValueError("scalar subgroup not contained in C_T")

    def rep(g):
        return min(mul[s][g] for s in scalars)

    reps = sorted({rep(g) for g in table.ct_ids})
    rep_set = set(reps)
    if len(reps) * len(scalars) != len(table.ct_ids):
        raise ValueError("scalar cosets do not partition C_T evenly")

    def qmul(a, b):
        return rep(mul[a][b])

    e = rep(0)
    orders = {}
    for g in reps:
        x, o = g, 1
        while x != e:
            x = qmul(x, g)
            o += 1
        orders[o] = orders.get(o, 0) + 1

    abelian = all(qmul(a, b) == qmul(b, a) for a in reps for b in rep_set)
    return len(reps), abelian, orders
