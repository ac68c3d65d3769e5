"""Counting, enumeration, and independent verification of uniqueness.

M_n is the set of matrices computable with at most n T gates.  The
paper's closed forms for the 192-element group, |M_n| = 192*(3*2**n - 2)
and |M_=n| = 3*192*2**(n-1), count block tuples times tails: each of the
3*2**(n-1) tuples of n blocks carries every tail; verify holds each
layer to them.  Uniqueness is checked two independent ways: by
evaluating the normal forms exactly, one block tuple at a time, each
keyed by its Clifford coset's exact Bloch columns (bloch.coset_key, no
product by a tail), whose exponent also certifies T-optimality; and by a
brute-force closure oracle on flat matrix keys that never consults the
normalizer, rules or ring products.  The oracle's set is a union of
whole orbits of the diagonal Cliffords D, the diag(omega**a, omega**b)
that commute with T: it takes one product per coset D*r, drops a product
already in the set and expands a new one to its orbit, so it reduces a
key to its orbit's least key (_orbit_key) only at layer 0.  The other
entry points take the group table they walk (<R,P> too).
"""

from functools import partial
from itertools import chain, product

from .bloch import bloch, coset_key
from .group import _check_table
from .normalize import FIRST_BLOCKS, REST_BLOCKS, NormalForm, _blocks_matrix


class VerificationFailure(Exception):
    """A uniqueness or oracle check failed; the message carries the
    first counterexample."""


def _check_n(n, name="n"):
    # The one guard of a size, here and in verify's checks, which name
    # themselves and their parameter.  An int and not a bool: True would
    # pass as 1 and print as True.
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def count_closed_form(n, exact=False):
    """|M_n|, or |M_=n| when exact=True (the layer of T-count exactly n)."""
    _check_n(n)
    if not isinstance(exact, bool):
        raise TypeError("count_closed_form() exact must be a bool, "
                        f"not {type(exact).__name__}")
    if exact:
        return 192 if n == 0 else 3 * 192 * 2 ** (n - 1)
    return 192 * (3 * 2 ** n - 2)


def block_tuples(n):
    """The block tuples of the normal forms with <= n blocks, lazily:
    length ascending, then product order over (T|HT|PHT)(HT|PHT)*.  A
    negative n raises ValueError here, not at the first item."""
    _check_n(n)
    return chain(((),), chain.from_iterable(
        product(FIRST_BLOCKS, *((REST_BLOCKS,) * (k - 1)))
        for k in range(1, n + 1)))


def enumerate_normal_forms(n, table):
    """All normal forms with <= n blocks, lazily: block_tuples(n), each
    paired with every tail by id, made NormalForms by tuple.__new__
    (NormalForm._make without a Python frame per form)."""
    _check_table(table, "enumerate_normal_forms")
    tails = range(table.order)
    return map(partial(tuple.__new__, NormalForm), chain.from_iterable(
        product((blocks,), tails) for blocks in block_tuples(n)))


def _flat_mul(x, y):
    """Product of two matrices in scaled_key form (den exponent + 16
    numerator coefficients).

    UMat2.__mul__ computes the same product on the same layout.  This
    copy is kept apart from it on purpose: brute_force_mn is an oracle
    for the normal forms and for evaluate, so it must not ride on the
    ring code it checks.
    """
    k = x[0] + y[0]
    (xa0, xb0, xc0, xd0, xa1, xb1, xc1, xd1,
     xa2, xb2, xc2, xd2, xa3, xb3, xc3, xd3) = x[1:]
    (ya0, yb0, yc0, yd0, ya1, yb1, yc1, yd1,
     ya2, yb2, yc2, yd2, ya3, yb3, yc3, yd3) = y[1:]
    a0 = xa0*ya0 - xb0*yd0 - xc0*yc0 - xd0*yb0 + xa1*ya2 - xb1*yd2 - xc1*yc2 - xd1*yb2
    b0 = xa0*yb0 + xb0*ya0 - xc0*yd0 - xd0*yc0 + xa1*yb2 + xb1*ya2 - xc1*yd2 - xd1*yc2
    c0 = xa0*yc0 + xb0*yb0 + xc0*ya0 - xd0*yd0 + xa1*yc2 + xb1*yb2 + xc1*ya2 - xd1*yd2
    d0 = xa0*yd0 + xb0*yc0 + xc0*yb0 + xd0*ya0 + xa1*yd2 + xb1*yc2 + xc1*yb2 + xd1*ya2
    a1 = xa0*ya1 - xb0*yd1 - xc0*yc1 - xd0*yb1 + xa1*ya3 - xb1*yd3 - xc1*yc3 - xd1*yb3
    b1 = xa0*yb1 + xb0*ya1 - xc0*yd1 - xd0*yc1 + xa1*yb3 + xb1*ya3 - xc1*yd3 - xd1*yc3
    c1 = xa0*yc1 + xb0*yb1 + xc0*ya1 - xd0*yd1 + xa1*yc3 + xb1*yb3 + xc1*ya3 - xd1*yd3
    d1 = xa0*yd1 + xb0*yc1 + xc0*yb1 + xd0*ya1 + xa1*yd3 + xb1*yc3 + xc1*yb3 + xd1*ya3
    a2 = xa2*ya0 - xb2*yd0 - xc2*yc0 - xd2*yb0 + xa3*ya2 - xb3*yd2 - xc3*yc2 - xd3*yb2
    b2 = xa2*yb0 + xb2*ya0 - xc2*yd0 - xd2*yc0 + xa3*yb2 + xb3*ya2 - xc3*yd2 - xd3*yc2
    c2 = xa2*yc0 + xb2*yb0 + xc2*ya0 - xd2*yd0 + xa3*yc2 + xb3*yb2 + xc3*ya2 - xd3*yd2
    d2 = xa2*yd0 + xb2*yc0 + xc2*yb0 + xd2*ya0 + xa3*yd2 + xb3*yc2 + xc3*yb2 + xd3*ya2
    a3 = xa2*ya1 - xb2*yd1 - xc2*yc1 - xd2*yb1 + xa3*ya3 - xb3*yd3 - xc3*yc3 - xd3*yb3
    b3 = xa2*yb1 + xb2*ya1 - xc2*yd1 - xd2*yc1 + xa3*yb3 + xb3*ya3 - xc3*yd3 - xd3*yc3
    c3 = xa2*yc1 + xb2*yb1 + xc2*ya1 - xd2*yd1 + xa3*yc3 + xb3*yb3 + xc3*ya3 - xd3*yd3
    d3 = xa2*yd1 + xb2*yc1 + xc2*yb1 + xd2*ya1 + xa3*yd3 + xb3*yc3 + xc3*yb3 + xd3*ya3
    while k > 0 and not ((a0 ^ c0) | (b0 ^ d0) | (a1 ^ c1) | (b1 ^ d1)
                         | (a2 ^ c2) | (b2 ^ d2) | (a3 ^ c3) | (b3 ^ d3)) & 1:
        a0, b0, c0, d0 = (b0-d0)//2, (a0+c0)//2, (b0+d0)//2, (c0-a0)//2
        a1, b1, c1, d1 = (b1-d1)//2, (a1+c1)//2, (b1+d1)//2, (c1-a1)//2
        a2, b2, c2, d2 = (b2-d2)//2, (a2+c2)//2, (b2+d2)//2, (c2-a2)//2
        a3, b3, c3, d3 = (b3-d3)//2, (a3+c3)//2, (b3+d3)//2, (c3-a3)//2
        k -= 1
    return (k, a0, b0, c0, d0, a1, b1, c1, d1,
            a2, b2, c2, d2, a3, b3, c3, d3)


def _diagonal_powers(key):
    # The (a, b) with key == diag(omega**a, omega**b), where -omega**j is
    # omega**(j + 4); None for any other key.
    entries = key[1:5], key[13:17]
    if key[0] or any(key[5:13]) or any(
            sorted(map(abs, e)) != [0, 0, 0, 1] for e in entries):
        return None
    return tuple(e.index(1) if 1 in e else e.index(-1) + 4 for e in entries)


def _row_rotations(row):
    """omega**j * row for j = 0..7, for a row of two entries (8
    numerators).  omega maps each entry a + b*w + c*w^2 + d*w^3 to
    -d + a*w + b*w^2 + c*w^3 and keeps its sqrt2 divisibility, so a
    reduced key stays reduced."""
    a0, b0, c0, d0, a1, b1, c1, d1 = row
    return [row,
            (-d0, a0, b0, c0, -d1, a1, b1, c1),
            (-c0, -d0, a0, b0, -c1, -d1, a1, b1),
            (-b0, -c0, -d0, a0, -b1, -c1, -d1, a1),
            (-a0, -b0, -c0, -d0, -a1, -b1, -c1, -d1),
            (d0, -a0, -b0, -c0, d1, -a1, -b1, -c1),
            (c0, d0, -a0, -b0, c1, d1, -a1, -b1),
            (b0, c0, d0, -a0, b1, c1, d1, -a1)]


def _orbit(key, pairs):
    """The keys diag(omega**a, omega**b) * key for (a, b) in pairs, in
    order: row 0 rotated by a, row 1 by b.  No product is taken."""
    top = [key[:1] + r for r in _row_rotations(key[1:9])]
    bottom = _row_rotations(key[9:17])
    return [top[a] + bottom[b] for a, b in pairs]


def _orbit_key(key, paired):
    """The least key of the orbit {diag(omega**a, omega**b) * key}, with
    no orbit built: row 0's least rotation by an a of D, then row 1's
    least by a b that paired (each a to its list of b) pairs with it."""
    top = _row_rotations(key[1:9])
    a = min(paired, key=top.__getitem__)
    bottom = _row_rotations(key[9:17])
    return key[:1] + top[a] + min(map(bottom.__getitem__, paired[a]))


def brute_force_mn(n, table):
    """Closure oracle for M_n on flat matrix keys; never consults the
    normalizer, the rules or the ring products.

    Starts from the group and repeatedly adds c*T*m over its elements c,
    for m in the last layer only: c*T*m for an older m is in M_{k-1} by
    definition and was produced at an earlier step.

    Both loops are cut by D, the group elements whose key is diag(omega**a,
    omega**b): on <H,P> and <R,P> the 8 scalars times the 4 powers of P.
    D is a subgroup (closed under products and inverses) that commutes
    with T, so c*T*(d*m) = (c*d)*T*m, with c*d running over the group as c
    does, and d*(c*T*m) = (d*c)*T*m: a left orbit D*m yields one next
    layer, a layer is a union of orbits, and the c loop takes one r per
    coset D*r (6 on <H,P>), one product r*(T*m) each.  An invertible
    matrix has no zero row, so the 8 omega-rotations of a row are distinct
    and D acts freely.  At layer 0, _orbit_key reads each orbit's least
    key off the rotations, one representative per orbit of the group; it
    is read nowhere else.  The set is then a union of whole orbits: the
    group holds D, and every later key enters with its orbit.  So a
    product already in the set has its orbit there and is dropped, and
    any other opens a new orbit, expanded once from the product itself,
    which stands for it in the next frontier (any member can: right
    multiplication by d permutes the cosets D*r).  The tiling is checked
    by count: the group holds order/|D| orbits, and each layer adds |D|
    keys per new orbit.

    Returns (set of flat keys, per-layer new-matrix counts).
    """
    _check_n(n)
    _check_table(table, "brute_force_mn")
    cliff_keys = [m.scaled_key() for m in table.elements]
    t_key = table.t_mat.scaled_key()

    pairs = [p for p in map(_diagonal_powers, cliff_keys) if p is not None]
    paired = {a: [] for a, _ in pairs}
    for a, b in pairs:
        paired[a].append(b)
    reps = frontier = list({_orbit_key(key, paired) for key in cliff_keys})
    total = set(cliff_keys)
    layer_sizes = [len(reps) * len(pairs)]
    if len(total) != layer_sizes[0]:
        raise VerificationFailure("D-orbits do not tile layer 0")
    for layer in range(1, n + 1):
        new = []
        for m in frontier:
            tm = _flat_mul(t_key, m)
            for r in reps:
                prod = _flat_mul(r, tm)
                if prod not in total:
                    total.update(_orbit(prod, pairs))
                    new.append(prod)
        layer_sizes.append(len(new) * len(pairs))
        if len(total) != sum(layer_sizes):
            raise VerificationFailure(f"D-orbits do not tile layer {layer}")
        frontier = new
    return total, tuple(layer_sizes)


def _check_clifford(table):
    # Only the 192-element Clifford group has the cosets the sweep keys:
    # generators with an integer R (sde 0, so signed permutations) make a
    # group inside the 8 * 24 products omega**j * C, and order 192 fills
    # it.  Two bloch calls on <H,P> and <R,P>.
    if table.order != 192 or any(
            bloch(table.elements[g].scaled_key())[0]
            for g in table.gen_ids.values()):
        raise ValueError("verify_uniqueness() table must be the "
                         "192-element Clifford group")


def verify_uniqueness(n, table, with_oracle=True):
    """Evaluate every normal form with <= n blocks and check Theorem-1
    style uniqueness: all matrices pairwise distinct and (when enabled)
    the matrix set equal to the brute-force oracle's.  Any mismatch
    raises VerificationFailure, so the one count returned is the number
    of normal forms, of distinct matrices and (when enabled) of oracle
    keys alike.  Whether that count is the closed form's is decided in
    verify, which prints it.  A table that is not the 192-element
    Clifford group raises ValueError.

    The forms of a block tuple with matrix B are the coset B*G.  B is
    invertible and the elements are distinct, so one tuple's forms never
    collide, and two cosets are equal or disjoint.  bloch.coset_key names
    the coset with no product by a tail: R(B*C) = R(B)*R(C) permutes and
    signs R(B)'s columns, and equal keys mean cosets equal up to an
    omega**j, which G holds.  So one key per tuple is kept, not one per
    form, and the count is table.order forms per key kept.  Only a
    collision's message and the oracle's check take the coset's keys,
    from one walk of the closure tree (right_products).  The oracle's set
    must hold every coset, and is equal to the forms' when it also has as
    many keys as there are forms.

    The key's first field, the sde of R(B), must be len(blocks): a
    certificate that every form with <= n blocks is T-optimal against
    every circuit.  A Clifford's R is a signed permutation, which keeps
    the sde, and R(T) has entries in Z[sqrt2]/sqrt2, so each T raises
    the sde by at most 1: a circuit with m T gates has sde <= m."""
    _check_n(n)
    _check_table(table, "verify_uniqueness")
    _check_clifford(table)
    okeys = brute_force_mn(n, table)[0] if with_oracle else None

    def products(blocks):
        return table.right_products(
            _blocks_matrix(blocks, table).scaled_key())

    def oracle_mismatch():
        keys = set(chain.from_iterable(map(products, block_tuples(n))))
        return VerificationFailure(
            "enumeration/oracle sets differ: enumerated-only key "
            f"{next(iter(keys - okeys), None)}, oracle-only key "
            f"{next(iter(okeys - keys), None)}")

    def collision(other, blocks):
        # Each tuple's tail by the least key the two cosets share.
        first, second = products(other), products(blocks)
        key = min(set(first).intersection(second))
        return VerificationFailure(
            "distinct normal forms share a matrix: "
            f"{NormalForm(other, first.index(key))} vs "
            f"{NormalForm(blocks, second.index(key))}")

    seen = {}
    for blocks in block_tuples(n):
        m = _blocks_matrix(blocks, table).scaled_key()
        key = coset_key(m)
        other = seen.get(key)
        if other is not None:
            raise collision(other, blocks)
        if key[0] != len(blocks):
            raise VerificationFailure(
                f"T-count certificate fails: blocks {blocks} have Bloch "
                f"sde {key[0]}")
        seen[key] = blocks
        if okeys is not None and not okeys.issuperset(
                table.right_products(m)):
            raise oracle_mismatch()
    total = table.order * len(seen)
    if okeys is not None and len(okeys) != total:
        raise oracle_mismatch()
    return total
