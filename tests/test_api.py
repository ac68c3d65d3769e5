"""One standing probe of the public API: each public function, class
constructor and method of ring, bloch, group, rules, normalize, stab,
census and verify, and of a GroupTable, UMat2 and RingElem, gets one bad
value in one parameter and cheap valid values by name in the others.  Only
TypeError, ValueError and the package's own exceptions may leave, and a
guarded slot raises its exact message.  Enums, exceptions, cli.main (see
test_cli) and verify.run_all (it reports every exception) are left out.
"""

import inspect
from enum import Enum

import pytest

from hptcanon import (bloch, census, group, normalize, ring, rules, stab,
                      verify)
from hptcanon.normalize import Block, NormalForm
from hptcanon.stab import StabTriple

_MODULES = (ring, bloch, group, rules, normalize, stab, census, verify)
# The instances whose public methods are probed; a GroupTable is `table`.
_INSTANCES = {group.GroupTable: None, ring.UMat2: ring.H,
              ring.RingElem: ring.ONE}

_BIG = 10 ** 6
_PLAIN_TRIPLE = ((1, 0), (0, 0), (0, 0), 0)
_P_TABLE = group.GroupTable([("P", ring.P)])
# A ctx with both keys but a table, then only rules, of the wrong type.
_LOOSE_CTX = ({"table": None, "rules": None},
              {"table": _P_TABLE, "rules": None})
# A ctx whose rules were built for another table.
_MISMATCHED_CTX = {"table": _P_TABLE,
                   "rules": rules.build_rules(group.build_standard_table())}
_BAD = (None, True, 1.5, "x", -1, _BIG, (), [], {}, object(),
        NormalForm((), 500), NormalForm((Block.HT, 7), 0), b"HT",
        ((0, 0), (0, 0), (1, 0)), _PLAIN_TRIPLE, ring.H, ring.KET0,
        *_LOOSE_CTX, _MISMATCHED_CTX)
# Slots that size a call's work: 10**6 there is valid, only slow.
_SIZES = {"n", "nmax", "tmax", "oracle_max", "count"}
_RESOLVERS = ("normalize", "t_count", "equivalent", "invert")
# Checks that take ctx and never read it: one bad value (None) is enough.
_UNREAD = ("check_group_order", "check_remark_r")


def _slots(namespace, module):
    # (name, parameter) of each public callable `module` defines, no self.
    return [(name, param) for name, obj in vars(namespace).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__
            and not (isinstance(obj, type)
                     and issubclass(obj, (Enum, Exception)))
            and obj is not verify.run_all
            for param in list(inspect.signature(obj).parameters)[
                namespace in _INSTANCES:]]


_TARGETS = [(owner, *slot) for owner in (*_MODULES, *_INSTANCES)
            for slot in _slots(owner, inspect.getmodule(owner))]


@pytest.fixture(scope="module")
def valid(table, rules):
    # By parameter name; "callable.parameter" overrides it for one callable.
    return {
        "a": 1, "b": 0, "c": 0, "d": 0, "k": 0,
        "e00": ring.ONE, "e01": ring.ZERO, "e10": ring.ZERO, "e11": ring.ONE,
        "c0": ring.ONE, "StateVec.c1": ring.ZERO, "state": ring.KET0,
        "generators": [("P", ring.P)], "table": table,
        "mat": ring.P, "key": ring.H.scaled_key(),
        "rules": rules, "text": "HT", "rows": [],
        "position": 0, "character": "x", "blocks": (), "cliff": 0,
        "circuit": "HT", "c1": "HT", "c2": "TH", "gates": ring.GATES,
        "nf": NormalForm((Block.HT,), 0),
        "x": (0, 0), "y": (0, 0), "z": (1, 0), "level": 0, "w0": 0,
        "st": StabTriple((0, 0), (0, 0), (1, 0), 0), "block": Block.HT,
        "m": ring.IDENTITY,
        "n": 1, "exact": False, "with_oracle": False,
        "ctx": {"table": table, "rules": rules}, "nmax": 1,
        "oracle_max": 1, "tmax": 1, "count": 1, "seed": 0,
        "name": "x", "ok": True, "detail": "", "seconds": 0.0,
    }


def _named(name, param, bad):
    """The (exception, message) that a named guard raises for `bad` in
    this slot, or None where no guard does; a message of None is free."""
    kind = type(bad).__name__
    if param == "table" and name not in _RESOLVERS and (
            bad is not None or name not in ("render", "normal_form_matrix")):
        return TypeError, f"{name}() table must be a GroupTable, not {kind}"
    if param == "rules":
        return (TypeError,
                f"{name}() argument 'rules' must be a RuleTable, not {kind}")
    if param == "nf" and not isinstance(bad, NormalForm):
        return TypeError, f"{name}() form must be a NormalForm, not {kind}"
    if (param == "st" and bad is not _PLAIN_TRIPLE
            and name in ("classify", "parity_code", "step_block",
                         "stab_matrix", "verify_stabilizes")):
        return TypeError, f"{name}() triple must be a StabTriple, not {kind}"
    if param in ("circuit", "c1", "c2", "text") and isinstance(bad, str):
        return None
    if param in ("circuit", "c1", "c2") and name in _RESOLVERS:
        return TypeError, f"{name}() circuit must be a str, not {kind}"
    if param == "text":
        return TypeError, (f"{name}() text must be a str, not {kind}"
                           if name == "parse_fixture" else None)
    # census names its size n; a check names itself and its parameter.
    size = "n" if param == "n" else f"{name}() {param}"
    if param in _SIZES and (isinstance(bad, bool)
                            or not isinstance(bad, int)):
        return TypeError, f"{size} must be an int, not {kind}"
    if param in _SIZES and bad < 0:
        return ValueError, f"{size} must be >= 0, got {bad}"
    if param == "exact" and not isinstance(bad, bool):
        return TypeError, f"{name}() exact must be a bool, not {kind}"
    if name == "RingElem" and not isinstance(bad, int):
        return (TypeError, "RingElem() coefficients and exponent must be "
                f"int, not {kind}")
    if name == "RingElem" and param == "k" and bad < 0:
        return ValueError, f"denominator exponent must be >= 0, got {bad}"
    if name in ("UMat2", "StateVec"):
        return TypeError, f"{name}() entries must be RingElem, not {kind}"
    if name == "apply" and bad is not ring.KET0:
        return TypeError, f"apply() argument must be a StateVec, not {kind}"
    if name == "verify_stabilizes" and param == "m" and bad is not ring.H:
        return TypeError, f"verify_stabilizes() m must be a UMat2, not {kind}"
    if param == "ctx" and name not in _UNREAD:
        if bad is _MISMATCHED_CTX:
            return (ValueError,
                    f"{name}() ctx['table'] is not ctx['rules'].table")
        if isinstance(bad, dict) and bad:
            return _named(name, "table" if bad["table"] is None else "rules",
                          None)
        return TypeError, f"{name}() ctx needs 'table' and 'rules'"
    return None


@pytest.mark.parametrize("owner, name, param", _TARGETS, ids=[
    f"{owner.__name__.rpartition('.')[2]}.{name}({param})"
    for owner, name, param in _TARGETS])
def test_a_bad_argument_raises_a_named_exception(owner, name, param, valid):
    fn = getattr(_INSTANCES.get(owner, owner) or valid["table"], name)
    params = inspect.signature(fn).parameters
    for bad in _BAD:
        if (bad is _BIG and param in _SIZES
                or name in _UNREAD and bad is not None):
            continue
        args = {p: valid.get(f"{name}.{p}", valid[p]) for p in params}
        args[param] = bad
        where = f"{name}({param}={bad!r})"
        try:
            fn(**args)
            got = None
        except Exception as exc:
            got = exc
        assert got is None or isinstance(got, (TypeError, ValueError)) \
            or type(got).__module__.startswith("hptcanon."), \
            f"{where} leaks {got!r}"
        want = _named(name, param, bad)
        if want is not None:
            kind, message = want
            assert type(got) is kind and message in (None, str(got)), \
                f"{where} raised {got!r}, not {kind.__name__}({message!r})"
