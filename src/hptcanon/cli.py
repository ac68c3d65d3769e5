"""Command-line surface: canonicalize, compare, count, enumerate, verify.

Exit codes: 0 success, 1 usage or circuit parse error, 2 verification
failure.  Results go to standard output, diagnostics (parse errors,
timings, counterexamples) to standard error.  Output is deterministic:
no timestamps and no iteration over unordered containers.
"""

import argparse
import os
import sys

# census, stab, verify and json are imported inside the subcommands that
# use them, so that the other subcommands do not pay for their import.
from . import rules as rules_mod
from .normalize import (ParseError, _default_rules, equivalent, evaluate,
                        normal_form_matrix, normalize, parse, render, t_count)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for verification
    # failures here, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonneg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _build_parser():
    parser = _Parser(
        prog="hptcanon",
        description="Exact canonicalizer for single-qubit circuits over "
                    "H, P, and T.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("normalize", help="print the normal form of a circuit")
    p.add_argument("circuit")

    p = sub.add_parser("equiv",
                       help="decide whether two circuits compute the same "
                            "matrix")
    p.add_argument("circuit1")
    p.add_argument("circuit2")

    p = sub.add_parser("tcount",
                       help="print the minimal number of T gates needed for "
                            "a circuit's matrix")
    p.add_argument("circuit")

    p = sub.add_parser("matrix", help="print the exact matrix as JSON")
    p.add_argument("circuit")

    p = sub.add_parser("stab",
                       help="print the stabilizer trace of a circuit's "
                            "normal form")
    p.add_argument("circuit")

    p = sub.add_parser("count",
                       help="count matrices computable within a T budget")
    p.add_argument("n", type=_nonneg)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="count matrices needing exactly n T gates")
    mode.add_argument("--oracle", action="store_true",
                      help="count by brute-force closure instead of the "
                           "closed form")

    p = sub.add_parser("enumerate",
                       help="stream every normal form with at most n T gates")
    p.add_argument("n", type=_nonneg)

    p = sub.add_parser("tables",
                       help="dump the Clifford group or rewrite rules, or "
                            "check the bundled rule fixture")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump-group", action="store_true",
                      help="one line per element: id, word, coset, matrix")
    mode.add_argument("--emit-rules", action="store_true",
                      help="print all 192 rewrite rules")
    mode.add_argument("--check-appendix", nargs="?", const="", default=None,
                      metavar="PATH",
                      help="check a rule fixture file (default: bundled) "
                           "against the generated rules")

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--tmax", type=_nonneg, default=5,
                   help="T budget for the uniqueness sweep (default 5)")
    p.add_argument("--oracle-max", type=_nonneg, default=4,
                   help="T budget for the brute-force oracle (default 4)")

    return parser


def _cmd_normalize(args):
    print(render(normalize(parse(args.circuit))))
    return 0


def _cmd_equiv(args):
    same = equivalent(parse(args.circuit1), parse(args.circuit2))
    print("equivalent" if same else "inequivalent")
    return 0


def _cmd_tcount(args):
    print(t_count(parse(args.circuit)))
    return 0


def _cmd_matrix(args):
    import json
    mat = evaluate(parse(args.circuit))
    print(json.dumps(mat.to_json_dict(), separators=(",", ":")))
    return 0


def _cmd_stab(args):
    from . import stab
    nf = normalize(parse(args.circuit))
    for st in stab.stab_trace(nf, _default_rules().table):
        print(f"ℓ={st.level} x=({st.x[0]},{st.x[1]}) "
              f"y=({st.y[0]},{st.y[1]}) z=({st.z[0]},{st.z[1]}) "
              f"class={stab.classify(st).name}")
    return 0


def _cmd_count(args):
    # The oracle's sets grow as 3*order*2**(n-1), so n is capped at 4.
    if args.oracle and args.n > 4:
        print(f"error: oracle capped at n=4, requested {args.n}",
              file=sys.stderr)
        return 1
    from . import census
    if args.oracle:
        matrices, _ = census.brute_force_mn(args.n, _default_rules().table)
        count = len(matrices)
    else:
        count = census.count_closed_form(args.n, exact=args.exact)
    try:
        print(count)
    except ValueError:
        # CPython >= 3.11 caps int -> str at 4300 digits; Decimal does not.
        from decimal import Decimal
        print(Decimal(count))
    return 0


def _cmd_enumerate(args):
    import json
    from . import census
    table = _default_rules().table
    write = sys.stdout.write
    for nf in census.enumerate_normal_forms(args.n, table):
        obj = {
            "blocks": [table.block_labels[b] for b in nf.blocks],
            "clifford": table.words[nf.cliff] or "I",
            "tcount": len(nf.blocks),
            "matrix": normal_form_matrix(nf, table).to_json_dict(),
        }
        write(json.dumps(obj, separators=(",", ":")) + "\n")
    return 0


def _cmd_tables(args):
    rules = _default_rules()
    table = rules.table
    if args.dump_group:
        import json
        for gid in range(table.order):
            word = table.words[gid] or "I"
            tag = "S_" + table.syndrome_labels[table.coset_slots[gid]]
            mat = json.dumps(table.elements[gid].to_json_dict(),
                             separators=(",", ":"))
            print(f"{gid}\t{word}\t{tag}\t{mat}")
        return 0
    if args.emit_rules:
        sys.stdout.write(rules_mod.emit_rules(rules))
        return 0
    try:
        if args.check_appendix:
            with open(args.check_appendix, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = rules_mod.load_bundled_fixture()
        rows = rules_mod.parse_fixture(text)
    except ValueError as exc:
        # A malformed line, or a file that is not UTF-8.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = rules_mod.check_fixture(rules, rows)
    if problems:
        print(problems[0], file=sys.stderr)
        print(f"appendix check: {len(rows)} rows, {len(problems)} mismatches",
              file=sys.stderr)
        return 2
    print(f"appendix check: {len(rows)} rows, 0 mismatches")
    return 0


def _cmd_verify(args):
    from . import verify
    results = verify.run_all(tmax=args.tmax, oracle_max=args.oracle_max)
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
        print(f"{res.name}: {res.seconds:.2f}s", file=sys.stderr)
    return 0 if all(res.ok for res in results) else 2


_DISPATCH = {
    "normalize": _cmd_normalize,
    "equiv": _cmd_equiv,
    "tcount": _cmd_tcount,
    "matrix": _cmd_matrix,
    "stab": _cmd_stab,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "tables": _cmd_tables,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"parse error at position {exc.position}: "
              f"unexpected character {exc.character!r}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed early (e.g. `enumerate 12 | head`); silence the
        # flush-at-exit complaint and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
