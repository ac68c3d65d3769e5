"""The four workloads: seeded inputs, one round of work, and its checks.

Each round is closed loop with one caller: the next call starts when the
previous one returns.  Every reference is computed here, never by the
code being timed: closed-form counts, equivalences known by how the pair
was built, the T-count parity rule, and a complex-float matrix product.
Inputs are stratified (fixed lengths and T densities, seeded content) so
that the work per round does not depend on the seed.
"""

import functools
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calib import OMEGA, float_matrix
from hptcanon import normalize as nz, verify

DENSITIES = (0.05, 0.33, 0.70)
# Words equal to the identity matrix: H^2, P^4, T^8 and (HP)^24, since
# (HP)^3 is the scalar omega*I and omega^8 = 1.
IDENTITIES = ("HH", "PPPP", "T" * 8, "HP" * 24)
ORDER = 192


def closed_form(n):
    """|M_n|: matrices reachable with at most n T gates."""
    return ORDER * (3 * 2 ** n - 2)


def word(rng, n, density):
    rest = (1 - density) / 2
    return "".join(rng.choices("HPT", weights=(rest, rest, density), k=n))


def variant(rng, base, k):
    """(other, equivalent): even k inserts an identity word into base; odd
    k substitutes one gate, and a*g*b = a*g'*b would force g = g'."""
    if k % 2 == 0:
        pos = rng.randint(0, len(base))
        return base[:pos] + IDENTITIES[k // 2 % 4] + base[pos:], True
    pos = rng.randrange(len(base))
    sub = rng.choice([ch for ch in "HPT" if ch != base[pos]])
    return base[:pos] + sub + base[pos + 1:], False


def tcount_ok(circuit, tc):
    # The minimal T-count never exceeds the T gates written and has the
    # same parity (the determinant fixes #T mod 2).
    nt = circuit.count("T")
    return 0 <= tc <= nt and (nt - tc) % 2 == 0


def head_blocks(rendered):
    """Number of T blocks in a rendered normal form 'B.B.B|tail'."""
    return rendered.partition("|")[0].count("T")


def _close(got, circuit):
    # Entries are at most 1 in size; float error over 1.6e5 gates is ~1e-11.
    return max(abs(x - y) for x, y in zip(got, float_matrix(circuit))) < 1e-6


def same_matrix(circuit, rendered):
    """The rendered normal form and the circuit have equal float matrices."""
    letters = rendered.replace(".", "").replace("|", "").replace("I", "")
    return _close(float_matrix(letters), circuit)


def matrix_close(obj, circuit):
    """The JSON matrix form {"den_exp", "entries"} is the circuit's."""
    scale = 2 ** (-obj["den_exp"] / 2)
    got = [sum(int(v) * OMEGA ** j for j, v in enumerate(entry)) * scale
           for row in obj["entries"] for entry in row]
    return _close(got, circuit)


class Workload:
    """Holds the inputs; counts attempted and failed operations.

    A round is the list of (name, step) pairs from steps(); each step
    returns its outputs, and the round's outputs are their concatenation.
    """

    traced_rounds = 1

    def __init__(self, seed, table, rules):
        self.seed = seed
        self.table, self.rules = table, rules
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = None
        self._first_failed = 0

    def record(self, out):
        """Check one round's outputs.  A round identical to the first
        reuses the first round's verdict."""
        self.attempted += len(out)
        if self._first is None:
            self._first = out
            self._first_failed = self.check(out)
            self.failed += self._first_failed
        elif out == self._first:
            self.failed += self._first_failed
        else:
            self.failed += self.check(out)

    def problem(self, text):
        if len(self.problems) < 5:
            self.problems.append(text)
        return 1

    def digest(self):
        return hashlib.sha256(repr(self.inputs()).encode()).hexdigest()[:16]

    def counts(self):
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


class Canon(Workload):
    """Canonicalize, decide equivalence, count T, invert."""

    traced_rounds = 3
    N_SHORT = 3840          # 20 x (64 lengths x 3 densities)
    LONG = (10_000, 40_000, 160_000)
    N_PAIRS = 960
    N_INVERT = 192

    def __init__(self, seed, table, rules):
        super().__init__(seed, table, rules)
        rng = random.Random(seed)
        cells = [(1 + i % 64, DENSITIES[i // 64 % 3])
                 for i in range(self.N_SHORT)]
        self.short = [word(rng, n, d) for n, d in cells]
        self.long = [word(rng, n, d) for n in self.LONG for d in DENSITIES]
        self.pairs = []
        for i in range(self.N_PAIRS):
            n, d = cells[i]
            base = word(rng, n, d)
            self.pairs.append((base, *variant(rng, base, i)))
        self.inverses = [word(rng, *cells[i]) for i in range(self.N_INVERT)]

    def inputs(self):
        return self.short, self.long, self.pairs, self.inverses

    def steps(self):
        return (("short", self.canonicalize_short),
                ("long", self.canonicalize_long),
                ("equiv", self.decide_pairs),
                ("invert", self.round_trips))

    def canonicalize_short(self):
        parse, normalize, render = nz.parse, nz.normalize, nz.render
        t_count, table, rules = nz.t_count, self.table, self.rules
        out = []
        for text in self.short:
            try:
                w = parse(text)
                out.append((render(normalize(w, table, rules), table),
                            t_count(w, table, rules)))
            except Exception as exc:
                out.append(repr(exc))
        return out

    def canonicalize_long(self):
        parse, normalize, render = nz.parse, nz.normalize, nz.render
        table, rules = self.table, self.rules
        out = []
        for text in self.long:
            try:
                out.append(render(normalize(parse(text), table, rules), table))
            except Exception as exc:
                out.append(repr(exc))
        return out

    def decide_pairs(self):
        parse, equivalent = nz.parse, nz.equivalent
        table, rules = self.table, self.rules
        out = []
        for a, b, _ in self.pairs:
            try:
                out.append(equivalent(parse(a), parse(b), table, rules))
            except Exception as exc:
                out.append(repr(exc))
        return out

    def round_trips(self):
        parse, normalize, render = nz.parse, nz.normalize, nz.render
        invert, table, rules = nz.invert, self.table, self.rules
        out = []
        for text in self.inverses:
            try:
                back = render(invert(parse(text), table, rules), table)
                out.append(render(normalize(parse(text + back), table, rules),
                                  table))
            except Exception as exc:
                out.append(repr(exc))
        return out

    def short_latencies(self):
        """Per-call latency of the short-circuit operation, in seconds."""
        parse, normalize, render = nz.parse, nz.normalize, nz.render
        t_count = nz.t_count
        table, rules = self.table, self.rules
        clock = time.perf_counter
        lat = []
        for text in self.short:
            t0 = clock()
            w = parse(text)
            render(normalize(w, table, rules), table)
            t_count(w, table, rules)
            lat.append(clock() - t0)
        return lat

    def check(self, out):
        ns, nl, npairs = len(self.short), len(self.long), len(self.pairs)
        failed = 0
        for text, res in zip(self.short, out[:ns]):
            if not (isinstance(res, tuple) and tcount_ok(text, res[1])
                    and head_blocks(res[0]) == res[1]
                    and same_matrix(text, res[0])):
                failed += self.problem(f"canon short {text!r}: {res!r}")
        for text, res in zip(self.long, out[ns:ns + nl]):
            if not (isinstance(res, str) and "|" in res
                    and tcount_ok(text, head_blocks(res))
                    and same_matrix(text, res)):
                failed += self.problem(f"canon long ({len(text)} gates): "
                                       f"{str(res)[:80]}")
        for (a, b, want), res in zip(self.pairs, out[ns + nl:ns + nl + npairs]):
            if res is not want:
                failed += self.problem(f"canon equiv {a!r} {b!r}: {res!r}, "
                                       f"want {want}")
        for text, res in zip(self.inverses, out[ns + nl + npairs:]):
            if res != "|I":
                failed += self.problem(f"canon invert {text!r}: {res!r}")
        return failed

    def counts(self):
        out = self._first
        texts = self.short + self.long
        blocks = [r[1] for r in out[:len(self.short)]]
        blocks += [head_blocks(r) for r in out[len(self.short):len(texts)]]
        return {"t_in": sum(t.count("T") for t in texts),
                "blocks_out": sum(blocks)}

    def headline(self, steps):
        return {"gates_per_s": (sum(map(len, self.long))
                                / median(steps["long"]), "gates/s"),
                "calls_per_s": (len(self.short) / median(steps["short"]),
                                "calls/s"),
                "equiv_per_s": (len(self.pairs) / median(steps["equiv"]),
                                "decisions/s")}


class Matrix(Workload):
    """Exact matrix of each circuit, cross-checked, keyed and emitted."""

    traced_rounds = 3
    N_SHORT = 427            # 7 x lengths 0..60
    TAIL = (1000, 2000, 4000)

    def __init__(self, seed, table, rules):
        super().__init__(seed, table, rules)
        rng = random.Random(seed)
        lengths = [i % 61 for i in range(self.N_SHORT)] + list(self.TAIL)
        self.circuits = [word(rng, n, 1 / 3) for n in lengths]

    def inputs(self):
        return self.circuits

    def steps(self):
        # Steps of similar length: two halves of the short circuits, then
        # the tail.
        half = self.N_SHORT // 2
        chunks = (self.circuits[:half], self.circuits[half:self.N_SHORT],
                  self.circuits[self.N_SHORT:-1], self.circuits[-1:])
        return tuple((f"part{i}", functools.partial(self.pipeline, chunk))
                     for i, chunk in enumerate(chunks))

    def pipeline(self, circuits):
        parse, evaluate, normalize = nz.parse, nz.evaluate, nz.normalize
        nf_matrix, dumps = nz.normal_form_matrix, json.dumps
        table, rules = self.table, self.rules
        out = []
        for text in circuits:
            try:
                w = parse(text)
                m = evaluate(w)
                nf = normalize(w, table, rules)
                same = nf_matrix(nf, table) == m
                key = m.scaled_key()
                js = dumps(m.to_json_dict(), separators=(",", ":"))
                out.append((same, len(nf.blocks), key[0], js))
            except Exception as exc:
                out.append(repr(exc))
        return out

    def check(self, out):
        failed = 0
        for text, res in zip(self.circuits, out):
            ok = isinstance(res, tuple) and res[0] is True
            if ok:
                obj = json.loads(res[3])
                ok = (obj["den_exp"] == res[2] and tcount_ok(text, res[1])
                      and matrix_close(obj, text))
            if not ok:
                failed += self.problem(f"matrix {text[:40]!r} "
                                       f"({len(text)} gates): {str(res)[:80]}")
        return failed

    def counts(self):
        out = self._first
        return {"t_in": sum(t.count("T") for t in self.circuits),
                "blocks_out": sum(r[1] for r in out),
                "den_exp_mean": sum(r[2] for r in out) / len(out)}

    def headline(self, steps):
        round_s = median(map(sum, zip(*steps.values())))
        return {"circuits_per_s": (len(self.circuits) / round_s,
                                   "circuits/s")}


class Census(Workload):
    """The paper's reproduction through the checks behind `verify`."""

    NMAX, TMAX, ORACLE_MAX, CHAINS = 9, 4, 3, 500

    def __init__(self, seed, table, rules):
        super().__init__(seed, table, rules)
        self.seconds = {}

    def inputs(self):
        return self.NMAX, self.TMAX, self.ORACLE_MAX, self.CHAINS, self.seed

    def steps(self):
        ctx = {"table": self.table, "rules": self.rules}
        return (
            ("counting", lambda: self.run(verify.check_counting, ctx,
                                          nmax=self.NMAX)),
            ("uniqueness", lambda: self.run(verify.check_uniqueness, ctx,
                                            tmax=self.TMAX)),
            ("oracle-match", lambda: self.run(verify.check_oracle, ctx,
                                              oracle_max=self.ORACLE_MAX)),
            ("stabilizer-chains", lambda: self.run(
                verify.check_stab_chains, ctx, count=self.CHAINS,
                seed=self.seed)),
        )

    def run(self, check, ctx, **kwargs):
        try:
            res = check(ctx, **kwargs)
        except Exception as exc:
            return [repr(exc)]
        self.seconds.setdefault(res.name, []).append(res.seconds)
        return [(res.name, res.ok, res.detail)]

    def _want(self, name, detail):
        if name == "counting":
            m = re.match(r"n<=(\d+): (\d+) normal forms", detail)
            return bool(m) and int(m[2]) == closed_form(self.NMAX)
        if name == "uniqueness":
            m = re.match(r"n=(\d+): (\d+) distinct matrices", detail)
            return bool(m) and int(m[2]) == closed_form(self.TMAX)
        if name == "oracle-match":
            m = re.match(r"n=(\d+): enumeration (\d+) == oracle (\d+)", detail)
            want = closed_form(self.ORACLE_MAX)
            return bool(m) and int(m[2]) == want and int(m[3]) == want
        if name == "stabilizer-chains":
            m = re.match(r"(\d+) chains, (\d+) transition-law checks, "
                         r"(\d+) failures", detail)
            return bool(m) and int(m[1]) == self.CHAINS and m[3] == "0"
        return False

    def check(self, out):
        failed = 0
        for res in out:
            if not (isinstance(res, tuple) and res[1]
                    and self._want(res[0], res[2])):
                failed += self.problem(f"census {res!r}")
        return failed

    def counts(self):
        detail = dict((r[0], r[2]) for r in self._first)["stabilizer-chains"]
        return {"law_checks": int(re.search(r"(\d+) transition-law",
                                            detail)[1])}

    def headline(self, steps):
        return {"verdict_s": (median(map(sum, zip(*steps.values()))), "s")}


# The code of the `hptcanon` console script: import the entry point and
# exit with its return value.
ENTRY = "import sys; from hptcanon.cli import main; sys.exit(main())"
SUBCOMMANDS = ("normalize", "equiv", "tcount", "matrix", "stab", "count",
               "count_oracle", "tables")
# Linux refuses one argv string over MAX_ARG_STRLEN = 32 pages = 128 KiB
# in exec, before Python starts; circuits here stay far below it.
MAX_ARG_STRLEN = 128 * 1024


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class Cli(Workload):
    """Short `hptcanon` subcommands, one child process at a time."""

    traced_rounds = 2
    POOL = 8
    CIRCUIT, MATRIX_CIRCUIT = 1000, 60

    def __init__(self, seed, table, rules, src):
        super().__init__(seed, table, rules)
        launcher = Path(__file__).with_name("launcher.py")
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(launcher)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(src), text=True)
        self.peak_kb = 0
        rng = random.Random(seed)
        self.pool = []
        for i in range(self.POOL):
            c = word(rng, self.CIRCUIT, 1 / 3)
            other, same = variant(rng, c, i)
            self.pool.append({"c": c, "other": other, "same": same,
                              "m": word(rng, self.MATRIX_CIRCUIT, 1 / 3),
                              "n": rng.randint(0, 40)})
        self.passes = 0

    def inputs(self):
        return self.pool

    def argv(self, p):
        return (("normalize", ["normalize", p["c"]]),
                ("equiv", ["equiv", p["c"], p["other"]]),
                ("tcount", ["tcount", p["c"]]),
                ("matrix", ["matrix", p["m"]]),
                ("stab", ["stab", p["c"]]),
                ("count", ["count", str(p["n"])]),
                ("count_oracle", ["count", "--oracle", "2"]),
                ("tables", ["tables", "--check-appendix"]))

    def steps(self):
        # Each pass takes the next argument set of the pool.
        self.index = self.passes % self.POOL
        self.passes += 1
        return tuple((name, functools.partial(self.spawn, name, args))
                     for name, args in self.argv(self.pool[self.index]))

    def spawn(self, name, args):
        if max(map(len, args)) >= MAX_ARG_STRLEN:
            raise ValueError("cli argument over the argv cap")
        start = time.perf_counter_ns()
        self.launcher.stdin.write(
            json.dumps([sys.executable, "-c", ENTRY, *args]) + "\n")
        self.launcher.stdin.flush()
        answer = json.loads(self.launcher.stdout.readline())
        if self.tracer is not None:
            self.tracer.add("cli." + name, "cli", start,
                            time.perf_counter_ns())
        self.peak_kb = max(self.peak_kb, answer["maxrss_kb"])
        return [(answer["code"], answer["out"])]

    def peak_rss_mb(self):
        return self.peak_kb / 1024

    def close(self):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait(timeout=30)

    def record(self, out):
        # Every pass has other inputs, so every pass is checked.
        self.attempted += len(out)
        self.failed += self.check(out)

    def check(self, out):
        p = self.pool[self.index]
        res = dict(zip(SUBCOMMANDS, out))
        failed = 0
        for name, (code, text) in res.items():
            if code != 0:
                failed += self.problem(f"cli {name} exit {code}: {text[:80]}")
        lines = {name: text.strip() for name, (code, text) in res.items()
                 if code == 0}

        def ok(name, test):
            if name not in lines:
                return 0
            try:
                good = test(lines[name])
            except (ValueError, KeyError, TypeError):
                good = False
            return 0 if good else self.problem(
                f"cli {name}: {lines[name][:80]!r}")

        tc = int(lines["tcount"]) if lines.get("tcount", "").isdigit() else -1
        failed += ok("normalize", lambda s: head_blocks(s) == tc
                     and tcount_ok(p["c"], head_blocks(s))
                     and same_matrix(p["c"], s))
        failed += ok("equiv", lambda s: s == ("equivalent" if p["same"]
                                              else "inequivalent"))
        failed += ok("tcount", lambda s: tcount_ok(p["c"], int(s)))
        failed += ok("matrix", lambda s: matrix_close(json.loads(s), p["m"]))
        failed += ok("stab", lambda s: [ln.split()[0] for ln in s.splitlines()]
                     == [f"ℓ={k}" for k in range(tc + 1)])
        failed += ok("count", lambda s: int(s) == closed_form(p["n"]))
        failed += ok("count_oracle", lambda s: int(s) == closed_form(2))
        failed += ok("tables",
                     lambda s: s == "appendix check: 192 rows, 0 mismatches")
        return failed

    def headline(self, steps):
        return {"cold_p50_ms": (median(t for name in SUBCOMMANDS
                                       for t in steps[name]) * 1e3, "ms")}


WORKLOADS = {"canon": Canon, "matrix": Matrix, "census": Census, "cli": Cli}
