"""Benchmark of hptcanon: one seeded workload per run, checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload canon --seed 1 --seconds 25 --trace 0

The workloads are canon, matrix, census and cli (see NOTES.md).  The
package is imported from src/, and the cli workload starts it as the
`hptcanon` console script would.  A readable report goes to stderr.  The
last line on stdout is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run, whose
spans are written to .bench_build/perfbench/.  Exit code 0 means every
checked answer was right, 1 that some were wrong, 2 that the benchmark
could not run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REF_SECONDS, reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 7
FLOOR_RUNS = 7
# A fresh interpreter times import plus the table and rule build, and
# the reference work before and after it.
SETUP_CODE = f"""import sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from calib import reference
before = reference()
t0 = time.perf_counter()
from hptcanon.group import build_standard_table
from hptcanon.rules import build_rules
build_rules(build_standard_table())
t1 = time.perf_counter()
print(t1 - t0, (before + reference()) / 2)
"""
IMPORT_CODE = """import time
t0 = time.perf_counter()
import hptcanon.cli
print(time.perf_counter() - t0)
"""
TRACE_SETUP_BUILDS = 3


def child_seconds(code, env):
    """Seconds a fresh interpreter prints for its own timed sections."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=60, check=True)
    return [float(v) for v in proc.stdout.split()]


def spawn_ms(argv, env):
    start = time.perf_counter()
    subprocess.run(argv, capture_output=True, env=env, timeout=60, check=True)
    return (time.perf_counter() - start) * 1e3


def samples(fn, runs):
    fn()  # the first run may compile bytecode caches
    return [fn() for _ in range(runs)]


class Rounds:
    """Timed rounds.  Every step of a round is bracketed by reference
    runs, and the step's time over their mean is its ratio."""

    def __init__(self, work, seconds, min_rounds):
        self.times, self.steps, self.step_ratios = [], {}, {}
        refs = []
        ref = reference()
        start = time.perf_counter()
        while (len(self.times) < min_rounds
               or time.perf_counter() - start < seconds):
            out, raw = [], 0.0
            for name, step in work.steps():
                t0 = time.perf_counter()
                out += step()
                dt = time.perf_counter() - t0
                after = reference()
                raw += dt
                self.steps.setdefault(name, []).append(dt)
                self.step_ratios.setdefault(name, []).append(
                    dt / ((ref + after) / 2))
                refs.append(after)
                ref = after
            self.times.append(raw)
            work.record(out)
        self.ref = statistics.median(refs)

    def batch_ref(self):
        """A round in reference units: the sum over steps of each step's
        median ratio, so one disturbed step does not move the round."""
        return sum(map(statistics.median, self.step_ratios.values()))


def percentile(values, pct):
    """0.0 for a workload that took no such samples."""
    if not values:
        return 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def build_context():
    from hptcanon import group, rules
    table = group.build_standard_table()
    return table, rules.build_rules(table)


def make_workload(name, seed, table, rules):
    from workloads import WORKLOADS, Cli
    if WORKLOADS[name] is Cli:
        return Cli(seed, table, rules, SRC)
    return WORKLOADS[name](seed, table, rules)


def end_to_end(args, env):
    setup = samples(lambda: child_seconds(SETUP_CODE, env), SETUP_RUNS)
    work = make_workload(args.workload, args.seed, *build_context())
    try:
        Rounds(work, 0, 1)  # warm-up, checked but not reported
        rounds = Rounds(work, args.seconds, 3)
    finally:
        work.close()
    metrics = {
        "setup_s": (statistics.median(raw / ref for raw, ref in setup)
                    * REF_SECONDS, "s"),
        "batch_ref": (rounds.batch_ref(), "ref"),
        "peak_rss_mb": (work.peak_rss_mb(), "MB"),
    }
    report = dict(work.headline(rounds.steps),
                  setup_wall_s=(statistics.median(r for r, _ in setup), "s"),
                  batch_s=(statistics.median(rounds.times), "s"),
                  ref_s=(rounds.ref, "s"),
                  rounds=(len(rounds.times), "count"),
                  fail_ratio=(work.failed / work.attempted, "ratio"))
    return work, metrics, report


def per_layer(args, env):
    from hptcanon import group, rules as rules_mod
    from tracer import Tracer
    from workloads import Canon, Census, Cli, SUBCOMMANDS, closed_form

    tracer = Tracer()
    tracer.install()
    for _ in range(TRACE_SETUP_BUILDS):
        table = group.build_standard_table()
        rules = rules_mod.build_rules(table)
    rules_mod.check_fixture(
        rules, rules_mod.parse_fixture(rules_mod.load_bundled_fixture()))
    tracer.uninstall()
    setup_self = tracer.layer_self_s()

    work = make_workload(args.workload, args.seed, table, rules)
    try:
        Rounds(work, 0, 1)  # warm-up, checked but not reported
        if isinstance(work, Census):
            work.seconds.clear()
        plain = Rounds(work, args.seconds / 2, 2)
        plain_checks = dict(getattr(work, "seconds", {}))
        latencies = []
        if isinstance(work, Canon):
            latencies = work.short_latencies() + work.short_latencies()

        tracer.install()
        work.tracer = tracer
        try:
            traced = Rounds(work, 0, work.traced_rounds)
        finally:
            work.tracer = None
            tracer.uninstall()
    finally:
        work.close()

    bare_ms = statistics.median(samples(
        lambda: spawn_ms([sys.executable, "-c", "pass"], env), FLOOR_RUNS))
    import_ms = statistics.median(
        s for s, in samples(lambda: child_seconds(IMPORT_CODE, env),
                            FLOOR_RUNS)) * 1e3

    oracle = tracer.last.get("census.brute_force_mn")
    if oracle is not None:
        want = tuple(closed_form(k) - (closed_form(k - 1) if k else 0)
                     for k in range(len(oracle[1])))
        if oracle[1] != want:
            work.failed += work.problem(f"oracle layers {oracle[1]} != {want}")

    t = tracer
    layer_self = t.layer_self_s()
    round_self = {k: v - setup_self[k] for k, v in layer_self.items()}
    traced_s = sum(traced.times)
    counts = work.counts()
    t_in, blocks_out = counts.get("t_in", 0), counts.get("blocks_out", 0)
    vu_calls = t.calls("census.verify_uniqueness")
    enum_s = t.inclusive_s("census.enumerate_normal_forms")
    steps = plain.steps if isinstance(work, Cli) else {}
    cold = [dt for sub in SUBCOMMANDS for dt in steps.get(sub, ())]
    m = {
        "ring.evaluate_us_per_gate": (t.per_unit("normalize.evaluate", 1e3),
                                      "us/gate"),
        "ring.nf_matrix_us": (t.per_call("normalize.normal_form_matrix", 1e3),
                              "us"),
        "ring.apply_us": (t.per_call("UMat2.apply", 1e3), "us"),
        "ring.key_us": (t.per_call("UMat2.scaled_key", 1e3), "us"),
        "ring.den_exp_mean": (counts.get("den_exp_mean", 0), "count"),
        "ring.self_share": (round_self["ring"] / traced_s, "ratio"),
        "normalize.parse_ns_per_gate": (t.per_unit("normalize.parse", 1),
                                        "ns/gate"),
        "normalize.ns_per_gate": (t.per_unit("normalize.normalize", 1),
                                  "ns/gate"),
        "normalize.render_ns_per_block": (t.per_unit("normalize.render", 1),
                                          "ns/block"),
        "normalize.call_p50_us": (percentile(latencies, 50) * 1e6, "us"),
        "normalize.call_p99_us": (percentile(latencies, 99) * 1e6, "us"),
        "normalize.equiv_us": (t.per_call("normalize.equivalent", 1e3), "us"),
        "normalize.invert_ns_per_gate": (t.per_unit("normalize.invert", 1),
                                         "ns/gate"),
        "normalize.self_share": (round_self["normalize"] / traced_s, "ratio"),
        "normalize.t_in": (t_in, "count"),
        "normalize.blocks_out": (blocks_out, "count"),
        "normalize.merge_ratio": (
            (t_in - blocks_out) / 2 / t_in if t_in else 0, "ratio"),
        "group.build_s": (t.per_call("group.build_standard_table", 1e9), "s"),
        "rules.build_s": (t.per_call("rules.build_rules", 1e9), "s"),
        "rules.check_fixture_s": (t.per_call("rules.check_fixture", 1e9), "s"),
        "stab.initial_us": (t.per_call("stab.initial_stab", 1e3), "us"),
        "stab.fold_us_per_block": (t.per_call("stab.step_block", 1e3),
                                   "us/block"),
        "stab.verify_us": (t.per_call("stab.verify_stabilizes", 1e3), "us"),
        "stab.witness_us": (t.per_call("stab.nonidentity_witness", 1e3), "us"),
        "stab.law_checks": (counts.get("law_checks", 0), "count"),
        "census.enumerate_forms_per_s": (
            t.units("census.enumerate_normal_forms") / enum_s
            if enum_s else 0.0, "forms/s"),
        "census.uniqueness_s": (
            (t.inclusive_s("census.verify_uniqueness")
             - t.inclusive_s("census.brute_force_mn")) / vu_calls
            if vu_calls else 0.0, "s"),
        "census.oracle_s": (t.per_call("census.brute_force_mn", 1e9), "s"),
        "census.oracle_keys": (len(oracle[0]) if oracle else 0, "count"),
        "census.oracle_products": (
            t.units("census.brute_force_mn")
            // max(t.calls("census.brute_force_mn"), 1), "count"),
    }
    for check in ("counting", "uniqueness", "oracle-match",
                  "stabilizer-chains"):
        m[f"verify.{check.replace('-', '_')}_s"] = (
            percentile(plain_checks.get(check), 50), "s")
    m["cli.bare_python_ms"] = (bare_ms, "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_p50_ms"] = (percentile(steps.get(sub), 50) * 1e3, "ms")
    m["cli.cold_p50_ms"] = (percentile(cold, 50) * 1e3, "ms")
    m["cli.cold_p90_ms"] = (percentile(cold, 90) * 1e3, "ms")
    for layer, secs in layer_self.items():
        m[f"{layer}.self_s"] = (secs, "s")
    m["trace.overhead_ratio"] = (traced.batch_ref() / plain.batch_ref(),
                                 "ratio")
    m["trace.spans"] = (len(t.spans) + t.dropped, "count")

    header = {"workload": args.workload, "seed": args.seed,
              "digest": work.digest(), "counts": counts,
              "oracle_layers": list(oracle[1]) if oracle else None,
              "layer_of": t.layer_of}
    t.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", header)
    report = {"plain_rounds": (len(plain.times), "count"),
              "traced_rounds": (len(traced.times), "count"),
              "ref_s": (plain.ref, "s"),
              "fail_ratio": (work.failed / work.attempted, "ratio")}
    return work, m, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("canon", "matrix", "census", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hptcanon" / "__init__.py").is_file():
        print(f"error: no hptcanon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import child_env
    env = child_env(SRC)

    run = per_layer if args.trace else end_to_end
    work, metrics, report = run(args, env)

    print(f"# hptcanon {args.workload} seed={args.seed} "
          f"digest={work.digest()} python={platform.python_version()} "
          f"cpus={len(os.sched_getaffinity(0))}",
          file=sys.stderr)
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    for text in work.problems:
        print(f"FAIL {text}", file=sys.stderr)
    correct = work.failed == 0
    print("PASS" if correct else f"FAIL: {work.failed} of {work.attempted} "
          "operations wrong", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
