"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hptcanon import cli, verify
from hptcanon.census import count_closed_form


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, err = run(capsys, "normalize", "HPPHT")
    assert (code, out) == (0, "T|HPHPPPH\n")
    code, out, _ = run(capsys, "normalize", "TT")
    assert (code, out) == (0, "|P\n")
    code, out, _ = run(capsys, "normalize", "")
    assert (code, out) == (0, "|I\n")


def test_normalize_parse_error(capsys):
    code, out, err = run(capsys, "normalize", "HXT")
    assert code == 1
    assert out == ""
    assert "parse error at position 1" in err


def test_equiv(capsys):
    assert run(capsys, "equiv", "HHP", "PHH")[:2] == (0, "equivalent\n")
    assert run(capsys, "equiv", "T", "P")[:2] == (0, "inequivalent\n")
    assert run(capsys, "equiv", "HPPHT", "THPHPPPH")[:2] == \
        (0, "equivalent\n")


def test_tcount(capsys):
    assert run(capsys, "tcount", "TT")[:2] == (0, "0\n")
    assert run(capsys, "tcount", "THTHT")[:2] == (0, "3\n")


def test_matrix(capsys):
    code, out, _ = run(capsys, "matrix", "T")
    assert code == 0
    assert json.loads(out) == {
        "den_exp": 0,
        "entries": [[[1, 0, 0, 0], [0, 0, 0, 0]],
                    [[0, 0, 0, 0], [0, 1, 0, 0]]],
    }


def test_stab_trace(capsys):
    code, out, _ = run(capsys, "stab", "T")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ℓ=0 x=(0,0) y=(0,0) z=(1,0) class=OTHER"
    assert lines[1] == "ℓ=1 x=(0,0) y=(0,0) z=(0,1) class=OTHER"

    code, out, _ = run(capsys, "stab", "HPH")
    assert code == 0
    assert len(out.splitlines()) == 1  # no blocks, initial line only

    code, out, _ = run(capsys, "stab", "THTHTH")
    assert (code, out.splitlines()) == (0, [
        "ℓ=0 x=(1,0) y=(0,0) z=(0,0) class=OTHER",
        "ℓ=1 x=(0,0) y=(-1,0) z=(1,0) class=OTHER",
        "ℓ=2 x=(0,1) y=(1,0) z=(1,0) class=T4",
        "ℓ=3 x=(-1,1) y=(1,1) z=(0,1) class=T9",
    ])


def test_count(capsys):
    assert run(capsys, "count", "2")[:2] == (0, "1920\n")
    assert run(capsys, "count", "3")[:2] == (0, "4224\n")
    assert run(capsys, "count", "3", "--exact")[:2] == (0, "2304\n")
    assert run(capsys, "count", "2", "--oracle")[:2] == (0, "1920\n")


def test_count_oracle_cap(capsys):
    for n in (5, 9):
        assert run(capsys, "count", str(n), "--oracle") == (
            1, "", f"error: oracle capped at n=4, requested {n}\n")


def _parse_decimal(text):
    # int(text) is capped at 4300 digits on CPython >= 3.11; chunks are not.
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_count_prints_every_digit_for_large_n(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    for argv in (["14276"], ["20000", "--exact"], ["20000"]):
        code, out, err = run(capsys, "count", *argv)
        assert (code, err) == (0, "")
        digits = out.removesuffix("\n")
        assert digits.isdigit() and out.endswith("\n")
        assert _parse_decimal(digits) == count_closed_form(
            int(argv[0]), exact="--exact" in argv)
    assert len(digits) == 6024  # count 20000
    assert limit() == before


def test_import_leaves_census_stab_and_verify_unloaded():
    # Subcommands import these when they need them, so a cold start of
    # the others does not pay for them.  The child runs with -S, so no
    # site hook can load any of them first.
    heavy = ("hptcanon.census", "hptcanon.stab", "hptcanon.verify",
             "json", "importlib.resources", "cmath")
    code = (f"import sys, hptcanon.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_count_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "-3"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "2", "--exact", "--oracle"])
    assert exc.value.code == 1


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 768
    first = json.loads(lines[0])
    assert first == {
        "blocks": [], "clifford": "I", "tcount": 0,
        "matrix": {"den_exp": 0,
                   "entries": [[[1, 0, 0, 0], [0, 0, 0, 0]],
                               [[0, 0, 0, 0], [1, 0, 0, 0]]]},
    }
    tallies = {}
    for ln in lines:
        obj = json.loads(ln)
        assert set(obj) == {"blocks", "clifford", "tcount", "matrix"}
        assert obj["tcount"] == len(obj["blocks"])
        tallies[obj["tcount"]] = tallies.get(obj["tcount"], 0) + 1
    assert tallies == {0: 192, 1: 576}


def test_tables_dump_group(capsys):
    code, out, _ = run(capsys, "tables", "--dump-group")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 192
    fields = lines[0].split("\t")
    assert fields[:3] == ["0", "I", "S_I"]
    assert lines[1].split("\t")[:3] == ["1", "H", "S_H"]
    assert json.loads(fields[3])["den_exp"] == 0
    tags = {ln.split("\t")[2] for ln in lines}
    assert tags == {"S_I", "S_H", "S_PH"}


def test_tables_emit_rules(capsys):
    code, out, _ = run(capsys, "tables", "--emit-rules")
    assert code == 0
    lines = out.splitlines()
    assert lines.count("# section S = I") == 1
    assert len([ln for ln in lines if not ln.startswith("#")]) == 192
    assert "IT = TI" in lines


def test_tables_check_appendix_bundled(capsys):
    code, out, _ = run(capsys, "tables", "--check-appendix")
    assert code == 0
    assert out == "appendix check: 192 rows, 0 mismatches\n"


def test_tables_check_appendix_path(capsys, tmp_path):
    good = tmp_path / "rules.txt"
    cli.main(["tables", "--emit-rules"])
    good.write_text(capsys.readouterr().out)
    code, out, _ = run(capsys, "tables", "--check-appendix", str(good))
    assert code == 0 and "0 mismatches" in out

    bad = tmp_path / "bad.txt"
    bad.write_text(good.read_text().replace("IT = TI", "IT = TP", 1))
    code, out, err = run(capsys, "tables", "--check-appendix", str(bad))
    assert code == 2
    assert out == ""
    assert "mismatches" in err

    code, _, err = run(capsys, "tables", "--check-appendix",
                       str(tmp_path / "missing.txt"))
    assert code == 1
    assert "error" in err


def test_tables_check_appendix_unreadable_file(capsys, tmp_path):
    # A malformed line and a file that is not UTF-8 are reported, not
    # raised as a traceback.
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("IT = TI\nHT = T = H\n")
    assert run(capsys, "tables", "--check-appendix", str(malformed)) == (
        1, "", "error: fixture line 2: expected one '=': 'HT = T = H'\n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"IT = TI\n\xff\xfe\n")
    code, out, err = run(capsys, "tables", "--check-appendix", str(binary))
    assert (code, out) == (1, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_tables_requires_a_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables"])
    assert exc.value.code == 1


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 1


def test_repeated_runs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "enumerate", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]

    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "stab", "THTHTHT")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def _seeded_runs(command, seed):
    # `hptcanon <command>` on 24 seeded circuits of 0..200 gates.
    rng = random.Random(seed)
    return tuple(
        (command, "".join(rng.choice("HPT") for _ in range(rng.randint(0, 200))))
        for _ in range(24))


# sha256 of the joined stdout of command runs that print whole tables; any
# change to these digests is a change to the CLI's output.
_STDOUT_SHA256 = {
    (("tables", "--emit-rules"),):
        "0e983c75b1ffcef55f2a9139325835f35abf198c0ffc7eab599a8ff1dd31ebc0",
    (("tables", "--dump-group"),):
        "2728314762e1bb9e4c3be63cbe35bc8584ec55c6311ea5ff4cff6fede49d4a9a",
    (("enumerate", "2"),):
        "2fd87744f35348d76d780f94692a0ada999f2c8191f42a7a7edc3d85a5ad7817",
    (("count", "4", "--oracle"),):
        "6f2edf77123b410bcc2e570452d7e7d5a69e846ff39917930f28b1cc30eac2de",
    _seeded_runs("stab", 20261018):
        "440b615fb697086b0f338dc74995a4cfc4582114097b318acf87728ae3640538",
    _seeded_runs("matrix", 20261019):
        "2bb6cbba79859a053218459f506d5805f23c89425ac36075b37841b352cc0c97",
    _seeded_runs("normalize", 20261020):
        "2eb42d1524b3bb80d5e6e8a8d8062ee044a5e06f814fb414c4f06286628f21df",
}


def test_table_outputs_match_recorded_digests(capsys):
    for argvs, digest in _STDOUT_SHA256.items():
        out = ""
        for argv in argvs:
            code, part, _ = run(capsys, *argv)
            assert code == 0, argv
            out += part
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argvs[0]


def _stub_run_all(monkeypatch, results):
    calls = []

    def run_all(**kwargs):
        calls.append(kwargs)
        return results
    monkeypatch.setattr(verify, "run_all", run_all)
    return calls


def test_verify_reports_all_checks(capsys, monkeypatch, checks):
    # The real run is the session's `checks`; this replays its results.
    results = list(checks.values())
    calls = _stub_run_all(monkeypatch, results)
    code, out, err = run(capsys, "verify", "--tmax", "3", "--oracle-max", "3")
    assert calls == [{"tmax": 3, "oracle_max": 3}]
    assert code == 0
    assert len(results) == 13
    assert out == "".join(f"PASS {r.name}: {r.detail}\n" for r in results)
    # timings go to standard error, keeping standard output reproducible
    assert err == "".join(f"{r.name}: {r.seconds:.2f}s\n" for r in results)


def test_verify_failure_exits_2(capsys, monkeypatch, checks):
    results = list(checks.values())
    results[3] = results[3]._replace(ok=False)
    calls = _stub_run_all(monkeypatch, results)
    code, out, _ = run(capsys, "verify")
    assert calls == [{"tmax": 5, "oracle_max": 4}]
    assert code == 2
    lines = out.splitlines()
    assert lines.pop(3) == f"FAIL appendix-fixture: {results[3].detail}"
    assert len(lines) == 12 and all(ln.startswith("PASS ") for ln in lines)
