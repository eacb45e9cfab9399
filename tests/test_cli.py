import itertools
import json
import os
import subprocess
import sys
import time

import pytest


import alg2d
from alg2d import solvers
from alg2d.cli import main
from alg2d.report import LISTING_LIMIT, ORACLE_LIMIT, AnalysisReport, analyze
from alg2d import GF, MSC
from alg2d.sweep import GRID_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_a12_text(capsys):
    code, out, _ = run(capsys, "analyze", "gf(5)", "0,0,0,0;1,0,0,0")
    assert code == 0
    assert "subalgebras: F(e2)" in out
    assert "simple: no" in out
    assert "left quasiunits: none" in out


def test_analyze_a11_with_oracle(capsys):
    code, out, _ = run(capsys, "analyze", "gf(11)", "0,1,1,0;1,0,0,10", "--oracle")
    assert code == 0
    assert "simple: yes" in out
    assert "left ideals: none" in out


def _prime_above(n):
    from alg2d.fields import is_prime

    return next(p for p in itertools.count(n + 1) if is_prime(p))


def _idempotent_line(out):
    return next(line for line in out.splitlines() if line.startswith("idempotents:"))


def test_family_line_names_the_e2_point(capsys):
    above = _prime_above(LISTING_LIMIT)
    for field in ("q", f"gf({above})"):
        code, out, _ = run(capsys, "analyze", field, "1,1,0,0;0,1,0,1")
        assert code == 0
        line = _idempotent_line(out)
        assert line == "idempotents: family with eigenvalue 1,1 and the point e2"


def test_family_members_are_listed_up_to_the_listing_limit(capsys):
    msc = "1,0,0,0;0,1,0,0"  # the cubic vanishes; every e1 + t*e2 is idempotent
    below = max(p for p in range(LISTING_LIMIT, 1, -1) if alg2d.fields.is_prime(p))
    code, out, _ = run(capsys, "analyze", f"gf({below})", msc)
    assert code == 0
    assert len(_idempotent_line(out).split(", ")) == below
    code, out, _ = run(capsys, "analyze", f"gf({_prime_above(LISTING_LIMIT)})", msc)
    assert code == 0
    assert _idempotent_line(out) == "idempotents: family with eigenvalue 1"
    assert len(out) < 300


@pytest.mark.parametrize("command", ["analyze", "canonical"])
def test_oracle_refuses_fields_above_the_limit(capsys, command):
    field = f"gf({_prime_above(max(ORACLE_LIMIT, 1000))})"
    argv = {
        "analyze": ("analyze", field, "0,1,1,0;1,0,0,10"),
        "canonical": ("canonical", "A11", "ne23", "", field),
    }[command]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--oracle")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(ORACLE_LIMIT) in err and "Traceback" not in err
    small = f"gf({max(p for p in range(ORACLE_LIMIT, 1, -1) if alg2d.fields.is_prime(p))})"
    code, _, _ = run(capsys, *(small if a == field else a for a in argv), "--oracle")
    assert code == 0


def test_analyze_zero_algebra_over_q(capsys):
    code, out, _ = run(capsys, "analyze", "q", "0,0,0,0;0,0,0,0")
    assert code == 0
    assert out.count("all lines") == 4
    assert "every element" in out


def test_analyze_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "analyze", "gf(5)", "0,1,1,0;1,0,0,4", "--closed", "--json"
    )
    assert code == 0
    data = json.loads(out)
    report = AnalysisReport.from_json(data)
    assert report.dumps() == out.strip()
    direct = analyze(MSC.parse(GF(5), "0,1,1,0;1,0,0,4"), closed=True)
    assert report == direct


def test_canonical_command(capsys):
    code, out, _ = run(capsys, "canonical", "A_10", "ne23", "", "gf(5)")
    assert code == 0
    assert "agree" in out and "MISMATCH" not in out
    code, out, _ = run(capsys, "canonical", "A8", "ne23", "5", "gf(7)")
    assert code == 0
    assert "subalgebras: predicted inf, solved inf -> agree" in out


def test_canonical_regime_mismatch_exit_code(capsys):
    code, _, err = run(capsys, "canonical", "A9", "ne23", "", "gf(3)")
    assert code == 2
    assert "error" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "gf(6)", "0,0,0,0;1,0,0,0")
    assert code == 2
    code, _, err = run(capsys, "analyze", "gf(5)", "0,0;1,0")
    assert code == 2


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "gf(2)", "1,0,0,1")
    assert code == 0
    assert "3 distinct roots" in out
    assert "gf(2,2;1,1,1)" in out
    code, out, _ = run(capsys, "roots", "gf(7)", "5,0,0,0", "--json")
    assert json.loads(out)["category"] == "0"
    code, out, _ = run(capsys, "roots", "gf(5)", "0,0,0,0")
    assert "inf distinct roots" in out


def test_roots_of_an_irreducible_cubic_over_gf103(capsys):
    code, out, _ = run(capsys, "roots", "gf(103)", "--json", "--", "-2,0,0,1")
    assert code == 0
    assert json.loads(out)["category"] == "3"
    code, _, _ = run(capsys, "roots", "gf(103)", "--", "-2,0,0,1")
    assert code == 0


def test_prime_past_the_primality_limit_exits_2(capsys):
    from alg2d.fields import PRIME_LIMIT

    code, _, err = run(capsys, "analyze", f"gf({2**89 - 1})", "0,0,0,0;1,0,0,0")
    assert code == 2
    assert str(PRIME_LIMIT) in err and "Traceback" not in err


def test_verify_family_json_deterministic(capsys):
    args = ("verify", "A4", "gf(5)", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["records"] == 25 * 5
    for line in lines[:-1]:
        rec = json.loads(line)
        assert set(rec) >= {
            "family",
            "regime",
            "params",
            "quantity",
            "predicted",
            "solved",
            "oracle",
            "verdict",
            "citation",
        } or "flag" in rec


def test_verify_all_gf2_clean_exit(capsys):
    code, out, _ = run(capsys, "verify", "all", "gf(2)")
    assert code == 0
    assert "mismatches" in out


def test_verify_reports_known_catalogue_defects(capsys):
    code, out, _ = run(capsys, "verify", "A2", "gf(5)", "--json")
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()]
    bad = [r for r in recs if r.get("verdict") == "mismatch"]
    assert bad
    assert all(r["oracle"] is not None for r in bad)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "q"),
        ("verify", "A1", "gf(5)", "--budget", "abc"),
        ("verify", "A1", "gf(5)", "--budget", "-3"),
        ("canonical", "Ax", "ne23", "", "gf(5)"),
        # past int()'s default limit of 4300 digits
        ("verify", "A1", "gf(5)", "--budget", "1" * 5000),
        ("canonical", "A" + "1" * 5000, "ne23", "", "gf(5)"),
        ("canonical", "A1", "ne23", "1,2,3,4", "q"),
        # parameter grids longer than sys.maxsize cannot be sampled
        ("verify", "all", "gf(65537)", "--budget", "2"),
        ("verify", "all", "gf(3,40)", "--budget", "2"),
        # a sweep visits at most GRID_LIMIT points, walked or sampled
        ("verify", "A1", "gf(101)", "--budget", str(GRID_LIMIT + 1)),
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


def test_grid_limit_error_names_the_limit_and_the_budget(capsys):
    code, out, err = run(capsys, "verify", "A1", "gf(65537)")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(GRID_LIMIT) in err and "--budget N" in err


def test_internal_inconsistency_exits_1_with_one_error_line(capsys, monkeypatch):
    by_cases = solvers.simple_by_cases_extended
    monkeypatch.setattr(solvers, "simple_by_cases_extended", lambda A: not by_cases(A))
    code, out, err = run(capsys, "analyze", "gf(5)", "0,0,0,0;1,0,0,0")
    assert code == 1 and out == ""
    assert err.startswith("error: internal inconsistency")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _cli_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(alg2d.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_argv(*argv):
    return [sys.executable, "-m", "alg2d.cli", *argv]


@pytest.mark.parametrize(
    "argv, keep",
    [
        (("verify", "all", "gf(5)", "--json"), 1),  # like `| head -1`
        (("analyze", "q", "1,2,3,4;5,6,7,8", "--json"), 0),  # reader gone at once
    ],
)
def test_closed_pipe_exits_0_quietly(argv, keep):
    proc = subprocess.Popen(
        _cli_argv(*argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()
    )
    try:
        for _ in range(keep):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
        assert err == ""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "q", ";".join([",".join([str(10**99 + 7 * i) for i in range(4)])] * 2)),
        ("roots", "q", "--json", "--", "1000000000000000000000000000057,3,0,1000000000000000000000000000099"),
    ],
)
def test_large_rational_constants_finish_within_a_second(argv):
    start = time.perf_counter()
    done = subprocess.run(_cli_argv(*argv), capture_output=True, env=_cli_env(), timeout=10)
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 1.0
