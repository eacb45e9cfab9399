import contextlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st


import alg2d
from alg2d import report, solvers, sweep
from alg2d.algebra import LineSet
from alg2d.solvers import AffineSolutionSet, IdempotentSet
from alg2d.cli import main
from alg2d.families import ARITY
from alg2d.report import LISTING_LIMIT, ORACLE_LIMIT, AnalysisReport, analyze
from alg2d import GF, MSC, Element
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
        # every PARAMS entry is an element: none may be empty or blank
        ("canonical", "A1", "ne23", "1,,2,3,4", "gf(5)"),
        ("canonical", "A1", "ne23", "1,2,3,4,", "gf(5)"),
        ("canonical", "A1", "ne23", "1,2, ,3,4", "gf(5)"),
        # parameter grids longer than sys.maxsize cannot be sampled
        ("verify", "all", "gf(65537)", "--budget", "2"),
        ("verify", "all", "gf(3,40)", "--budget", "2"),
        # a sweep visits at most GRID_LIMIT points, walked or sampled
        ("verify", "A1", "gf(101)", "--budget", str(GRID_LIMIT + 1)),
        # a power of w lies in 0..k-1: no wrap-around to w^(k-n)
        ("analyze", "gf(5)", "w^-1,0,0,0;0,0,0,0"),
        ("analyze", "gf(3,2)", "w^-2,0,0,0;0,0,0,0"),
        # the rationals are spelled q, not gf(0)
        ("analyze", "gf(0)", "1,0,0,0;0,0,0,0"),
        ("analyze", "gf(0,1)", "1,0,0,0;0,0,0,0"),
        # constants are ASCII decimal numerals: no exponent, decimal point,
        # digit separator or non-ASCII digit
        ("analyze", "q", "1e3,0,0,0;0,0,0,0"),
        ("analyze", "q", "1.5,0,0,0;0,0,0,0"),
        ("analyze", "gf(5)", "1_0,0,0,0;0,0,0,0"),
        ("analyze", "gf(5)", "１,0,0,0;0,0,0,0"),
        # so are the numbers of a field spec
        ("analyze", "gf(1_1)", "1,0,0,0;0,0,0,0"),
        ("analyze", "gf(+5)", "1,0,0,0;0,0,0,0"),
        ("analyze", "gf(５)", "1,0,0,0;0,0,0,0"),
        ("analyze", "gf(5,2;+2,4,1)", "1,0,0,0;0,0,0,0"),
        # a prime field takes no modulus but a monic linear one, after its degree
        ("analyze", "gf(5,1;3,3)", "1,0,0,0;0,0,0,0"),
        ("analyze", "gf(5;1,1)", "1,0,0,0;0,0,0,0"),
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [("canonical", "A1", "ne23", "1,2,3,4", "q"), ("verify", "all", "q")]
)
def test_finite_field_commands_refuse_q_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {argv[0]} ") and "finite field" in err


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


def _wrong_lines(solve):
    """A line solver that always answers wrong: every line where it finds
    none, and none otherwise."""
    return lambda A: LineSet.all_lines() if solve(A) == LineSet.of([]) else LineSet.of([])


def _wrong_idempotents(solve):
    """An idempotent solver that always answers wrong: e2 where it finds
    none, and none otherwise."""

    def wrong(A, found=None):
        F = A.field
        e2 = None if solve(A, found).materialize() else Element(F.zero, F.one)
        return IdempotentSet(F, [], None, e2)

    return wrong


def _wrong_quasiunits(solve):
    """A quasiunit solver that always answers wrong: every element where it
    finds none, and none otherwise."""
    empty = AffineSolutionSet.empty()
    return lambda A: AffineSolutionSet.plane() if solve(A) == empty else empty


# F x F: its left ideals, idempotents and quasiunits are all nonempty
_ANALYZE_ORACLE = ("analyze", "gf(5)", "1,0,0,0;0,0,0,1", "--oracle")


@pytest.mark.parametrize(
    "module, name, wrong, argv",
    [
        (report, "left_ideals", _wrong_lines, _ANALYZE_ORACLE),
        (report, "idempotents", _wrong_idempotents, _ANALYZE_ORACLE),
        (report, "left_quasiunits", _wrong_quasiunits, _ANALYZE_ORACLE),
        # verify solves no idempotents; a wrong answer reaches the oracle
        # through the recheck of a record where the table and the solver part
        (sweep, "left_ideals", _wrong_lines, ("verify", "A1", "gf(3)")),
        (sweep, "left_quasiunits", _wrong_quasiunits, ("verify", "A1", "gf(3)")),
    ],
)
def test_oracle_mismatch_exits_1_with_one_error_line(capsys, monkeypatch, module, name, wrong,
                                                     argv):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ORACLE MISMATCH")
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


# ---------------------------------------------------------------------------
# The exit-code contract under argv built from a grammar of the CLI's inputs.

_VALID_FIELDS = [
    "gf(2)", "gf(3)", "gf(5)", "gf(7)", "gf(11)", "gf(13)", "gf(2,2)", "gf(2,3)", "gf(3,2)",
    "gf(2,4)", "gf(5,2)", "gf(2,2;1,1,1)", " GF(7) ", "q",
]
_FIELD_SPECS = st.one_of(
    st.sampled_from(_VALID_FIELDS),
    # not a field, or not spelled the way the grammar spells it
    st.sampled_from(
        [
            "gf(0)", "gf(0,1)", "gf(0,2)", "gf(0;1,1)", "gf(1)", "gf(4)", "gf(6)", "gf(-5)",
            "gf()", "gf(2,0)", "gf(2,-1)", "gf(x)", "gf(5;1,1)", "gf(2,2;1,0,1)",
            "gf(2,2;1,1)", "gf(3", "gf(5,1,1)", "", "r", "gf(1_1)",
        ]
    ),
)
_SMALL_INTS = st.integers(-2, 6).map(str)
_ELEMENT_TEXTS = st.one_of(
    _SMALL_INTS,
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(
        [
            "w", "w^0", "w^1", "w^2", "w^3", "w^-1", "w^-2", "w^-5", "2*w+1", "-w",
            "1+w^2", "3*w^1+2", "1/2", "-3/4", "1/0", "1e3", "nan", "", " ", "x",
            "w^x", "2*", "+", "1++1", "10**3",
        ]
    ),
)


@st.composite
def _argv(draw):
    """One argv in four may hold malformed pieces; the rest are well formed,
    with small integer constants, which every field reads."""
    wild = draw(st.integers(0, 3)) == 0

    def pick(wild_strategy, tame_strategy):
        return draw(wild_strategy if wild else tame_strategy)

    def elements(n):
        element = _ELEMENT_TEXTS if wild else _SMALL_INTS
        return ",".join(draw(st.lists(element, min_size=n, max_size=n)))

    command = draw(st.sampled_from(["analyze", "canonical", "verify", "roots"]))
    field = pick(_FIELD_SPECS, st.sampled_from(_VALID_FIELDS))
    regime = {"gf(2": "char2", "gf(3": "char3"}.get(field.strip().lower()[:4], "ne23")
    index = pick(st.integers(0, 13), st.integers(1, 12))
    family = f"A{index}"
    family = pick(st.sampled_from([family, f"a_{index}", "A", "B2", ""]), st.just(family))
    json_flag = draw(st.lists(st.just("--json"), max_size=1))
    flags = draw(st.lists(st.sampled_from(["--closed", "--oracle", "--json"]), unique=True))
    if command == "analyze":
        if wild and draw(st.booleans()):  # the wrong number of rows or entries
            rows = draw(st.lists(st.integers(0, 5), max_size=3))
            msc = ";".join(elements(n) for n in rows)
        else:
            msc = elements(4) + ";" + elements(4)
        positional = [field, msc]
    elif command == "canonical":
        regime = pick(st.sampled_from([regime, "NE23", "char2", "char5", ""]), st.just(regime))
        n = pick(st.integers(0, 5), st.just(ARITY.get(index, 0)))
        positional = [family, regime, elements(n), field]
    elif command == "verify":
        scope = draw(st.sampled_from([family, "all", "ALL"]))
        budget = pick(st.sampled_from(["0", "-1", "abc", "1.5", "2"]), st.integers(1, 3).map(str))
        seed = pick(st.sampled_from(["0", "x"]), st.integers(0, 9).map(str))
        positional, flags = [scope, field], ["--budget", budget, "--seed", seed, *json_flag]
    else:
        positional = [field, elements(pick(st.integers(0, 5), st.integers(1, 4)))]
        flags = json_flag
    # "--" lets a positional argument start with a minus sign
    return [command, *flags, "--", *positional]


class _Hang(Exception):
    pass


def _main_within(argv, seconds):
    """cli.main(argv) with its stdout and stderr captured; _Hang after `seconds`."""

    def stop(signum, frame):
        raise _Hang(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    code, err = _main_within(argv, 10)
    assert "Traceback" not in err
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        bug_lines = ("ORACLE MISMATCH", "error: internal inconsistency")
        assert any(line.startswith(bug_lines) for line in err.splitlines()), (argv, err)
