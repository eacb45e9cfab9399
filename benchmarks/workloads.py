"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every workload is a closed loop with one client.  Its inputs come in rounds:
round ``r`` of workload ``w`` under seed ``s`` is a pure function of
``(w, s, r)``, and every round has the same fixed composition (so many ops
per field, per category), shuffled.  Latency percentiles therefore fall
inside a known stratum instead of depending on how the draw came out.

A workload object offers:

* ``setup()``            build the fields it uses (timed as set-up);
* ``round_inputs(s, r)`` the op inputs of round ``r``;
* ``input_text(inp)``    canonical text of one input (for the input digest);
* ``run_op(inp)``        the op itself, the only timed call;
* ``check(inp, out, deep)`` raise ``CheckFailed`` when the output is wrong;
* ``canonical(out)``     canonical text of one output (for the output digest);
* ``probe_fields()``     (GF(p), GF(p^k)) on which the microprobes run.

``TRACE_ROUNDS`` is the fixed number of rounds of the trace run, and
``SPEED_PROBE`` names the host-speed probe of ``worker.PROBES`` whose samples
scale the op latencies.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from alg2d import (
    GF,
    MSC,
    Element,
    Poly,
    ProjPoint,
    is_idempotent,
    is_left_ideal,
    is_left_quasiunit,
    is_right_ideal,
    is_subalgebra,
    is_two_sided_ideal,
    oracle_enumerate,
    parse_el,
    parse_field,
    parse_poly,
    roots_in_field,
)
from alg2d import report, sweep
from alg2d.families import ARITY, Regime, all_family_ids, instantiate
from alg2d.report import AnalysisReport
from alg2d.solvers import subalgebra_poly, subalgebra_splitting, ideal_splitting
from alg2d.sweep import FLAG_ROWS
from alg2d.tables import FLAG_CHOICES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    # str seeds are hashed with sha512, so this does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{rnd}")


def _rand_el(rng: random.Random, F):
    return F.from_index(rng.randrange(F.order))


def _rand_msc(rng: random.Random, F) -> MSC:
    if not F.is_finite:
        ints = [rng.randint(-10**6, 10**6) for _ in range(8)]
        return MSC.from_ints(F, ints[:4], ints[4:])
    els = [_rand_el(rng, F) for _ in range(8)]
    return MSC(F, els[:4], els[4:])


def _stratified(rng: random.Random, plan) -> list:
    """``count`` inputs from each ``(make, count)`` of the plan, shuffled."""
    out = []
    for make, count in plan:
        out.extend(make(rng) for _ in range(count))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Output checks shared by every workload that returns an analysis report.

def _sample_lines(F):
    return [ProjPoint.e2(), ProjPoint.affine(F.zero), ProjPoint.affine(F.one)]


# report attribute (and line_fields key) -> definition checker
_LINE_PREDICATES = {
    "subalgebras": is_subalgebra,
    "left": is_left_ideal,
    "right": is_right_ideal,
    "two_sided": is_two_sided_ideal,
}


def check_report(rep: AnalysisReport) -> None:
    """Every returned line, idempotent and quasiunit satisfies its definition."""
    A, F = rep.msc, rep.field
    for kind, pred in _LINE_PREDICATES.items():
        fld = rep.line_fields[kind]
        B = A if fld == F else A.lift(fld)
        lines = getattr(rep, kind)
        pts = _sample_lines(fld) if lines.is_all else lines.sorted_points()
        if fld.is_finite and not lines.is_all and len(pts) > fld.order + 1:
            raise CheckFailed(f"{kind}: more lines than the plane has")
        for P in pts:
            if not pred(B, P):
                raise CheckFailed(f"{kind}: {P.text()} fails the definition over {fld.text()}")
    idem = rep.idempotent_set
    points = list(idem.isolated)
    if idem.e2_point is not None:
        points.append(idem.e2_point)
    if idem.family is not None and not idem.family.is_zero:
        for t in (F.zero, F.one, F.el(2)):
            lam = idem.family(t)
            if not lam.is_zero:
                inv = lam.inv()
                points.append(Element(inv, inv * t))
    for u in points:
        if not is_idempotent(A, u):
            raise CheckFailed(f"idempotent {u.text()} fails u*u = u")
    qs = rep.quasiunits
    if qs.kind == "point":
        cands = [qs.point]
    elif qs.kind == "line":
        n = qs.normalized()
        cands = [n.base, n.base + n.direction, n.base + n.direction.scale(F.el(2))]
    elif qs.kind == "plane":
        cands = [Element(F.zero, F.zero), Element(F.one, F.zero), Element(F.zero, F.one)]
    else:
        cands = []
    for e in cands:
        if not is_left_quasiunit(A, e):
            raise CheckFailed(f"quasiunit {e.text()} fails the defining identity")


# ---------------------------------------------------------------------------
# large_field and census: analyze random MSCs over a ladder of fields.

class _AnalyzeLadder:
    """Ops on random MSCs; each round holds LADDER's count of MSCs per field."""

    LADDER: tuple = ()
    SPEED_PROBE = "loop"

    def setup(self):
        self.fields = [(parse_field(spec), n) for spec, n in self.LADDER]

    def round_inputs(self, seed, rnd):
        rng = round_rng(self.name, seed, rnd)
        plan = [((lambda r, F=F: _rand_msc(r, F)), n) for F, n in self.fields]
        return _stratified(rng, plan)

    def input_text(self, A):
        return f"{A.field.text()}|{A.text()}"

    def check(self, A, rep, deep):
        check_report(rep)

    def canonical(self, rep):
        return rep.dumps()


class LargeField(_AnalyzeLadder):
    """One op is one plain ``report.analyze`` of a seeded random MSC.

    The ladder holds GF(p) for p = 1009, 2003, 4001, 10007, the extension
    GF(5^4), and Q with integer coefficients up to 10^6 (a minority).
    """

    name = "large_field"
    # (field spec, ops per round); p50 falls in the middle of the GF(2003)
    # stratum (28%..68% of a round), p90 in the middle of GF(10007) (80%..100%).
    LADDER = (
        ("q", 3),
        ("gf(5,4)", 2),
        ("gf(1009)", 2),
        ("gf(2003)", 10),
        ("gf(4001)", 3),
        ("gf(10007)", 5),
    )
    TRACE_ROUNDS = 2

    def run_op(self, A):
        # called through the module, so the tracer's wrapper is seen
        return report.analyze(A)

    def probe_fields(self):
        return GF(10007), GF(5, 4)


class Census(_AnalyzeLadder):
    """One op is ``report.analyze(A, oracle=True)`` over GF(2) .. GF(9)."""

    name = "census"
    # p50 falls inside the GF(5) stratum (37%..56%), p90 inside GF(9) (81%..100%).
    LADDER = (
        ("gf(2)", 2),
        ("gf(3)", 2),
        ("gf(2,2)", 2),
        ("gf(5)", 3),
        ("gf(7)", 2),
        ("gf(2,3)", 2),
        ("gf(3,2)", 3),
    )
    TRACE_ROUNDS = 30

    def run_op(self, A):
        # the oracle re-derives every quantity and raises OracleMismatch on
        # any disagreement, so the op checks itself
        return report.analyze(A, oracle=True)

    def probe_fields(self):
        return GF(7), GF(3, 2)


# ---------------------------------------------------------------------------
# verify: table verification, one field per characteristic regime.

class Verify:
    """One op is one ``sweep.verify_point`` or one ``sweep.adjudicate_flag``.

    Per round and per field (GF(7) for ne23, GF(9) for char3, GF(4) for
    char2): one seeded parameter draw from each of the twelve families, then
    the ``adjudicate_flag`` calls that ``verify all`` makes for that regime,
    each twice with its own sample seed and a budget of ADJ_BUDGET points.
    """

    name = "verify"
    FIELDS = ("gf(7)", "gf(3,2)", "gf(2,2)")
    ADJ_BUDGET = 16
    ADJ_REPEATS = 2
    TRACE_ROUNDS = 20
    SPEED_PROBE = "loop"

    def setup(self):
        self.fields = [parse_field(spec) for spec in self.FIELDS]

    def round_inputs(self, seed, rnd):
        rng = round_rng(self.name, seed, rnd)
        ops = []
        for F in self.fields:
            regime = Regime.of_field(F)
            for fam in all_family_ids(regime):
                params = tuple(_rand_el(rng, F) for _ in range(ARITY[fam.index]))
                ops.append(("point", fam, params, F))
            for flag, (_, reg, _) in sorted(FLAG_ROWS.items()):
                if reg == regime:
                    for _ in range(self.ADJ_REPEATS):
                        ops.append(("adjudicate", flag, rng.randrange(10**9), F))
        rng.shuffle(ops)
        return ops

    def input_text(self, inp):
        kind, a, b, F = inp
        if kind == "point":
            return f"point|{F.text()}|{a.name()}|{','.join(c.text() for c in b)}"
        return f"adjudicate|{F.text()}|{a}|{b}"

    def run_op(self, inp):
        kind, a, b, F = inp
        if kind == "point":
            return sweep.verify_point(a, b, F)
        return sweep.adjudicate_flag(a, F, self.ADJ_BUDGET, b)

    def check(self, inp, out, deep):
        kind, a, b, F = inp
        if kind == "adjudicate":
            choices = FLAG_CHOICES[a]
            if out["flag"] != a or sorted(out["readings"]) != sorted(choices):
                raise CheckFailed(f"adjudication of {a} has the wrong readings")
            if not all(0 <= v <= self.ADJ_BUDGET for v in out["readings"].values()):
                raise CheckFailed(f"adjudication of {a} counts outside 0..budget")
            ranked = sorted(out["readings"].items(), key=lambda kv: kv[1])
            want = ranked[0][0] if ranked[0][1] < ranked[1][1] else "tie"
            if out["verdict"] != want:
                raise CheckFailed(f"adjudication of {a} has an inconsistent verdict")
            return
        quantities = [r["quantity"] for r in out]
        if quantities != ["subalgebras", "left", "right", "two_sided", "quasiunits"]:
            raise CheckFailed(f"verify_point returned quantities {quantities}")
        for rec in out:
            agree = rec["verdict"] == "agree"
            if rec["quantity"] != "quasiunits" and agree != (rec["predicted"] == rec["solved"]):
                raise CheckFailed(f"{rec['quantity']}: verdict contradicts the labels")
            if agree != (rec["oracle"] is None):
                raise CheckFailed(f"{rec['quantity']}: oracle recheck missing or spurious")
            if not agree and rec["quantity"] != "quasiunits" and rec["oracle"] != rec["solved"]:
                raise CheckFailed(f"{rec['quantity']}: oracle count differs from the solver")
        if deep:
            self._oracle_counts(a, b, F, out)

    @staticmethod
    def _oracle_counts(family, params, F, out):
        """Recount every line quantity by exhaustive scan over its splitting field."""
        A = instantiate(family, params, F)
        for rec in out[:4]:
            q = rec["quantity"]
            ext = subalgebra_splitting(A) if q == "subalgebras" else ideal_splitting(A)
            lines = oracle_enumerate(A.lift(ext) if ext != F else A, q)
            if lines.count_label() != rec["solved"]:
                raise CheckFailed(
                    f"{family.name()} {q}: solver says {rec['solved']}, "
                    f"exhaustive scan says {lines.count_label()}"
                )

    def canonical(self, out):
        return json.dumps(out, sort_keys=True, separators=(",", ":"))

    def probe_fields(self):
        return GF(7), GF(3, 2)


# ---------------------------------------------------------------------------
# cli: one alg2d subprocess per op.

CLI_TIMEOUT_S = 120


def cli_env() -> dict:
    # run.py already dropped the caller's PYTHON* variables
    return dict(os.environ, PYTHONPATH=str(SRC))


def _split_degree(A: MSC) -> int:
    """Degree of the splitting field of A's subalgebra cubic over A's field."""
    F = A.field
    g = subalgebra_poly(A)
    for r in roots_in_field(g):
        lin = Poly(F, [-r, F.one])
        while True:
            quo, rem = divmod(g, lin)
            if not rem.is_zero:
                break
            g = quo
    return max(g.degree, 1)


def _mscs_with_split_degrees(rng, q: int, degrees, pool: int) -> list:
    """One MSC over GF(q) per wanted split degree of its subalgebra cubic.

    They are picked from ``pool`` random draws, so that the work does not
    depend on the seed; draws go on one at a time only if the pool lacks a
    degree.
    """
    F = GF(q)
    found = {}
    draws = 0
    while draws < pool or any(len(found.get(d, ())) < degrees.count(d) for d in degrees):
        A = _rand_msc(rng, F)
        draws += 1
        if subalgebra_poly(A).degree == 3:
            found.setdefault(_split_degree(A), []).append(A)
    return [found[d].pop(0) for d in degrees]


class Cli:
    """One op is one ``alg2d`` subprocess call (``python -m alg2d.cli``).

    Per round (20 calls): ``analyze --closed --json`` with an irreducible
    subalgebra cubic over gf(11), gf(13) and 4 times gf(17) (6 calls, the
    GF(q^3) share), with a cubic that needs GF(q^2) over gf(17), gf(23) (2
    calls) and with a split cubic over gf(13), gf(23) (2 calls); 4 ``roots
    --json`` calls on random cubics over gf(7); 2 ``canonical --json`` calls
    over gf(7); 4 trivial text-mode ``analyze`` calls over gf(2).  The four
    GF(17^3) calls are the costliest fifth of a round, so p90 falls in the
    middle of their stratum; p50 falls among the cheap calls.  The closed
    analyses are picked from POOL random MSCs per field, so that generating a
    round (part of the timed set-up) costs about the same for every seed.
    """

    name = "cli"
    CLOSED = ((11, 3), (13, 3), *[(17, 3)] * 4, (17, 2), (23, 2), (13, 1), (23, 1))
    POOL = 24  # random MSCs drawn per field of CLOSED, to pick its inputs from
    TRACE_ROUNDS = 1
    SPEED_PROBE = "child"
    traced = False  # the trace run swaps in the tracing entry point

    def setup(self):
        self.fields = {q: GF(q) for q in (2, 7, 11, 13, 17, 23)}

    def round_inputs(self, seed, rnd):
        rng = round_rng(self.name, seed, rnd)
        ops = []
        for q in sorted({q for q, _ in self.CLOSED}):
            degrees = [d for p, d in self.CLOSED if p == q]
            for A in _mscs_with_split_degrees(rng, q, degrees, self.POOL):
                ops.append(("analyze", f"gf({q})", A.text(), "--closed", "--json"))
        for _ in range(4):
            coeffs = [rng.randrange(7) for _ in range(3)] + [rng.randrange(1, 7)]
            ops.append(("roots", "gf(7)", ",".join(map(str, coeffs)), "--json"))
        F7 = self.fields[7]
        for _ in range(2):
            fam = rng.choice(all_family_ids(Regime.NE23))
            params = ",".join(str(rng.randrange(7)) for _ in range(ARITY[fam.index]))
            ops.append(("canonical", fam.name(), "ne23", params, F7.text(), "--json"))
        for _ in range(4):
            ops.append(("analyze", "gf(2)", _rand_msc(rng, self.fields[2]).text()))
        rng.shuffle(ops)
        return ops

    def input_text(self, argv):
        return " ".join(argv)

    def command(self, argv):
        if self.traced:
            return [sys.executable, str(ROOT / "benchmarks" / "cli_child.py"), *argv]
        return [sys.executable, "-m", "alg2d.cli", *argv]

    def run_op(self, argv):
        proc = subprocess.run(
            self.command(argv),
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, argv, out, deep):
        code, stdout, stderr = out
        if code != 0:
            raise CheckFailed(f"alg2d {' '.join(argv)} exited {code}: {stderr.strip()[-300:]}")
        if "--json" not in argv:
            if not stdout.startswith("algebra "):
                raise CheckFailed("text-mode analyze printed no report")
            return
        try:
            docs = [json.loads(line) for line in stdout.splitlines() if line]
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"alg2d {argv[0]} --json printed invalid JSON: {exc}")
        if argv[0] == "analyze":
            rep = AnalysisReport.from_json(docs[0])
            if (rep.line_fields["subalgebras"].k, len(docs)) != (_split_degree(rep.msc), 1):
                raise CheckFailed("closed analyze used the wrong splitting field")
            check_report(rep)
        elif argv[0] == "canonical":
            check_report(AnalysisReport.from_json(docs[0]))
            if len(docs) != 6:
                raise CheckFailed(f"canonical printed {len(docs) - 1} records, expected 5")
        else:
            self._check_roots(docs[0])

    @staticmethod
    def _check_roots(doc):
        F = parse_field(doc["field"])
        f = parse_poly(F, doc["poly"])
        if doc["category"] not in ("0", "1", "2", "3", "inf"):
            raise CheckFailed(f"roots: unknown category {doc['category']}")
        for r in doc["roots_in_field"]:
            if not f(parse_el(F, r)).is_zero:
                raise CheckFailed(f"roots: {r} is not a root")
        E = parse_field(doc["splitting_field"])
        fe = f.lift(E)
        roots = [parse_el(E, r) for r in doc["roots_in_splitting_field"]]
        if any(not fe(r).is_zero for r in roots):
            raise CheckFailed("roots: a splitting-field root is not a root")
        if doc["category"] != str(len(roots)):
            raise CheckFailed("roots: category disagrees with the splitting-field roots")

    def canonical(self, out):
        return out[1]

    def probe_fields(self):
        return GF(13), GF(13, 3)


WORKLOADS = {w.name: w for w in (LargeField, Census, Verify, Cli)}
