"""alg2d benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload large_field --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 25      # every workload
    python3 benchmarks/run.py --selftest                       # harness self-test

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload's fixed trace rounds once untraced and once traced and reports the
per-layer metrics and the tracing overhead.  Each workload process is a
fresh interpreter.  Human-readable lines go first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from tracer import SPANNED  # noqa: E402  (stdlib only; does not import alg2d)

WORKLOADS = ("large_field", "census", "verify", "cli")
SETUP_REPS = 9  # set-up is timed in the measuring process and in 8 set-up-only ones
RUN_DEADLINE_S = 170

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time, each killed at the run deadline."""

    def __init__(self, deadline_s=RUN_DEADLINE_S):
        self.deadline = time.monotonic() + deadline_s
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONHASHSEED"] = "0"

    def worker(self, workload, seed, mode, *extra) -> dict:
        cmd = [
            sys.executable,
            str(ROOT / "benchmarks" / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode, *extra,
        ]
        # its own process group: a timeout also stops the alg2d processes of a cli worker
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerFailed(f"{workload} {mode} worker passed the run deadline")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if err:
            sys.stderr.write(err)
        if proc.returncode != 0:
            raise WorkerFailed(f"{workload} {mode} worker exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics.

def timings(lat, setups):
    return {
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0,
        "throughput_ops_s": len(lat) / sum(lat),
        "setup_s": statistics.median(setups),
    }


def end_to_end(runner, workload, seed, seconds):
    """Times are scaled to the reference host (see "Host speed" in worker.py);
    the raw wall-clock figures are printed as ``raw_*`` lines beside them."""
    res = runner.worker(workload, seed, "run", "--seconds", str(seconds))
    setups = [res]
    for _ in range(SETUP_REPS - 1):
        setups.append(runner.worker(workload, seed, "setup"))
    n = len(res["latencies"])
    metrics = {
        **timings(res["scaled_latencies"], [r["setup_scaled_s"] for r in setups]),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (n - res["failed"]) / n,
    }
    raw = timings(res["latencies"], [r["setup_s"] for r in setups])
    info = {
        "samples": n,
        "rounds": res["rounds"],
        "failed_frac": res["failed"] / n,
        "timed_s": res["timed_s"],
        **{f"raw_{k}": v for k, v in raw.items()},
        "host_probe_ms": res["host_probe_s"] * 1000.0,
        "output_sha256": res["output_sha256"],
    }
    units = dict(END_TO_END)
    return {k: (v, units[k]) for k, v in metrics.items()}, n, res["failed"], info


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics.

POLY = SPANNED["poly"]
SOLVERS = SPANNED["solvers"]


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        ("fields.Fel.created", "count"),
        ("fields.Field.built", "count"),
        ("fields.elements.scanned", "count"),
        ("fields.embed.calls", "count"),
        ("fields.embed.self_s", "s"),
        ("fields.mul_ns.gf_p", "ns"),
        ("fields.mul_ns.gf_pk", "ns"),
        ("fields.inv_ns.gf_pk", "ns"),
    ]
    for fn in POLY:
        names += [(f"poly.{fn}.calls", "count"), (f"poly.{fn}.self_s", "s")]
    names.append(("poly.Poly.evals", "count"))
    for fn in SOLVERS:
        names += [(f"solvers.{fn}.calls", "count"), (f"solvers.{fn}.self_s", "s")]
    names += [
        ("solvers.calls_per_op", "ratio"),
        ("solvers.two_sided_ideals.per_analyze", "ratio"),
        ("algebra.mul.calls", "count"),
        ("algebra.oracle_enumerate.self_s", "s"),
        ("algebra.oracle_points.self_s", "s"),
        ("report.analyze.self_s.plain", "s"),
        ("report.analyze.self_s.closed", "s"),
        ("report.analyze.self_s.oracle", "s"),
        ("sweep.verify_point.self_s", "s"),
        ("sweep.adjudicate_flag.self_s", "s"),
        ("sweep.oracle_rechecks", "count"),
        ("sweep.solves_per_point", "ratio"),
        ("tables.predict_count.self_s", "s"),
        ("tables.predict_quasiunits.self_s", "s"),
        ("families.instantiate.calls", "count"),
        ("cli.cold_start_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("caches.entries", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
    return names


def per_layer(runner, workload, seed):
    plain = runner.worker(workload, seed, "fixed")
    traced = runner.worker(workload, seed, "trace")
    agg = traced["agg"]
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]
    ops = len(traced["latencies"])
    analyses = sum(calls.get(f"report.analyze.{m}", 0) for m in ("plain", "closed", "oracle"))
    values = {
        "fields.Fel.created": counts.get("fields.Fel.created", 0),
        "fields.Field.built": counts.get("fields.Field.built", 0),
        "fields.elements.scanned": counts.get("fields.elements.scanned", 0),
        "fields.embed.calls": calls.get("fields.embed", 0),
        "fields.embed.self_s": self_s.get("fields.embed", 0.0),
        "poly.Poly.evals": counts.get("poly.Poly.evals", 0),
        "solvers.calls_per_op": sum(calls.get(f"solvers.{fn}", 0) for fn in SOLVERS) / ops,
        "solvers.two_sided_ideals.per_analyze":
            calls.get("solvers.two_sided_ideals", 0) / analyses if analyses else 0.0,
        "algebra.mul.calls": counts.get("algebra.mul.calls", 0),
        "sweep.oracle_rechecks": agg["oracle_rechecks"],
        "sweep.solves_per_point":
            agg["solves"] / agg["solved_points"] if agg["solved_points"] else 0.0,
        "families.instantiate.calls": calls.get("families.instantiate", 0),
        "caches.entries": traced["caches"],
        "trace.overhead_s": traced["timed_s"] - plain["timed_s"],
        "trace.overhead_frac": (traced["timed_s"] - plain["timed_s"]) / plain["timed_s"],
        **traced["probes"],
    }
    for fn in POLY:
        values[f"poly.{fn}.calls"] = calls.get(f"poly.{fn}", 0)
        values[f"poly.{fn}.self_s"] = self_s.get(f"poly.{fn}", 0.0)
    for fn in SOLVERS:
        values[f"solvers.{fn}.calls"] = calls.get(f"solvers.{fn}", 0)
        values[f"solvers.{fn}.self_s"] = self_s.get(f"solvers.{fn}", 0.0)
    for name in ("oracle_enumerate", "oracle_points"):
        values[f"algebra.{name}.self_s"] = self_s.get(f"algebra.{name}", 0.0)
    for mode in ("plain", "closed", "oracle"):
        values[f"report.analyze.self_s.{mode}"] = self_s.get(f"report.analyze.{mode}", 0.0)
    for name in ("verify_point", "adjudicate_flag"):
        values[f"sweep.{name}.self_s"] = self_s.get(f"sweep.{name}", 0.0)
    for name in ("predict_count", "predict_quasiunits"):
        values[f"tables.{name}.self_s"] = self_s.get(f"tables.{name}", 0.0)
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
    attempted = len(plain["latencies"]) + ops
    failed = plain["failed"] + traced["failed"]
    # tracing must not change a byte of output
    same = plain["output_sha256"] == traced["output_sha256"]
    if not same:
        print(f"{workload}: traced output differs from untraced output", file=sys.stderr)
    info = {
        "trace_ops": ops,
        "output_sha256": traced["output_sha256"],
        "untraced_timed_s": plain["timed_s"],
        "traced_timed_s": traced["timed_s"],
    }
    return metrics, attempted, failed + (0 if same else 1), info


# ---------------------------------------------------------------------------

def run_workloads(names, seed, seconds, trace):
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        runner = Runner()  # the deadline holds per workload
        if trace:
            got, att, bad, info = per_layer(runner, name, seed)
        else:
            got, att, bad, info = end_to_end(runner, name, seed, seconds)
        for metric, (value, unit) in got.items():
            print(f"{name} {metric} {value!r} {unit}")
        for key, value in info.items():
            print(f"{name} {key} {value}")
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in got.items()})
        attempted += att
        failed += bad
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def selftest(seed):
    """Input determinism, failure accounting and repeatable per-layer counts."""
    runner = Runner(deadline_s=600)
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok &= passed
        print(f"selftest {name}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())

    for name in WORKLOADS:
        a, b, c = (runner.worker(name, s, "inputs")["input_sha256"] for s in (seed, seed, seed + 1))
        report(f"{name} inputs", a == b != c, f"seed {seed}: {a[:12]} {b[:12]}, seed {seed + 1}: {c[:12]}")
    res = runner.worker("census", seed, "run", "--seconds", "0.2", "--min-ops", "20",
                        "--inject-failure", "3")
    n = len(res["latencies"])
    report("failure accounting", res["failed"] == 1 and n >= 20,
           f"{res['failed']} of {n} ops failed, run completed")
    for name in WORKLOADS:
        one, two = (runner.worker(name, seed, "trace", "--rounds", "1") for _ in range(2))
        counts = [
            ({k: v for k, v in r["agg"].items() if k != "self_s"}, r["caches"]) for r in (one, two)
        ]
        report(f"{name} per-layer counts repeat", counts[0] == counts[1],
               f"Fel.created {one['agg']['counts'].get('fields.Fel.created')}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "alg2d" / "__init__.py").is_file():
        print(f"error: no alg2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return 0 if selftest(args.seed) else 1
        if args.all == bool(args.workload):
            ap.error("give exactly one of --workload and --all")
        names = WORKLOADS if args.all else (args.workload,)
        result = run_workloads(names, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
