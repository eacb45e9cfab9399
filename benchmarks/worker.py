"""One workload in one fresh interpreter; prints one JSON line and exits.

Modes (``--mode``):

* ``setup``  time set-up only: import, field construction, first round of inputs;
* ``run``    set-up, then the closed loop for ``--seconds`` of timed op work
             (whole rounds, at least ``--min-ops`` ops), and the peak RSS;
             the host's speed is sampled between ops (see "Host speed");
* ``fixed``  set-up, then the workload's fixed trace rounds, untraced;
* ``trace``  set-up, microprobes, then the same fixed rounds with the tracer on;
* ``inputs`` the sha256 of the canonical inputs of the first rounds.

Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "fixed", "trace", "inputs"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=100)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--inject-failure", type=int, default=None,
                    help="op index that is made to raise (harness self-test)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Host speed.  The benchmark shares a few cores of a busy host, whose speed
# drifts by tens of percent within minutes; process CPU time drifts with it.
# So between ops the worker times a fixed probe that runs no alg2d code, and
# every time it reports is scaled to a reference host on which the probe
# takes ``ref_s``.  In-process workloads time a loop of interpreter work in
# the worker; the cli workload, whose ops are child interpreters, times a
# child interpreter that runs a loop instead (the worker's own loop tracks
# children poorly).

_CAL_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}


class _CalState:
    __slots__ = ("s",)

    def step(self, j, table):
        self.s = (self.s * 48271 + table[j & 1023]) % 2147483647
        return self.s


def _cal_loop(n):
    """Method calls, dict and list indexing and int arithmetic, like alg2d's
    inner loops; nothing it allocates is tracked by the garbage collector."""
    state, table, acc = _CalState(), _CAL_TABLE, [0] * 64
    state.s = 1
    for j in range(n):
        acc[state.step(j, table) & 63] += 1
    return acc


class LoopProbe:
    ref_s = 0.5e-3  # the loop's time on the reference host
    every_s = 0.1  # at most this much wall time between two samples
    window_s = 1.0  # an op is scaled by the median sample within this distance

    def sample(self):
        """Seconds 2000 loop steps take now (median of 3 timings)."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _cal_loop(2000)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class ChildProbe:
    ref_s = 0.016  # the geometric mean below, on the reference host
    every_s = 0.3
    window_s = 2.0
    # the child times 20000 loop steps itself and prints the seconds
    CHILD = (
        "import time\n"
        "t = time.perf_counter()\n"
        "s = 1\n"
        "for j in range(20000):\n"
        "    s = (s * 48271 + j) % 2147483647\n"
        "print(time.perf_counter() - t)\n"
    )

    def sample(self):
        """Geometric mean of a bare interpreter's start-up and exit (wall
        seconds of the child, less its loop) and of the child's loop.

        A cli op is start-up plus alg2d work; on this kind of host the two
        costs do not always drift together, so the probe weighs both.
        """
        from workloads import cli_env

        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.CHILD], env=cli_env(), check=True,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        loop_s = float(proc.stdout)
        return ((wall - loop_s) * loop_s) ** 0.5


PROBES = {"loop": LoopProbe, "child": ChildProbe}


def scaled(latencies, mids, probe, samples):
    """Each latency scaled to the reference host by the speed samples near it.

    ``samples`` are (perf_counter, probe seconds) in time order; an op at
    ``mid`` uses the median of the samples within ``probe.window_s`` of it,
    and at least the last sample before and the first after it.
    """
    times = [t for t, _ in samples]
    out = []
    for lat, mid in zip(latencies, mids):
        at = bisect.bisect_left(times, mid)
        lo = min(bisect.bisect_left(times, mid - probe.window_s), max(at - 1, 0))
        hi = max(bisect.bisect_right(times, mid + probe.window_s), min(at + 1, len(times)))
        probe_s = statistics.median(c for _, c in samples[lo:hi])
        out.append(lat * probe.ref_s / probe_s)
    return out


def set_up(name, seed):
    import workloads  # imports alg2d: part of the timed set-up

    import alg2d

    if not Path(alg2d.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"alg2d was imported from {alg2d.__file__}, not from this checkout")
    wl = workloads.WORKLOADS[name]()
    wl.setup()
    first = wl.round_inputs(seed, 0)
    return wl, first, time.perf_counter() - T0


def loop(wl, seed, first, *, seconds=None, min_ops=0, rounds=None, inject=None,
         tracer=None, on_op=None, probe=None):
    """Run whole rounds; returns latencies, failures and the output digest.

    The peak RSS is read at the end of the round that brings the op count to
    ``min_ops``, so the work behind it does not depend on the machine's speed.
    With a speed ``probe``, the host's speed is sampled between ops, at most
    ``probe.every_s`` apart, and the latencies are also returned scaled to
    the reference host (``scaled_latencies``).
    """
    lat, mids, failed, timed = [], [], 0, 0.0
    speed, last_sample = [], float("-inf")
    digest = hashlib.sha256()
    rnd = 0
    rss = None
    while True:
        if rounds is not None:
            if rnd >= rounds:
                break
        elif timed >= seconds and len(lat) >= min_ops:
            break
        inputs = first if rnd == 0 else wl.round_inputs(seed, rnd)
        for inp in inputs:
            idx = len(lat)
            if probe is not None and time.perf_counter() - last_sample >= probe.every_s:
                speed.append((time.perf_counter(), probe.sample()))
                last_sample = time.perf_counter()
            if tracer is not None:
                tracer.op = idx
                tracer.active = True
            start = time.perf_counter()
            try:
                if idx == inject:
                    raise RuntimeError(f"op {idx} made to raise")
                out = wl.run_op(inp)
                err = None
            except Exception:  # a failed op is counted, the run goes on
                err = traceback.format_exc(limit=3)
            dt = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            lat.append(dt)
            mids.append(start + dt / 2)
            timed += dt
            if err is None:
                if on_op is not None:
                    out = on_op(out)
                try:
                    wl.check(inp, out, deep=(rnd == 0))
                except Exception:  # malformed output counts as a failed check
                    err = "output check failed: " + traceback.format_exc(limit=3)
            if err is not None:
                failed += 1
                print(f"op {idx} ({wl.input_text(inp)}) failed: {err}", file=sys.stderr)
            elif rnd == 0 or rounds is not None:
                digest.update(wl.canonical(out).encode() + b"\n")
        rnd += 1
        if rss is None and len(lat) >= min_ops:
            rss = peak_rss_mb(wl.name)
    extra = {}
    if probe is not None:
        speed.append((time.perf_counter(), probe.sample()))
        extra["scaled_latencies"] = scaled(lat, mids, probe, speed)
        extra["host_probe_s"] = statistics.median(c for _, c in speed)
    return {
        **extra,
        "latencies": lat,
        "failed": failed,
        "timed_s": timed,
        "rounds": rnd,
        "peak_rss_mb": rss,
        "output_sha256": digest.hexdigest(),
    }


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def input_digest(wl, seed, rounds):
    h = hashlib.sha256()
    for rnd in range(rounds):
        for inp in wl.round_inputs(seed, rnd):
            h.update(wl.input_text(inp).encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Microprobes and CLI start-up probes (trace mode only, tracer off).

PROBE_OPS = 20000
PROBE_REPS = 5


def _fresh(F):
    from alg2d.fields import Field

    return Field(F.p, F.k, F.modulus)  # empty memo caches


def probe_mul_ns(F):
    per_op = []
    for rep in range(PROBE_REPS):
        G = _fresh(F)
        rng = random.Random(rep)
        xs = [G.from_index(rng.randrange(G.order)) for _ in range(PROBE_OPS)]
        ys = [G.from_index(rng.randrange(G.order)) for _ in range(PROBE_OPS)]
        start = time.perf_counter_ns()
        for a, b in zip(xs, ys):
            a * b
        per_op.append((time.perf_counter_ns() - start) / PROBE_OPS)
    return statistics.median(per_op)


def probe_inv_ns(F):
    """Inverse of every nonzero element on fresh fields (caches cold), >= 2000 ops."""
    per_op = []
    for _ in range(PROBE_REPS):
        n, total = 0, 0
        while n < 2000:
            G = _fresh(F)
            xs = [G.from_index(i) for i in range(1, min(G.order, PROBE_OPS))]
            start = time.perf_counter_ns()
            for a in xs:
                a.inv()
            total += time.perf_counter_ns() - start
            n += len(xs)
        per_op.append(total / n)
    return statistics.median(per_op)


def _wall_ms(cmd, env):
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    return (time.perf_counter() - start) * 1000.0


def cli_probes():
    from workloads import cli_env

    env, py = cli_env(), sys.executable
    cold = [_wall_ms([py, "-m", "alg2d.cli", "roots", "gf(2)", "1,1"], env) for _ in range(PROBE_REPS)]
    imp = [_wall_ms([py, "-c", "import alg2d.cli"], env) for _ in range(PROBE_REPS)]
    bare = [_wall_ms([py, "-c", "pass"], env) for _ in range(PROBE_REPS)]
    return {
        "cli.cold_start_ms": statistics.median(cold),
        "cli.import_ms": statistics.median(imp) - statistics.median(bare),
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    wl, first, setup_s = set_up(args.workload, args.seed)
    if args.mode in ("setup", "run"):
        # set-up is in-process work too short to span speed samples: the
        # median of a few loop samples right after it
        loop_s = statistics.median(LoopProbe().sample() for _ in range(5))
        setup_scaled = setup_s * LoopProbe.ref_s / loop_s
    if args.mode == "setup":
        return {"setup_s": setup_s, "setup_scaled_s": setup_scaled}
    if args.mode == "inputs":
        return {"input_sha256": input_digest(wl, args.seed, args.rounds or 2)}
    if args.mode == "run":
        res = loop(wl, args.seed, first, seconds=args.seconds, min_ops=args.min_ops,
                   rounds=args.rounds, inject=args.inject_failure,
                   probe=PROBES[wl.SPEED_PROBE]())
        res.update(setup_s=setup_s, setup_scaled_s=setup_scaled)
        return res
    rounds = args.rounds or wl.TRACE_ROUNDS
    if args.mode == "fixed":
        return loop(wl, args.seed, first, rounds=rounds)

    import tracer as tracing

    gf_p, gf_pk = wl.probe_fields()
    probes = {
        "fields.mul_ns.gf_p": probe_mul_ns(gf_p),
        "fields.mul_ns.gf_pk": probe_mul_ns(gf_pk),
        "fields.inv_ns.gf_pk": probe_inv_ns(gf_pk),
        **cli_probes(),
    }
    tr = tracing.Tracer()
    children = []
    if args.workload == "cli":
        wl.traced = True

        def on_op(out):
            # the child appends its aggregate as the last stderr line
            code, stdout, stderr = out
            head, _, last = stderr.rstrip("\n").rpartition("\n")
            if last.startswith(tracing.TRACE_MARK):
                children.append(json.loads(last[len(tracing.TRACE_MARK):]))
                stderr = head
            return code, stdout, stderr
    else:
        tr.install()
        on_op = None
    res = loop(wl, args.seed, first, rounds=rounds, tracer=tr, on_op=on_op)
    agg = tr.aggregate()
    if children:
        for i, child in enumerate(children):
            base = len(tr.spans)
            tr.spans.extend(
                [n, s, e, p + base if p >= 0 else -1, i] for n, s, e, p, _ in child["spans"]
            )
            tracing.merge(agg, child["agg"])
        res["caches"] = max(c["caches"] for c in children)
    else:
        res["caches"] = tracing.cache_entries()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    res.update(agg=agg, probes=probes, setup_s=setup_s)
    return res


if __name__ == "__main__":
    result = main()
    print(json.dumps(result))
