#!/usr/bin/env python3
"""Build and run one benchmark workload; print its metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-fig --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record        # re-record perfbench/references.json

The C++ driver (perfbench/main.cpp) is built from ../src into
.bench_build/perfbench, runs the workload as a closed loop of replicates and
prints one raw JSON record. This script checks every replicate (conservation,
reconciliation, pool-size and traced/untraced agreement, reference
fingerprints), turns the record into the metrics listed in BENCHMARK.json and
prints them as the last line of standard output.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
REFERENCES = BENCH_DIR / "references.json"
WORKLOADS = ("paper-fig", "fault-settle", "sharded-k4")
CHILD_TIMEOUT_S = 170.0

# Seeds recorded by --record: replicate seeds 1..CYCLE[w] and one held-out
# seed that was not used while the benchmark was written. A run's replicate
# seeds run through 1..CYCLE[w] from its --seed (taken modulo the cycle), so
# every replicate has a reference. Each cycle is longer than a 36 s run on
# the 4-core VM the benchmark was written on; a faster host wraps round.
DEFAULT_SEED = 1
HELD_OUT_SEED = 900001
CYCLE = {"paper-fig": 1000, "fault-settle": 200, "sharded-k4": 200}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure and build incrementally; build logs go to stderr."""
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(nproc())],
                   stdout=sys.stderr, check=True)


def run_child(args):
    """Run the driver; return (stdout, peak RSS of that process in MiB)."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return out, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def environment(raw):
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unavailable (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cpp", ".hpp"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": nproc(), "hardware_concurrency": raw["hardware_concurrency"],
            "pool_threads": raw["threads"], "compiler": raw["compiler"],
            "build_type": raw["build_type"], "assertions": raw["assertions"],
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw, peak_rss):
    reps = raw["replicates"]
    setup_s = raw["setup"]["total"]
    times = [r["cpu"] for r in reps]
    # The sharded runner builds its world inside the one call a replicate is,
    # so its event rate is over the whole replicate.
    busy = (lambda r: r["cpu"]) if raw["sharded"] else (lambda r: r["cpu"] - setup_s)
    return {
        "setup_s": (setup_s, "s"),
        "replicate_cpu_s.p50": (median(times), "s"),
        "replicate_cpu_s.p90": (statistics.quantiles(times, n=10)[-1] if len(times) > 1
                                else times[0], "s"),
        "events_per_cpu_s": (median([r["events_fired"] / busy(r) for r in reps]), "events/s"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }


def per_layer(raw):
    reps = raw["replicates"]
    sharded = raw["sharded"]

    def span(name, table="span_total"):
        return mean([r[table].get(name, 0.0) for r in reps])

    def count(key):
        return mean([r["counters"][key] for r in reps])

    def total(key):
        return sum(r["counters"][key] for r in reps)

    setup = raw["setup"]
    completed = total("connections_completed")
    attempts = total("setup_attempts") or completed + total("connections_failed")
    claims = total("claims_submitted")
    return {
        "setup.overlay_s": (setup["overlay"], "s"),
        "setup.probing_s": (setup["probing"], "s"),
        "setup.bank_s": (setup["bank"], "s"),
        "run_s": (span("run"), "s"),
        "run.self_s": (span("run", "span_self"), "s"),
        "net.churn_events": (count("churn_events") if sharded
                             else mean([r["churn_notifications"] for r in reps]), "count"),
        "net.probes": (count("probes"), "count"),
        "net.neighbor_replacements": (mean([r["neighbor_replacements"] for r in reps]), "count"),
        "sim.events_fired": (count("events_fired"), "count"),
        "sim.events_scheduled": (count("events_scheduled"), "count"),
        "sim.events_cancelled": (count("events_cancelled"), "count"),
        "sim.cancel_ratio": (ratio(total("events_cancelled"), total("events_scheduled")), "ratio"),
        "sim.probe_share": (ratio(total("probes"), total("events_fired")), "ratio"),
        "sim.events_per_connection": (ratio(total("events_fired"), completed), "ratio"),
        "sim.callback_heap_allocs": (count("callback_heap_allocs"), "count"),
        "sim.window_barriers": (count("window_barriers"), "count"),
        "sim.cross_shard_messages": (count("cross_shard_messages"), "count"),
        "core.connection_s": (span("core.connection"), "s"),
        "core.route_s": (span("core.route"), "s"),
        "core.route_decisions": (mean([r["route_decisions"] for r in reps]), "count"),
        "core.route_decisions_per_connection": (
            ratio(sum(r["route_decisions"] for r in reps), completed), "ratio"),
        "core.connections_completed": (count("connections_completed"), "count"),
        "core.connections_failed": (count("connections_failed"), "count"),
        "core.setup_attempts": (count("setup_attempts"), "count"),
        "core.ack_timeouts": (count("ack_timeouts"), "count"),
        "core.reformations": (count("reformations"), "count"),
        "core.setup_success_ratio": (ratio(completed, attempts), "ratio"),
        "transport.frames_sent": (count("frames_sent"), "count"),
        "transport.frames_dropped": (count("frames_dropped"), "count"),
        "transport.frames_rejected": (count("frames_rejected"), "count"),
        "transport.delivery_ratio": (ratio(total("frames_delivered"), total("frames_sent")),
                                     "ratio"),
        "settle_s": (span("settle"), "s"),
        "reconcile_s": (span("reconcile"), "s"),
        "payment.claims_submitted": (count("claims_submitted"), "count"),
        "payment.claims_rejected": (count("claims_rejected"), "count"),
        "payment.claims_lost": (count("claims_lost"), "count"),
        "payment.settlements_closed": (count("settlements_closed"), "count"),
        "payment.claim_accept_ratio": (ratio(claims - total("claims_rejected"), claims), "ratio"),
        "fault.messages_dropped": (count("messages_dropped"), "count"),
        "fault.crashes": (count("crashes"), "count"),
        "trace.overhead_s": (median([r["traced_s"] for r in reps])
                             - median([r["s"] for r in reps]), "s"),
        "parallel.speedup": (ratio(median([r["pool1_s"] for r in reps]),
                                   median([r["s"] for r in reps])) if sharded else 0.0, "x"),
    }


def check(raw, refs):
    """Count failed replicates (a seed without a reference fails); a failed
    canary fails the whole run."""
    known = refs["fingerprints"]
    failed = 0
    for r in raw["replicates"]:
        if not r["ok"] or known.get(str(r["seed"])) != r["fp"]:
            failed += 1
            log(f"replicate seed {r['seed']} failed: {json.dumps(r)[:400]}")
    canaries_ok = True
    for c in raw["canaries"]:
        ref = known.get(str(c["seed"]))
        if ref != c["fp"] or not (c["conserved"] and c["reconciled"]):
            canaries_ok = False
            log(f"canary seed {c['seed']}: fingerprint {c['fp']}, reference {ref}")
    return failed, canaries_ok


def record():
    build()
    refs = {}
    for w in WORKLOADS:
        fps = {}
        for base, n in ((DEFAULT_SEED, CYCLE[w]), (HELD_OUT_SEED, 1)):
            log(f"recording {w}: seeds {base}..{base + n - 1}")
            out = subprocess.run([str(BINARY), "--workload", w,
                                  "--fingerprint", str(base), str(n)],
                                 capture_output=True, text=True, check=True).stdout
            for line in out.splitlines():
                seed, fp, ok = line.split()
                if ok != "1":
                    sys.exit(f"{w} seed {seed}: conservation or reconciliation failed")
                fps[seed] = fp
        refs[w] = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                   "cycle": CYCLE[w], "fingerprints": fps}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    refs = json.loads(REFERENCES.read_text())[args.workload]
    build()
    start = DEFAULT_SEED + (args.seed - DEFAULT_SEED) % refs["cycle"]
    child = ["--workload", args.workload, "--seed", str(start), "--cycle", str(refs["cycle"]),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--canary", f"{refs['default_seed']},{refs['held_out_seed']}"]
    trace_file = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        trace_file.parent.mkdir(exist_ok=True)
        child += ["--trace-out", str(trace_file)]
    out, peak_rss = run_child(child)
    raw = json.loads(out.strip().splitlines()[-1])

    failed, canaries_ok = check(raw, refs)
    attempted = len(raw["replicates"])
    metrics = per_layer(raw) if args.trace else end_to_end(raw, peak_rss)

    print("env " + json.dumps(environment(raw), sort_keys=True))
    print(f"workload {args.workload}: {attempted} replicates from seed {start} "
          f"(--seed {args.seed}, seeds cycle through 1..{refs['cycle']}), closed loop, {'traced' if args.trace else 'untraced'}; wall-clock replicate "
          f"p50 {median([r['s'] for r in raw['replicates']]):.4f} s; "
          f"failed_share {failed / attempted:.4f}; canaries "
          f"{'match' if canaries_ok else 'MISMATCH'} the recorded references")
    if raw["sharded"]:
        print("sharded: events_per_cpu_s includes set-up (the world is built inside the "
              "one library call a replicate is)")
    if raw["sharded"] and args.trace:
        pool1 = median([r["pool1_s"] for r in raw["replicates"]])
        pooln = median([r["s"] for r in raw["replicates"]])
        print(f"sharded: replicate wall p50 {pooln:.4f} s on the {raw['threads']}-thread pool, "
              f"{pool1:.4f} s on a 1-thread pool (parallel.speedup {pool1 / pooln:.3f}x); "
              f"the two digests are compared on every replicate")
    if args.trace:
        print(f"spans of the first traced replicate: {trace_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and canaries_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 and canaries_ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
