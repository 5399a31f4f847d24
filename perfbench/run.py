#!/usr/bin/env python3
"""Repository benchmark: build the collector and run one named workload.

    python3 perfbench/run.py --workload warehouse|kv|kv-lazy --seed N \
        --seconds S --trace 0|1 [--short]

Run from the repository root. The first run configures and builds
perfbench/ (collector sources included) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check the build is up to
date.

--trace 0 runs the workload untraced and reports every end-to-end metric
of BENCHMARK.json. --trace 1 runs it twice, untraced and then traced
(GcOptions::Observe plus perfbench's own spans), and reports every per-layer
metric, the self-time table, and the tracing overhead. --short skips the
GC-activity floor, for quick self-tests with a few seconds.

Every run passes the correctness gate (perfbench's per-request checks,
KvStore::verifyAll or WorkloadResult::IntegrityFailure, then
GcHeap::verifyNow) and, unless --short, the GC-activity floor. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run that fails either check still prints
it, with correct false, and exits with status 1. The full record of the
run (host, build, every measured quantity) is written to
<build>/results/<workload>-seed<N>-trace<T>.json, and traced runs write
their spans to <build>/traces/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("warehouse", "kv", "kv-lazy")

# pause_p90_ms needs at least ten of the window's pauses beyond it.
MIN_PAUSES = 100
MIN_BEYOND_P90 = 10

# Per-layer metric -> (end-to-end metric it should move, workloads on which
# it should move it). Printed beside each value in the traced run.
MOVES = {
    "workloads.kv_get_us_p50": ("req_p50_us", "kv, kv-lazy"),
    "workloads.kv_get_us_p99": ("req_p99_us", "kv, kv-lazy"),
    "workloads.kv_set_us_p50": ("req_p99_us, slo_miss_ratio", "kv, kv-lazy"),
    "workloads.kv_set_us_p99": ("req_p99_us, slo_miss_ratio", "kv, kv-lazy"),
    "workloads.kv_del_us_p50": ("req_p50_us", "kv, kv-lazy"),
    "workloads.service_us_p99": ("req_p99_us (service part)", "kv, kv-lazy"),
    "workloads.send_lag_us_p99": ("req_p99_us (queueing part)", "kv, kv-lazy"),
    "workloads.late_start_ratio": ("req_p99_us, slo_miss_ratio", "kv, kv-lazy"),
    "failed_ratio": ("correct (the gate)", "all"),
    "runtime.create_ms": ("setup_s", "all"),
    "runtime.ladder_refill_retry": ("slo_miss_ratio", "kv-lazy"),
    "runtime.ladder_sweep_finish": ("slo_miss_ratio", "kv-lazy"),
    "runtime.ladder_stw_finish": ("pause_p90_ms, slo_miss_ratio", "all"),
    "runtime.ladder_full_stw": ("pause_p90_ms, slo_miss_ratio", "all"),
    "runtime.ladder_alloc_failure": ("correct (the gate)", "all"),
    "runtime.watchdog_trips": ("pause_p90_ms", "all"),
    "heap.alloc_mb_per_s": ("tx_per_s", "warehouse"),
    "heap.freelist_lock_acq_per_mb": ("tx_per_s", "warehouse"),
    "heap.free_after_mb_p50": ("tx_per_s", "warehouse"),
    "heap.largest_free_range_kb_p50": ("tx_per_s", "warehouse"),
    "gc.cycles_per_gb": ("pause_share", "kv-lazy, warehouse"),
    "gc.concurrent_completion_ratio": ("pause_share, slo_miss_ratio",
                                       "kv-lazy, warehouse"),
    "gc.pre_concurrent_ms_p50": ("slo_miss_ratio", "kv-lazy"),
    "gc.pre_concurrent_ms_p90": ("slo_miss_ratio", "kv-lazy"),
    "gc.floating_garbage_ratio": ("pause_share", "kv-lazy, warehouse"),
    "gc.live_after_mb_p50": ("pause_share", "kv-lazy, warehouse"),
    "gc.stop_ms_p50": ("pause_p50_ms", "warehouse, kv"),
    "gc.final_card_clean_ms_p50": ("pause_p50_ms", "warehouse, kv"),
    "gc.cards_final_per_cycle": ("pause_p50_ms", "warehouse, kv"),
    "gc.cards_concurrent_per_cycle": ("pause_p50_ms", "warehouse, kv"),
    "gc.stack_rescan_ms_p50": ("pause_p50_ms", "warehouse, kv"),
    "gc.final_mark_ms_p50": ("pause_p50_ms, pause_p90_ms", "warehouse, kv"),
    "gc.final_mark_mb_per_ms": ("pause_p50_ms, pause_p90_ms", "warehouse, kv"),
    "gc.sweep_ms_p50": ("pause_p50_ms", "warehouse, kv"),
    "gc.sweep_mb_per_ms": ("pause_p50_ms; kv_set_us_p99 on kv-lazy",
                           "warehouse, kv, kv-lazy"),
    "gc.traced_mb_per_cycle": ("tx_per_s; req_p99_us", "warehouse; kv"),
    "gc.background_traced_ratio": ("tx_per_s; req_p99_us", "warehouse; kv"),
    "gc.tracing_factor_mean": ("tx_per_s; req_p99_us", "warehouse; kv"),
    "gc.inc_quantum_us_p50": ("tx_per_s; req_p99_us", "warehouse; kv"),
    "gc.inc_quantum_ms_total": ("tx_per_s; req_p99_us", "warehouse; kv"),
    "workpackets.sync_ops_per_mb_traced": ("pause_p50_ms", "warehouse"),
    "workpackets.overflows_per_cycle": ("pause_p50_ms", "warehouse"),
    "workpackets.deferred_per_cycle": ("pause_p50_ms", "warehouse"),
    "workpackets.failed_gets": ("pause_p50_ms", "warehouse"),
    "workpackets.packets_in_use_max": ("pause_p50_ms", "warehouse"),
    "mutator.stw_entry_us_p99": ("pause_p90_ms, req_p99_us", "all"),
    "mutator.fence_handshake_us_p99": ("pause_p90_ms, req_p99_us", "all"),
    "mutator.stw_stall_warnings": ("pause_p90_ms, req_p99_us", "all"),
    "mutator.fence_timeouts": ("pause_p90_ms, req_p99_us", "all"),
    "observe.overhead_ratio": ("none (must stay near 1)", "all"),
    "observe.dropped_events": ("none", "all"),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures (once) and builds perfbench; returns its executable."""
    # The compiler's temporary files stay inside the checkout too.
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(out / "tmp")}
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out)],
                           check=True, stdout=sys.stderr, env=env)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    return out / "perfbench"


def source_record():
    """The git revision when there is one, and a digest of src/ always
    (benchmark checkouts are not git repositories)."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        rev = rev.stdout.strip() if rev.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        rev = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def run_perfbench(exe, args, observe, spans=None):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--observe", str(observe)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds * 2 + 40)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def gate(doc, short):
    """Returns the reasons this run is rejected (empty when it passes)."""
    problems = list(doc["errors"])
    pauses = doc["metrics"]["pauses"]
    beyond = doc["metrics"]["pauses_beyond_p90"]
    if not short and (pauses < MIN_PAUSES or beyond < MIN_BEYOND_P90):
        problems.append(f"GC-activity floor: {pauses:.0f} pauses in the "
                        f"window, {beyond:.0f} beyond pause_p90_ms; needs "
                        f"{MIN_PAUSES} and {MIN_BEYOND_P90}")
    return problems


def print_table(title, rows):
    print(f"\n{title}")
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="skip the GC-activity floor (self-tests)")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        ap.error("--seconds must be 1..60 and --seed non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = build_dir()
    exe = build(out)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    untraced = run_perfbench(exe, args, observe=0)
    docs = [untraced]
    if args.trace:
        (out / "traces").mkdir(exist_ok=True)
        spans = out / "traces" / f"{args.workload}-seed{args.seed}.spans.csv"
        traced = run_perfbench(exe, args, observe=1, spans=spans)
        docs.append(traced)
        before, after = untraced["metrics"], traced["metrics"]
        # A slowdown factor either way: above 1 means tracing costs.
        if args.workload == "warehouse":
            overhead = before["tx_per_s"] / after["tx_per_s"]
        else:
            overhead = after["req_p50_us"] / before["req_p50_us"]
        traced["metrics"]["observe.overhead_ratio"] = overhead
        report, wanted = traced, spec["per_layer"]
    else:
        report, wanted = untraced, spec["end_to_end"]

    problems = [p for d in docs for p in gate(d, args.short)]
    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    problems += [f"metric {name} was not measured" for name in missing]

    record = {"host": {**untraced["host"], **source_record()},
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "slo_limit_us": untraced["slo_limit_us"],
              "runs": docs, "problems": problems}
    (out / "results").mkdir(exist_ok=True)
    (out / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    m = report["metrics"]
    if args.trace:
        print_table("per-layer metrics (traced run)",
                    [("metric", "value", "unit", "should move", "on")] +
                    [(x["name"], fmt(m.get(x["name"], float("nan"))), x["unit"],
                      *MOVES.get(x["name"], ("", ""))) for x in wanted])
        print_table("self time of the benchmark's spans (traced run)",
                    [("span", "layer", "count", "total ms", "self ms")] +
                    [(s["span"], s["layer"], s["count"], f"{s['total_ms']:.3f}",
                      f"{s['self_ms']:.3f}") for s in traced["self_times"]])
    else:
        print_table("end-to-end metrics",
                    [("metric", "value", "unit")] +
                    [(x["name"], fmt(m.get(x["name"], float("nan"))), x["unit"])
                     for x in wanted])
        print(f"\n  request samples {m['req_samples']:.0f}, pauses "
              f"{m['pauses']:.0f}, SLO limit {untraced['slo_limit_us']:.0f} us")
    for p in problems:
        print(f"REJECTED: {p}")

    result = {
        "correct": not problems,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {x["name"]: {"value": m.get(x["name"], 0.0),
                                "unit": x["unit"]} for x in wanted},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError,
            json.JSONDecodeError) as err:
        log(f"perfbench: {err}")
        sys.exit(1)
