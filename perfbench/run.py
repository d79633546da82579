#!/usr/bin/env python3
"""Build and run one benchmark workload, check its answers and print its
metrics. See perfbench/README.md.

    python3 perfbench/run.py --workload short_mix --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("tpch_power", "short_mix", "etl_load")
# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# Every benchmark process of one run must have ended by then.
RUN_BUDGET_S = 170
REFERENCE = os.path.join(HERE, "reference_digests.json")
# Node kinds read from hawq_stat_profile. MotionSend (a slice root, not an
# instrumented operator) and Insert (INSERTs run untraced) never get
# samples in this engine, so they are not reported.
EXECUTOR_KINDS = {
    "seqscan": "SeqScan",
    "hashjoin": "HashJoin",
    "hashagg": "HashAgg",
    "sort": "Sort",
    "motionrecv": "MotionRecv",
}
# Statement kinds whose statements pin one distribution key value, and
# those that read a narrow key range (zone-map skipping applies).
POINT_KINDS = {"point"}
RANGE_KINDS = {"range"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure and build hawq_perfbench; returns its path or exits non-zero."""
    # Compilers and hawq_perfbench keep their temporary files in the build tree.
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "hawq_perfbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(3)
    return os.path.join(bdir, "hawq_perfbench")


def run_bench(binary, bdir, args, tag, extra, deadline):
    out = os.path.join(bdir, "out", "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace, tag))
    data = os.path.join(bdir, "data", "%s-%d%s" % (args.workload, os.getpid(), tag))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--data-dir", data] + extra
    try:
        r = subprocess.run(cmd, timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if r.returncode != 0:
        log("perfbench: hawq_perfbench exited with %d" % r.returncode)
        sys.exit(4)
    with open(out) as f:
        return json.load(f), out


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def modal_digests(doc, records):
    """The most common result digest of each TPC-H query over the rounds
    that passed their own checks."""
    counts = {}
    for rec in records:
        if "digest" in rec and not rec["error"]:
            kind = doc["kinds"][rec["kind"]]
            counts.setdefault(kind, Counter())[rec["digest"]] += 1
    return {k: c.most_common(1)[0][0] for k, c in counts.items()}


def check_answers(doc, records):
    """Count failed statements: engine errors, wrong answers found by the
    benchmark binary, and (TPC-H rounds of the default seed) digests that
    differ from the committed reference."""
    failed = 0
    errors = []
    ref = None
    if doc["workload"] == "tpch_power" and os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            r = json.load(f)
        if r["seed"] == doc["seed"]:
            ref = r["digests"]
    for rec in records:
        why = rec["error"]
        kind = doc["kinds"][rec["kind"]]
        if not why and ref is not None and "digest" in rec and rec["digest"] != ref.get(kind):
            why = "%s digest differs from the reference" % kind
        if not rec["ok"] and not why:
            why = "statement failed"
        if why:
            failed += 1
            errors.append("%s: %s" % (kind, why))
    return failed, errors


def loop_metrics(doc, loop):
    recs = loop["records"]
    n = len(recs)
    lat_ms = [r["lat_us"] / 1e3 for r in recs]
    by_kind = {k: [] for k in doc["kinds"]}
    for r in recs:
        by_kind[doc["kinds"][r["kind"]]].append(r["lat_us"] / 1e3)
    return {
        "n": n,
        "lat": lat_ms,
        "by_kind": by_kind,
        "qps": n / loop["wall_s"],
        "rows_per_s": sum(r["rows_written"] for r in recs) / loop["wall_s"],
        "cpu_ms_per_stmt": loop["cpu_s"] * 1e3 / n,
    }


def end_to_end(doc, setups, lm, failed, attempted):
    """{name: (value, sample note)} of the gated end-to-end metrics (their
    units are in BENCHMARK.json), and a list of (name, value, unit, note)
    reported but not gated."""
    p50 = stats.percentile(lm["lat"], 0.5)
    p90 = stats.percentile(lm["lat"], 0.9)
    gated = {
        "setup_s": (stats.median(setups), "median of %d set-ups" % len(setups)),
        "throughput_qps": (lm["qps"], "n=%d" % lm["n"]),
        "latency_p50_ms": (p50.value, "n=%d" % p50.n),
        "latency_p90_ms": (p90.value, "n=%d, %d beyond%s" % (
            p90.n, p90.beyond, "" if p90.resolved else ", UNRESOLVED")),
        "query_geomean_ms": (stats.geomean_of_medians(lm["by_kind"]),
                             "%d kinds" % sum(1 for v in lm["by_kind"].values() if v)),
        "cpu_ms_per_stmt": (lm["cpu_ms_per_stmt"], "n=%d" % lm["n"]),
        "peak_rss_mb": (doc["timed"]["peak_rss_kb"] / 1024.0, "ru_maxrss once 100 timed statements have run"),
        "stored_bytes_per_user_byte": (doc["stored_ratio"], "exact count"),
    }
    # Reported, not gated: they exist only on some workloads, or are 0.
    extra = [("error_rate", stats.ratio(failed, attempted), "1", "%d/%d" % (failed, attempted)),
             ("run_peak_rss_mb", doc["peak_rss_kb"] / 1024.0, "MiB", "ru_maxrss, whole run")]
    if lm["rows_per_s"] > 0:
        extra.append(("ingest_rows_per_s", lm["rows_per_s"], "1/s", "n=%d" % lm["n"]))
    for kind in ("point", "gather", "range", "insert"):
        if lm["by_kind"].get(kind):
            p = stats.percentile(lm["by_kind"][kind], 0.5)
            extra.append(("%s_p50_ms" % kind, p.value, "ms", "n=%d" % p.n))
    return gated, extra


def per_layer(doc, lm_plain, lm_traced):
    recs = doc["traced"]["records"]
    n = len(recs)
    kinds = doc["kinds"]
    spans = doc["spans"]
    # A layer's time is the self time of its span, so spans added inside
    # a layer later are not counted twice.
    self_us = stats.self_times(spans)
    by_stmt = {}
    for s in spans:
        if s["stmt"] >= 0:
            by_stmt.setdefault(s["stmt"], {})[s["name"]] = self_us[s["id"]]

    def span_median(name):
        v = [d[name] for d in by_stmt.values() if name in d]
        return stats.median(v) if v else 0.0

    dispatch = [d["engine.execute"] - d.get("sql.parse", 0) - d.get("sql.analyze", 0)
                - d.get("planner.plan", 0) for d in by_stmt.values() if "engine.execute" in d]

    def delta(name, subset=None):
        return sum(r["deltas"][name] for r in (recs if subset is None else subset))

    point = [r for r in recs if kinds[r["kind"]] in POINT_KINDS]
    ranged = [r for r in recs if kinds[r["kind"]] in RANGE_KINDS] or recs
    skipped = delta("scan.bytes_skipped_zonemap", ranged)
    hits, misses = delta("hdfs.locality_hits"), delta("hdfs.locality_misses")
    ok = [r for r in recs if r["ok"]]
    peaks = sorted(doc["query_peak_mem_bytes"]) or [0]
    prof = doc["profile_self_us"]
    probes = doc["probes"]
    m = {
        "sql.parse_us": span_median("sql.parse"),
        "sql.analyze_us": span_median("sql.analyze"),
        "planner.plan_us": span_median("planner.plan"),
        "planner.slices_per_stmt": stats.ratio(sum(r["slices"] for r in recs), n),
        "planner.plan_kb_dispatched": stats.ratio(sum(r["plan_bytes"] for r in recs), n) / 1024.0,
        "planner.direct_dispatch_ratio": stats.ratio(sum(1 for r in point if r["direct"]), len(point)),
        "engine.dispatch_exec_ms": stats.median(dispatch) / 1e3 if dispatch else 0.0,
        "engine.cluster_start_ms": doc["setup"]["cluster_start_ms"],
        "engine.load_s": doc["setup"]["load_s"],
        "tpch.gen_s": doc["gen_s"],
        "executor.spill_bytes_per_stmt": stats.ratio(delta("resource.spill_bytes"), n),
        "executor.bloom_filtered_rows_per_stmt": stats.ratio(delta("scan.rows_filtered_bloom"), n),
        "storage.zonemap_skip_ratio": stats.ratio(
            skipped, skipped + delta("hdfs.bytes_read", ranged)),
        "hdfs.bytes_read_per_stmt": stats.ratio(delta("hdfs.bytes_read"), n),
        "hdfs.locality_ratio": stats.ratio(hits, hits + misses),
        "interconnect.packets_per_stmt": stats.ratio(delta("interconnect.udp.data_packets"), n),
        "interconnect.retransmits_per_stmt": stats.ratio(delta("interconnect.udp.retransmissions"), n),
        "tx.wal_bytes_per_commit": stats.ratio(sum(r["wal_bytes"] for r in ok), len(ok)),
        "tx.recovery_ms": doc["durability"]["recovery_ms"],
        "resource.admit_wait_us": stats.ratio(doc["admit_wait"]["sum_us"], doc["admit_wait"]["count"]),
        "resource.query_peak_mem_mb": stats.median(peaks) / 2**20,
        "resource.query_peak_mem_max_mb": peaks[-1] / 2**20,
        "bench.trace_overhead_pct": 100.0 * (lm_plain["qps"] - lm_traced["qps"]) / lm_plain["qps"],
    }
    for short, node in EXECUTOR_KINDS.items():
        m["executor.%s_self_ms" % short] = stats.ratio(prof.get(node, 0.0), n) / 1e3
    m.update(probes)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="tpch_power only: write each query's most common digest as the reference for this seed")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    if not args.trace:
        for i in range(SETUPS - 1):
            d, _ = run_bench(binary, bdir, args, "-setup%d" % i, ["--setup-only"], deadline)
            setups.append(d["setup"]["setup_s"])
    doc, out_path = run_bench(binary, bdir, args, "", [], deadline)
    setups.append(doc["setup"]["setup_s"])

    records = doc["warmup"] + doc.get("before_reopen", [])
    for name in ("traced", "untraced") if args.trace else ("timed",):
        records += doc[name]["records"]
    failed, errors = check_answers(doc, records)
    attempted = len(records)
    if doc["durability"]["checked"]:
        attempted += 1
        if doc["durability"]["error"]:
            failed += 1
            errors.append("durability: " + doc["durability"]["error"])

    if args.update_reference:
        # The reference is each query's most common digest over the run's
        # rounds; queries that disagreed are listed for a check by hand.
        if args.workload != "tpch_power":
            log("perfbench: --update-reference applies to tpch_power only")
            sys.exit(5)
        digests = modal_digests(doc, records)
        for kind in doc["kinds"]:
            if len({r["digest"] for r in records if doc["kinds"][r["kind"]] == kind}) > 1:
                log("perfbench: %s returned different results across rounds" % kind)
        with open(REFERENCE, "w") as f:
            json.dump({"seed": args.seed, "digests": digests}, f, indent=1, sort_keys=True)
            f.write("\n")

    ctx = dict(doc["context"])
    ctx["commit"] = git_commit()
    ctx["seed"] = args.seed
    main_loop = doc["traced"] if args.trace else doc["timed"]
    ctx["steal_share"] = stats.ratio(main_loop["steal_ticks"], main_loop["total_ticks"])
    print("workload %s  seed %d  seconds %g  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("context " + json.dumps(ctx, sort_keys=True))
    for e in errors[:20]:
        print("ERROR " + e)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        gated, extra = end_to_end(doc, setups, loop_metrics(doc, doc["timed"]), failed, attempted)
        values = {name: v[0] for name, v in gated.items()}
        for name, (value, note) in gated.items():
            print("%-28s %14.4f %-4s (%s)" % (name, value, units.get(name, "?"), note))
        for name, value, unit, note in extra:
            print("%-28s %14.4f %-4s (%s)  [reported only]" % (name, value, unit, note))
    else:
        values = per_layer(doc, loop_metrics(doc, doc["untraced"]), loop_metrics(doc, doc["traced"]))
        for name, value in sorted(values.items()):
            print("%-44s %14.4f %s" % (name, value, units.get(name, "?")))
        print("spans written to " + os.path.relpath(out_path, ROOT))
    if set(values) != set(units):
        log("perfbench: metrics differ from BENCHMARK.json: %s" % sorted(set(values) ^ set(units)))
        sys.exit(6)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(units)}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
