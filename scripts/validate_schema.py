#!/usr/bin/env python3
"""Unified schema validator for the repo's machine-readable artifacts.

One entry point for every artifact check CI gates on, replacing the
hand-rolled inline validators that used to live in each workflow job.
Two JSON families:

    validate_schema.py campaign campaign.jsonl --timing --command ablation-cascade
    validate_schema.py profile profile.json [--timing]

and five gates over what the binaries emit:

    validate_schema.py counters COUNTERS_baseline.json paper_mix.out ...
    validate_schema.py speedup jobs1.jsonl jobs4.jsonl
    validate_schema.py closure analytics-out/exp1-analysis.json ...
    validate_schema.py campaign-report campaign-report.md --command ablation-cascade \\
        --arms reactive evacuate evac+ckpt
    validate_schema.py telemetry telemetry-out

Exits non-zero with a diagnostic on the first violation. Volatile fields
(walls, rates) are type- and range-checked only; deterministic fields are
checked structurally so the validator stays seed-independent.
"""

import argparse
import csv
import json
import os
import sys


def fail(msg):
    print(f"validate_schema: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ------------------------------------------------------------- campaign


def validate_campaign(path, args):
    lines = [json.loads(l) for l in open(path)]
    require(lines, "empty manifest")
    meta = lines[0]
    require(meta.get("kind") == "meta", "first line must be the meta record")
    require(meta.get("schema") == "aimes-campaign-v1", f"schema: {meta.get('schema')}")
    if args.command:
        require(
            meta.get("command") == args.command,
            f"command: {meta.get('command')} != {args.command}",
        )
    runs = [l for l in lines if l.get("kind") == "run"]
    pools = [l for l in lines if l.get("kind") == "pool"]
    require(len(runs) == meta.get("total_jobs"), "run record per job")
    require(
        [r["job"] for r in runs] == list(range(len(runs))),
        "manifest must list runs in canonical job order",
    )
    for r in runs:
        require(r.get("outcome") in ("ok", "failed"), f"outcome: {r.get('outcome')}")
        if r["outcome"] == "ok":
            require(
                r.get("ttc_secs", 0) > 0 and r.get("error_kind") is None,
                f"job {r['job']}: ok runs carry ttc and no error taxonomy",
            )
        else:
            require(r.get("error_kind"), f"job {r['job']}: failed runs carry error_kind")
        if args.timing:
            t = r.get("timing")
            require(t is not None, f"job {r['job']}: timing mode records the wall split")
            require(
                t["wall_end_secs"] >= t["wall_start_secs"],
                f"job {r['job']}: wall must not run backwards",
            )
        else:
            require(
                r.get("timing") is None,
                f"job {r['job']}: timing must be gated off without --campaign-timing",
            )
    if args.timing:
        require(len(pools) == 1, "timing mode appends exactly one pool record")
        workers = pools[0].get("workers")
        require(workers, "per-worker accounting present")
        require(
            sum(w["items"] for w in workers) == len(runs),
            "worker items must sum to the run count",
        )
        for w in workers:
            require(
                0.0 <= w["busy_fraction"] <= 1.0,
                f"worker {w.get('worker')}: busy_fraction out of range",
            )
        print(f"campaign OK: {len(runs)} runs, {len(workers)} workers")
    else:
        require(not pools, "pool record requires timing mode")
        print(f"campaign OK: {len(runs)} runs (timing gated)")


# -------------------------------------------------------------- profile

ENGINE_KEYS = (
    "events_processed",
    "events_scheduled",
    "events_cancelled",
    "pending_events_hwm",
    "compactions",
)


def validate_profile(path, args):
    doc = json.load(open(path))
    require(doc.get("schema") == "aimes-profile-v1", f"schema: {doc.get('schema')}")
    require(isinstance(doc.get("command"), str) and doc["command"], "command missing")
    require(isinstance(doc.get("seed"), int), "seed must be an integer")
    require(isinstance(doc.get("runs"), int) and doc["runs"] > 0, "runs must be positive")
    engine = doc.get("engine")
    require(isinstance(engine, dict), "engine section missing")
    for key in ENGINE_KEYS:
        require(
            isinstance(engine.get(key), int) and engine[key] >= 0,
            f"engine.{key} must be a non-negative integer",
        )
    require(engine["events_processed"] > 0, "engine must have processed events")
    labels = doc.get("labels")
    require(isinstance(labels, list) and labels, "labels must be non-empty")
    names = [l.get("label") for l in labels]
    require(names == sorted(names), "labels must be sorted by name (deterministic)")
    for l in labels:
        require(isinstance(l.get("count"), int) and l["count"] > 0, f"{l}: bad count")
    timing = doc.get("timing")
    if args.timing:
        require(timing is not None, "--timing requires the timing section")
    if timing is None:
        for l in labels:
            require(
                l.get("timing") is None,
                "label timing must be gated with the document timing section",
            )
        require(doc.get("alloc") is None, "alloc section requires timing mode")
        print(f"profile OK: {len(labels)} labels, timing gated")
        return
    require(is_num(timing.get("total_wall_secs")), "timing.total_wall_secs")
    require(is_num(timing.get("attributed_secs")), "timing.attributed_secs")
    for l in labels:
        lt = l.get("timing")
        require(lt is not None, f"{l['label']}: timed docs carry label timing")
        for key in ("exclusive_secs", "share", "mean_us", "p50_us", "p95_us", "p99_us"):
            require(is_num(lt.get(key)) and lt[key] >= 0, f"{l['label']}: {key}")
    coverage = timing.get("coverage")
    if coverage is not None:
        # Sequential harnesses attribute the whole wall: the exclusive
        # times must tile it to within 5% (the tentpole's acceptance bar).
        require(
            0.95 <= coverage <= 1.05,
            f"attributed/wall coverage {coverage:.4f} outside [0.95, 1.05]",
        )
    alloc = doc.get("alloc")
    if alloc is not None:
        for key in ("allocs", "bytes_allocated", "peak_bytes"):
            require(
                isinstance(alloc.get(key), int) and alloc[key] >= 0, f"alloc.{key}"
            )
        require(is_num(alloc.get("allocs_per_event")), "alloc.allocs_per_event")
    cov = f", coverage {coverage:.3f}" if coverage is not None else ""
    print(f"profile OK: {len(labels)} labels, {doc['runs']} runs{cov}")


# ---------------------------------------------------------------- gates

COUNTER_KEYS = (
    "sim.events",
    "sim.events_cancelled",
    "engine.dispatch.calls",
    "cluster.scheduler.calls",
)


def check_counters(args):
    """Benchmark-of-record outputs (`--quick --passes 1 --trace 1`, one per
    workload) against the committed counters: the engine counts, the
    cluster scheduler's pass count, the result digest and the run count
    must be exactly equal, every finished run must free its heap, and
    allocations and bytes allocated per run must stay under their
    committed ceilings (ceilings, not exact values: both move slightly
    with the worker count)."""
    baseline = json.load(open(args.baseline))
    seen = set()
    for path in args.outputs:
        lines = open(path).read().splitlines()
        require(lines and lines[0].startswith("workload "), f"{path}: no header line")
        words = lines[0].split()
        header = dict(zip(words[::2], words[1::2]))
        name = header["workload"]
        want = baseline["workloads"].get(name)
        require(want is not None, f"{path}: workload {name} has no committed counters")
        seen.add(name)
        for key in ("seed", "passes"):
            require(
                int(header[key]) == baseline[key],
                f"{name}: {key} {header[key]} != {baseline[key]}: run it as the baseline says",
            )
        metrics = json.loads(lines[-1])["metrics"]
        got = {
            "runs_per_pass": int(header["runs/pass"]),
            "digest": header["digest"],
            **{k: metrics[k]["value"] for k in COUNTER_KEYS},
        }
        for key, value in got.items():
            require(value == want[key], f"{name}: {key} {value} != committed {want[key]}")
        kb = metrics["alloc.heap_retained_kb_per_run"]["value"]
        require(kb < 1.0, f"{name}: retained heap {kb:.4f} KB/run >= 1.0: finished runs leak")
        allocs = metrics["alloc.allocs_per_run"]["value"]
        ceiling = want["alloc.allocs_per_run.ceiling"]
        require(
            allocs <= ceiling,
            f"{name}: {allocs:.0f} allocs/run > committed ceiling {ceiling}",
        )
        nbytes = metrics["alloc.bytes_per_run"]["value"]
        bytes_ceiling = want["alloc.bytes_per_run.ceiling"]
        require(
            nbytes <= bytes_ceiling,
            f"{name}: {nbytes:.0f} bytes/run > committed ceiling {bytes_ceiling}",
        )
        print(
            f"{name}: {got['runs_per_pass']} runs, {got['sim.events']:.0f} events, "
            f"{got['cluster.scheduler.calls']:.0f} scheduler passes, "
            f"digest {got['digest']}, retained {kb:.4f} KB/run, "
            f"{allocs:.0f} allocs/run (ceiling {ceiling}), "
            f"{nbytes:.0f} bytes/run (ceiling {bytes_ceiling})"
        )
    missing = sorted(set(baseline["workloads"]) - seen)
    require(not missing, f"no output for workloads {missing}")


def check_speedup(args):
    """Worker-pool scaling: the pool wall of one timing-mode campaign
    manifest at --jobs 1 over the same campaign's at --jobs 4."""
    walls = {}
    counts = {}
    for jobs, path in ((1, args.jobs1), (4, args.jobs4)):
        lines = [json.loads(l) for l in open(path)]
        counts[jobs] = sum(1 for l in lines if l.get("kind") == "run")
        pools = [l for l in lines if l.get("kind") == "pool"]
        require(len(pools) == 1, f"{path}: needs one pool record (--campaign-timing)")
        walls[jobs] = pools[0]["wall_secs"]
        print(f"--jobs {jobs}: {counts[jobs]} runs, pool wall {walls[jobs]:.3f}s")
    require(counts[1] == counts[4], f"run counts differ: {counts[1]} vs {counts[4]}")
    speedup = walls[1] / walls[4]
    print(f"speedup: {speedup:.2f}x")
    require(speedup >= 1.8, f"worker pool must scale: {speedup:.2f}x < 1.8x")


def check_closure(args):
    """Each `analyze` report closes and its critical path spans the TTC."""
    for path in args.paths:
        name = os.path.basename(path).removesuffix("-analysis.json")
        r = json.load(open(path))
        c = r["closure"]
        require(c["holds"], f"{name}: closure broken ({c['error_secs']}s)")
        require(abs(c["error_secs"]) <= 1e-6, f"{name}: {c['error_secs']}")
        cp = r["critical_path"]
        require(
            abs(cp["total_secs"] - r["ttc_reported_secs"]) <= 1e-6,
            f"{name}: critical path {cp['total_secs']}s != TTC {r['ttc_reported_secs']}s",
        )
        print(
            f"{name}: TTC {r['ttc_reported_secs']:.3f}s, "
            f"closure error {c['error_secs']:.2e}, "
            f"{len(cp['segments'])} path segments"
        )


def check_campaign_report(args):
    """`campaign-report` markdown (of a timing manifest) carries every
    section and arm row."""
    text = open(args.path).read()
    for heading in (
        f"## Campaign report — {args.command}",
        "### TTC percentiles by arm",
        "### Straggler runs (Tukey fence per arm)",
        "### Failures",
    ):
        require(heading in text, f"missing section: {heading}")
    require("### Pool utilization" in text, "timing manifest renders pool section")
    for arm in args.arms:
        require(f"| {arm} |" in text, f"missing arm row: {arm}")
    print(f"campaign report OK: {len(args.arms)} arms")


def check_telemetry(args):
    """`telemetry --emit-metrics DIR --trace-out DIR/events.json` output:
    Chrome trace, metrics JSON + CSV, and the event trace."""
    trace = json.load(open(os.path.join(args.dir, "trace.json")))
    events = trace["traceEvents"]
    require(events, "empty Chrome trace")
    require(any(e["ph"] == "X" for e in events), "no spans")
    require(any(e["ph"] == "C" for e in events), "no counter samples")
    metrics = json.load(open(os.path.join(args.dir, "metrics.json")))
    require(metrics["counters"], "no counters")
    require(metrics["gauges"], "no gauges")
    require(metrics["histograms"], "no histograms")
    rows = list(csv.DictReader(open(os.path.join(args.dir, "metrics.csv"))))
    require(rows, "empty metrics CSV")
    float(rows[0]["time_secs"])
    float(rows[0]["value"])
    records = json.load(open(os.path.join(args.dir, "events.json")))
    require(isinstance(records, list) and records, "event trace is not a non-empty array")
    last = None
    for i, r in enumerate(records):
        require(
            isinstance(r, dict) and {"time", "component", "event", "detail"} <= r.keys(),
            f"event trace record {i} lacks time/component/event/detail: {r}",
        )
        require(is_num(r["time"]), f"event trace record {i}: time {r['time']!r} is not a number")
        require(last is None or r["time"] >= last, f"event trace time goes back at record {i}")
        last = r["time"]
    print(f"{len(events)} trace events, {len(rows)} CSV samples, {len(records)} trace records OK")


# ------------------------------------------------------------------ cli


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="family", required=True)
    for family, validate in (
        ("campaign", validate_campaign),
        ("profile", validate_profile),
    ):
        p = sub.add_parser(family)
        p.add_argument("path")
        p.add_argument(
            "--timing",
            action="store_true",
            help="require the volatile timing sections (campaign/profile families)",
        )
        p.add_argument(
            "--command",
            help="expected producing command recorded in the document (campaign family)",
        )
        p.set_defaults(run=lambda a, validate=validate: validate(a.path, a))
    p = sub.add_parser("counters", help=check_counters.__doc__)
    p.add_argument("baseline", help="the committed COUNTERS_baseline.json")
    p.add_argument("outputs", nargs="+", help="the benchmark's stdout, one file per workload")
    p.set_defaults(run=check_counters)
    p = sub.add_parser("speedup", help=check_speedup.__doc__)
    p.add_argument("jobs1", help="--campaign-out manifest of a --campaign-timing sweep at --jobs 1")
    p.add_argument("jobs4", help="the same sweep's at --jobs 4")
    p.set_defaults(run=check_speedup)
    p = sub.add_parser("closure", help=check_closure.__doc__)
    p.add_argument("paths", nargs="+", help="`analyze --out` reports")
    p.set_defaults(run=check_closure)
    p = sub.add_parser("campaign-report", help=check_campaign_report.__doc__)
    p.add_argument("path", help="the report's markdown")
    p.add_argument("--command", required=True, help="the sweep the manifest came from")
    p.add_argument("--arms", nargs="+", required=True, help="arm rows that must appear")
    p.set_defaults(run=check_campaign_report)
    p = sub.add_parser("telemetry", help=check_telemetry.__doc__)
    p.add_argument("dir", help="the --emit-metrics directory, holding events.json")
    p.set_defaults(run=check_telemetry)
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
