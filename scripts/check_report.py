#!/usr/bin/env python3
"""Consolidated CI assertions over adaptbf's JSON artifacts.

Every CI job that asserts on a schema-versioned report document (or the
Chrome trace export) runs one subcommand of this script instead of an
inline workflow heredoc, so the expected schema version lives in exactly
one place and the checks are runnable locally:

    scripts/check_report.py remote-smoke remote_report.json
    scripts/check_report.py saturation-smoke saturation.json
    scripts/check_report.py workload-smoke workload_report.json replay_report.json
    scripts/check_report.py trace-smoke matrix_trace.json obs_report.json
    scripts/check_report.py gate-contention-smoke gate_contention.json

Checks assert existence and shape (schema version, section presence,
counter consistency), never performance magnitudes — CI runners are too
noisy for those; the tracked BENCH_matrix.json gate owns regressions.
"""

import argparse
import collections
import json
import sys

# The schema version every current artifact must carry. Bump alongside
# report.SchemaVersion (internal/report/report.go).
SCHEMA_VERSION = 8


def load(path):
    with open(path) as f:
        return json.load(f)


def assert_schema(doc, path):
    got = doc.get("schema_version")
    assert got == SCHEMA_VERSION, f"{path}: schema_version {got}, want {SCHEMA_VERSION}"


def check_remote_smoke(args):
    doc = load(args.report)
    assert_schema(doc, args.report)
    cells = doc["cells"]
    assert len(cells) == args.cells, f"{len(cells)} cells, want {args.cells}"
    for c in cells:
        assert c["backend"] == "remote", c
        assert not c.get("error"), c
    policies = {c["policy"] for c in cells}
    assert len(policies) == len(cells), f"repeated policies: {sorted(policies)}"
    print(f"remote report OK: {len(cells)} cells ({', '.join(sorted(policies))})")


def check_saturation_smoke(args):
    doc = load(args.report)
    assert_schema(doc, args.report)
    assert doc["kind"] == "saturation", doc["kind"]
    sat = doc["saturation"]
    pols = sat["policies"]
    assert len(pols) == args.policies, [p["admission"] for p in pols]
    for p in pols:
        knee = p["capacity_scale"]
        assert 0 <= knee <= sat["max_scale"], p
        assert p["probes"], p["admission"]
        if knee > 0:
            at = p["at_knee"]
            assert at["scale"] == knee and not at["breach"], at
            assert 0 < at["goodput_pct_mean"] <= 100, at
    print("saturation report OK:",
          {p["admission"]: p["capacity_scale"] for p in pols})


def check_workload_smoke(args):
    rec = load(args.recorded)
    rep = load(args.replayed)
    for doc, path in ((rec, args.recorded), (rep, args.replayed)):
        assert_schema(doc, path)
        assert len(doc["cells"]) == 1 and not doc["cells"][0].get("error")
    a, b = rec["cells"][0], rep["cells"][0]
    wa, wb = a["workload"], b["workload"]
    assert wa["mode"] == wb["mode"] == "stream", (wa, wb)
    assert wa["source"] == "spec" and wb["source"] == "trace", (wa, wb)
    assert wa["stream_jobs"] == wb["stream_jobs"] == args.stream_jobs, (wa, wb)
    assert wa["spec_sha256"] == wb["spec_sha256"], (wa, wb)
    assert wa["trace_path"], wa
    for k in ("served_rpcs", "overall_mibps", "makespan_s"):
        assert a[k] == b[k], (k, a[k], b[k])
    print(f"workload smoke OK: {wa['stream_jobs']} jobs streamed,"
          f" replay reproduced {a['served_rpcs']} RPCs")


def check_trace_smoke(args):
    doc = load(args.trace)
    evs = doc["traceEvents"]
    assert evs, "empty trace"
    # Every event lives in a process that metadata names.
    named = {e["pid"] for e in evs
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert {e["pid"] for e in evs} <= named, "unnamed process"
    assert len(named) == args.processes, sorted(named)
    # Async span lifecycles balance: b/e pair up per (pid, cat, id),
    # opens before closes, nothing left dangling.
    open_spans = collections.Counter()
    for e in evs:
        if e["ph"] == "b":
            open_spans[(e["pid"], e["cat"], e["id"])] += 1
        elif e["ph"] == "e":
            key = (e["pid"], e["cat"], e["id"])
            assert open_spans[key] > 0, f"e before b: {e}"
            open_spans[key] -= 1
    assert not +open_spans, f"unclosed spans: {+open_spans}"
    # Complete spans never overlap within one thread: the device phase
    # is sequential per OSS by construction.
    lanes = collections.defaultdict(list)
    for e in evs:
        if e["ph"] == "X":
            lanes[(e["pid"], e["tid"])].append((e["ts"], e["dur"]))
    ns = lambda us: round(us * 1000)  # timestamps are µs floats of ns values
    for lane, spans in lanes.items():
        spans.sort()
        for (t0, d0), (t1, _) in zip(spans, spans[1:]):
            assert ns(t0) + ns(d0) <= ns(t1), f"overlapping X spans in {lane}"
    names = {e["name"] for e in evs}
    for want in ("rpc", "device", "adaptbf.tick", "gift.walk"):
        assert want in names, f"missing {want} spans"
    rep = load(args.report)
    assert_schema(rep, args.report)
    for c in rep["cells"]:
        o = c["obs"]
        assert o["counters"]["rpc_served_total"] == c["served_rpcs"], c
    print(f"trace OK: {len(evs)} events across {len(named)} cells,"
          f" {len(lanes)} X lanes")


def check_gate_contention_smoke(args):
    doc = load(args.report)
    assert_schema(doc, args.report)
    assert doc["kind"] == "gate-contention", doc["kind"]
    gc = doc["gate_contention"]
    gates = {g["gate"]: g for g in gc["gates"]}
    want = {"tbf", "sharded-tbf", "edt", "sfq"}
    assert set(gates) == want, sorted(gates)
    assert gates["tbf"]["shards"] == 0 and gates["sharded-tbf"]["shards"] > 1, \
        {n: g["shards"] for n, g in gates.items()}
    concs = gc["concurrencies"]
    assert len(concs) >= args.min_concurrencies, concs
    for g in gc["gates"]:
        got = [p["concurrency"] for p in g["points"]]
        assert got == concs, (g["gate"], got, concs)
        for p in g["points"]:
            assert p["n"] >= 1, (g["gate"], p)
            assert p["mibps_mean"] > 0, (g["gate"], p)
            assert p["p99_us_mean"] > 0, (g["gate"], p)
            # Shape, not magnitude: every gate must have actually
            # observed lock acquisitions at the requestGate seam — a
            # zero count means the histogram got unhooked, the exact
            # regression this smoke exists to catch.
            assert p["lock_wait_count"] > 0, (g["gate"], p)
    print("gate-contention report OK:",
          {n: [p["lock_wait_count"] for p in g["points"]]
           for n, g in gates.items()})


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="check", required=True)

    p = sub.add_parser("remote-smoke",
                       help="remote-backend grid report: one cell per policy, all backend:remote, none failed")
    p.add_argument("report")
    p.add_argument("--cells", type=int, default=6, help="expected cell count (the six-policy axis)")
    p.set_defaults(fn=check_remote_smoke)

    p = sub.add_parser("saturation-smoke",
                       help="saturation study: a knee per admission policy, goodput beside it")
    p.add_argument("report")
    p.add_argument("--policies", type=int, default=2, help="expected admission-policy count")
    p.set_defaults(fn=check_saturation_smoke)

    p = sub.add_parser("workload-smoke",
                       help="streaming workload + trace replay: replay reproduces the recorded cell")
    p.add_argument("recorded")
    p.add_argument("replayed")
    p.add_argument("--stream-jobs", type=int, default=1_000_000,
                   help="expected streamed job count")
    p.set_defaults(fn=check_workload_smoke)

    p = sub.add_parser("trace-smoke",
                       help="Chrome trace structural invariants + obs counters vs cell summaries")
    p.add_argument("trace")
    p.add_argument("report")
    p.add_argument("--processes", type=int, default=2, help="expected trace process count")
    p.set_defaults(fn=check_trace_smoke)

    p = sub.add_parser("gate-contention-smoke",
                       help="gate-contention study: all four gates, nonzero lock-wait counts")
    p.add_argument("report")
    p.add_argument("--min-concurrencies", type=int, default=2,
                   help="minimum swept concurrency points")
    p.set_defaults(fn=check_gate_contention_smoke)

    args = ap.parse_args()
    try:
        args.fn(args)
    except (AssertionError, KeyError, TypeError) as e:
        print(f"check_report {args.check} FAILED: {e!r}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
