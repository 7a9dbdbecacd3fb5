#!/usr/bin/env python3
"""Render the bench-job artefacts as a GitHub job-summary markdown table.

Usage:
    bench_summary.py results/BENCH_kernel_micro.json results/BENCH_engine_scaling.json

Reads the kernel micro-bench artefact (per-bench timings, the per-edge
clock cost and jitter surcharge, and the event-timeline traffic and
kernel-step counters), the engine-scaling and
plan-scaling artefacts and the Table 6 artefact (suite / Global search
split of the whole `table6::run_with_stats` call), and
prints GitHub-flavoured markdown suitable for appending to
``$GITHUB_STEP_SUMMARY``.  Missing files are reported but do not fail the
job — the summary is advisory, the artefacts are the record.
"""

import json
import sys


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        print(f"_bench summary: could not read `{path}`: {err}_\n")
        return None


# `advance` calls per iteration of the `clock_edges_*` benches.
EDGES_PER_CLOCK_BENCH = 65536


def fmt(value, spec):
    return "-" if value is None else format(value, spec)


def kernel_micro(doc):
    print("### Kernel throughput (`microarch_components`)\n")
    if doc.get("nproc") is not None:
        print(f"_host parallelism (nproc): {doc['nproc']}_\n")
    rows = [r for r in doc.get("benches", []) if r["id"].startswith("processor_run_")]
    if rows:
        print("| bench | ms/iter |")
        print("|---|---|")
        for r in rows:
            print(f"| `{r['id']}` | {r['ns_per_iter'] / 1e6:.2f} |")
        print()
    traffic = doc.get("event_traffic", [])
    if traffic:
        print("### Event-timeline traffic (20k-instruction runs)\n")
        print("| workload | pushes | pops | overflow spills | bucket scans "
              "| lane pushes | events/commit | ann fed | ann recomputed |")
        print("|---|---|---|---|---|---|---|---|---|")
        for t in traffic:
            epc = t.get("events_per_commit")
            epc_cell = f"{epc:.3f}" if epc is not None else "-"
            print(
                f"| {t['workload']} | {t['timeline_pushes']} | {t['timeline_pops']} "
                f"| {t['overflow_spills']} | {t['bucket_scans']} "
                f"| {t.get('lane_pushes', '-')} | {epc_cell} "
                f"| {t.get('ann_fed', '-')} | {t.get('ann_recomputed', '-')} |"
            )
        print()
        print("### Kernel steps (20k-instruction runs)\n")
        print("| workload | steps/commit | idle-step fraction |")
        print("|---|---|---|")
        for t in traffic:
            print(
                f"| {t['workload']} | {fmt(t.get('steps_per_commit'), '.2f')} "
                f"| {fmt(t.get('idle_step_fraction'), '.3f')} |"
            )
        print()
    edges = {r["id"]: r["ns_per_iter"] / EDGES_PER_CLOCK_BENCH
             for r in doc.get("benches", []) if r["id"].startswith("clock_edges_")}
    if edges:
        jittered = edges.get("clock_edges_jittered_64k")
        unjittered = edges.get("clock_edges_unjittered_64k")
        surcharge = None if None in (jittered, unjittered) else jittered - unjittered
        print("### Clock edges (settled 1 GHz clock)\n")
        print(f"- ns per edge: jittered (110 ps) {fmt(jittered, '.2f')}, "
              f"unjittered {fmt(unjittered, '.2f')}")
        print(f"- **jitter surcharge: {fmt(surcharge, '.2f')} ns per edge**")
        print()


def engine_scaling(doc):
    print("### Engine scaling (sliced vs run-granularity)\n")
    ratio = doc.get("sliced_over_unsliced_speedup")
    print(f"- workers: **{doc.get('workers')}**, slice: {doc.get('slice_cycles')} steps")
    print(f"- sliced wall: {doc.get('wall_seconds', 0):.2f}s, "
          f"run-granularity wall: {doc.get('unsliced_wall_seconds', 0):.2f}s")
    if ratio is not None:
        print(f"- **sliced_over_unsliced_speedup: {ratio:.3f}x** "
              "(track in ROADMAP's multicore-validation open item)")
    print()


def plan_scaling(doc):
    print("### Plan scaling (shared traces + result memoization)\n")
    ratio = doc.get("plan_over_pergen_speedup")
    print(f"- workers: **{doc.get('workers')}**, jobs: {doc.get('plan_jobs')} "
          f"(same-workload sweep)")
    print(f"- shared-trace wall: {doc.get('wall_seconds', 0):.2f}s, "
          f"per-run-generation wall: {doc.get('pergen_wall_seconds', 0):.2f}s")
    print(f"- traces: {doc.get('trace_materializations')} materialization(s), "
          f"{doc.get('trace_cache_hits')} hits, "
          f"peak {doc.get('trace_peak_bytes', 0) / 1024:.0f} KiB resident")
    if ratio is not None:
        print(f"- **plan_over_pergen_speedup: {ratio:.3f}x** "
              "(track in ROADMAP's plan-scaling baseline)")
    hits = doc.get("repeat_result_cache_hits")
    misses = doc.get("repeat_result_cache_misses")
    if hits is not None:
        print(f"- repeat plan: **{hits} result-cache hits / {misses} misses** "
              f"({doc.get('repeat_runs')} re-simulations), "
              f"{doc.get('repeat_over_cold_speedup', 0):.0f}x over cold")
    print()


def table6(doc):
    print("### Table 6 (suite vs Global search)\n")
    total = doc.get("table6_wall_s")
    suite = doc.get("wall_seconds")
    search = doc.get("global_s")
    print(f"- workers: **{doc.get('workers')}**, benchmarks: {doc.get('benchmarks')}")
    print(f"- whole call: {fmt(total, '.2f')}s = suite {fmt(suite, '.2f')}s "
          f"+ Global search {fmt(search, '.2f')}s")
    if total:
        print(f"- **Global search share: {search / total:.2f}**")
    print()


def main(argv):
    for path in argv[1:]:
        doc = load(path)
        if doc is None:
            continue
        if doc.get("experiment") == "kernel_micro":
            kernel_micro(doc)
        elif doc.get("experiment") == "engine_scaling":
            engine_scaling(doc)
        elif doc.get("experiment") == "plan_scaling":
            plan_scaling(doc)
        elif doc.get("experiment") == "table6":
            table6(doc)
        else:
            print(f"_bench summary: `{path}` has unknown experiment kind_\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
