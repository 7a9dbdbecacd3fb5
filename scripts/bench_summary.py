#!/usr/bin/env python3
"""Render the bench-job artefacts as a GitHub job-summary markdown table.

Usage:
    bench_summary.py results/BENCH_kernel_micro.json results/BENCH_engine_scaling.json

Reads the kernel micro-bench artefact (per-bench timings plus the
event-timeline traffic and kernel-step counters) and the engine-scaling artefact, and
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
        print("| workload | steps/commit | idle-step fraction | jitter fallback fraction |")
        print("|---|---|---|---|")
        for t in traffic:
            print(
                f"| {t['workload']} | {fmt(t.get('steps_per_commit'), '.2f')} "
                f"| {fmt(t.get('idle_step_fraction'), '.3f')} "
                f"| {fmt(t.get('jitter_fallback_frac'), '.4f')} |"
            )
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
        else:
            print(f"_bench summary: `{path}` has unknown experiment kind_\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
