#!/usr/bin/env python3
"""Render the bench-job artefacts as a GitHub job-summary markdown table.

Usage:
    bench_summary.py results/BENCH_kernel_micro.json results/BENCH_reproduce.json

Reads the kernel micro-bench artefact (per-bench timings, the per-edge
clock cost and jitter surcharge, the trace footprint and replay cost per
instruction, and the event-timeline traffic and kernel-step counters,
quiet-time catch-up included), the Table 6 artefact (suite / Global search
split of the whole `table6::run_with_stats` call, and the suite's simulations
against the plan jobs that shared one) and the reproduction pass artefact (wall
time, simulations, shared jobs and scheduler utilization of its union
plan, Global search and render-and-write phases, and the process's peak
RSS), and prints GitHub-flavoured markdown
suitable for appending to ``$GITHUB_STEP_SUMMARY``.  Missing files are reported but do not fail the
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
# Instructions drained per iteration of the `trace_replay_gzip_60k` bench.
INSTS_PER_TRACE_REPLAY = 60000


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
        print("| workload | pushes | pops | lane pushes | events/commit |")
        print("|---|---|---|---|---|")
        for t in traffic:
            epc = t.get("events_per_commit")
            epc_cell = f"{epc:.3f}" if epc is not None else "-"
            print(
                f"| {t['workload']} | {t['timeline_pushes']} | {t['timeline_pops']} "
                f"| {t.get('lane_pushes', '-')} | {epc_cell} |"
            )
        print()
        print("### Kernel steps (20k-instruction runs)\n")
        print("| workload | steps/commit | idle-step fraction "
              "| skipped-step fraction | skipped steps | quiet-time catch-ups |")
        print("|---|---|---|---|---|---|")
        for t in traffic:
            print(
                f"| {t['workload']} | {fmt(t.get('steps_per_commit'), '.2f')} "
                f"| {fmt(t.get('idle_step_fraction'), '.3f')} "
                f"| {fmt(t.get('skipped_step_fraction'), '.3f')} "
                f"| {t.get('skipped_steps', '-')} | {t.get('quiet_skips', '-')} |"
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

    replay = next((r["ns_per_iter"] / INSTS_PER_TRACE_REPLAY
                   for r in doc.get("benches", [])
                   if r["id"] == "trace_replay_gzip_60k"), None)
    footprint = doc.get("trace_bytes_per_inst")
    if replay is not None or footprint is not None:
        print("### Shared traces (gzip, 60k instructions)\n")
        print(f"- bytes per instruction: {fmt(footprint, '.1f')}")
        print(f"- **replay: {fmt(replay, '.2f')} ns per instruction**")
        print()


def table6(doc):
    print("### Table 6 (suite vs Global search)\n")
    total = doc.get("table6_wall_s")
    suite = doc.get("wall_seconds")
    search = doc.get("global_s")
    print(f"- workers: **{doc.get('workers')}**, benchmarks: {doc.get('benchmarks')}")
    print(f"- suite simulations: {doc.get('runs', '-')}; plan jobs served by "
          f"another job's simulation: {doc.get('shared_jobs', '-')}")
    print(f"- whole call: {fmt(total, '.2f')}s = suite {fmt(suite, '.2f')}s "
          f"+ Global search {fmt(search, '.2f')}s")
    if total:
        print(f"- **Global search share: {search / total:.2f}**")
    print()


def reproduce(doc):
    print("### Reproduction pass (Table 6 and Figures 4-7)\n")
    print(f"- workers: **{doc.get('workers')}** (nproc {doc.get('nproc')}), "
          f"benchmarks: {doc.get('benchmarks')}\n")
    print("| phase | wall (s) | simulations | shared jobs | utilization |")
    print("|---|---|---|---|---|")
    for key, label in (("plan", "union plan"), ("global", "Global search")):
        phase = doc.get(key) or {}
        print(f"| {label} | {fmt(phase.get('wall_s'), '.2f')} "
              f"| {phase.get('runs', '-')} | {phase.get('shared_jobs', '-')} "
              f"| {fmt(phase.get('utilization'), '.2f')} |")
    print(f"| render and write | {fmt(doc.get('render_write_s'), '.3g')} | - | - | - |")
    print(f"\n- **whole pass: {fmt(doc.get('reproduce_wall_s'), '.2f')}s**, "
          f"peak RSS {fmt(doc.get('peak_rss_mib'), '.1f')} MiB")
    print()


def main(argv):
    for path in argv[1:]:
        doc = load(path)
        if doc is None:
            continue
        if doc.get("experiment") == "kernel_micro":
            kernel_micro(doc)
        elif doc.get("experiment") == "table6":
            table6(doc)
        elif doc.get("experiment") == "reproduce":
            reproduce(doc)
        else:
            print(f"_bench summary: `{path}` has unknown experiment kind_\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
