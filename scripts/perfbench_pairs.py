#!/usr/bin/env python3
"""Compare two perfbench binaries over interleaved pairs of runs.

Usage:
    perfbench_pairs.py PARENT_BIN CHANGE_BIN WORKLOAD N [--seconds S]

Runs N pairs of ``--workload WORKLOAD`` processes, one with each binary,
at perfbench's default seed.
Pair i runs the parent first when i is even and the change first when it
is odd, so a drift in the host's speed hits both sides alike.  For every
end-to-end metric listed in the repository's ``BENCHMARK.json`` it then
prints each side's median [q1-q3] over the N runs, the median of the N
per-pair ratios (change / parent) and "change better in k of N" (by the
metric's ``better`` direction; a tie counts as not better).

Exits with status 1 if any run prints ``"correct": false`` or reports
failed cells, if the two sides' ``result_digest`` differ, or if one side's
digest changes between runs; a bit-identical change must reproduce the
parent's results on every run.  Exits with status 2 on a usage error or a
run that does not finish.

Build the two binaries first, e.g. for the parent in a separate checkout:
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
and pass ``perfbench/target/release/mcd-perfbench`` of each checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics():
    """The (name, unit, better) triples of the benchmark's end-to-end metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]


def run_once(binary, workload, seconds):
    """Runs one perfbench process; returns (summary, provenance) dicts."""
    cmd = [binary, "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{' '.join(cmd)} exited with status {proc.returncode}\n")
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(2)
    summary = json.loads(lines[-1])
    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return summary, provenance


def quartiles(values):
    """(q1, median, q3) of a non-empty list (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=os.path.abspath)
    parser.add_argument("change", type=os.path.abspath)
    parser.add_argument("workload")
    parser.add_argument("n", type=int)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    if args.n < 1:
        parser.error("N must be at least 1")

    metrics = end_to_end_metrics()
    runs = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    bad = []
    for i in range(args.n):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            binary = args.parent if side == "parent" else args.change
            summary, provenance = run_once(binary, args.workload, args.seconds)
            if summary.get("correct") is not True or summary.get("failed", 0) != 0:
                bad.append(f"pair {i + 1} {side}: correct={summary.get('correct')} "
                           f"failed={summary.get('failed')}")
            digests[side].add(provenance.get("result_digest"))
            runs[side].append({name: summary["metrics"][name]["value"]
                               for name, _, _ in metrics if name in summary["metrics"]})
        print(f"pair {i + 1}/{args.n} done ({' then '.join(order)})", file=sys.stderr)

    print(f"workload {args.workload}, {args.n} interleaved pairs, --seconds {args.seconds}, "
          f"nproc {os.cpu_count()}")
    print(f"{'metric':<14} {'parent median [q1-q3]':<34} {'change median [q1-q3]':<34} "
          f"{'pair ratio':>10}  change better")
    for name, unit, better in metrics:
        if not all(name in r for side in runs for r in runs[side]):
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        ratios = [c / p for p, c in zip(parent, change) if p != 0]
        wins = sum(1 for p, c in zip(parent, change) if (c < p if better == "lower" else c > p))
        cells = []
        for values in (parent, change):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}-{q3:.4g}] {unit}")
        ratio = f"{statistics.median(ratios):.4f}" if ratios else "-"
        print(f"{name:<14} {cells[0]:<34} {cells[1]:<34} {ratio:>10}  "
              f"{wins} of {args.n} ({better} is better)")

    print(f"result_digest parent {sorted(map(str, digests['parent']))} "
          f"change {sorted(map(str, digests['change']))}")
    if len(digests["parent"]) != 1 or digests["parent"] != digests["change"]:
        bad.append("result_digest differs between runs or sides")
    if bad:
        for line in bad:
            print(f"FAIL: {line}")
        sys.exit(1)


if __name__ == "__main__":
    main()
