#!/usr/bin/env python3
"""Regenerate perfbench/pins.json, the counters the correctness gate pins.

    python3 perfbench/pin.py

Runs every distinct point of every workload once per seed (0-23) and records
its deterministic counters (cycles, events, DRAM/ECC transactions,
L2/MRC hits and misses, decode outcomes). Regenerate only for a change
that is meant to alter simulated behaviour, and say so in CHANGES.md.
"""

import argparse
import json
import subprocess
import sys

import run

DEFAULT_SEEDS = list(range(1, 11))
HELD_OUT_SEED = 11
PINNED_SEEDS = range(0, 24)


# Ratios in the campaign reports' results: derived from pinned counts.
RATIO_KEYS = ("ipc", "row_hit_rate", "mrc_hit_rate", "mrc_coverage")


def point_counters(point):
    return {k: v for k, v in point["counters"].items()
            if k not in RATIO_KEYS}


def pin_workload(program, scratch, workload, seed):
    proc = subprocess.run(
        [str(program), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--pin", "1", "--scratch", str(scratch)],
        capture_output=True, text=True, check=True)
    raw = json.loads(proc.stdout)
    points = [raw["warmup"]] + [p for r in raw["rounds"] for p in r["points"]]
    pinned = {}
    for point in points:
        problems = run.metrics.point_problems(point)
        if problems:
            sys.exit(f"{workload} seed {seed} {point['label']}: {problems}")
        counters = point_counters(point)
        if pinned.setdefault(point["label"], counters) != counters:
            sys.exit(f"{workload} seed {seed} {point['label']}: "
                     "two runs of the same input differ")
    return pinned


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args()
    out = run.build_dir()
    program = run.build(out)
    keys = {}
    workloads = {}
    for workload in run.WORKLOADS:
        seeds = workloads.setdefault(workload, {})
        for seed in PINNED_SEEDS:
            pinned = pin_workload(program, out / "scratch", workload, seed)
            seeds[str(seed)] = {}
            for label, counters in sorted(pinned.items()):
                kind = "point" if "/" in label else "campaign"
                order = keys.setdefault(kind, sorted(counters))
                if sorted(counters) != order:
                    sys.exit(f"{label}: unexpected counter set")
                seeds[str(seed)][label] = [counters[k] for k in order]
            print(f"pinned {workload} seed {seed}", file=sys.stderr)

    # One line per point keeps the file reviewable in a diff.
    lines = ["{",
             '  "comment": "Deterministic counters per workload, seed and '
             'point; regenerate with perfbench/pin.py.",',
             f'  "default_seeds": {json.dumps(DEFAULT_SEEDS)},',
             f'  "held_out_seed": {HELD_OUT_SEED},',
             f'  "keys": {json.dumps(keys, sort_keys=True)},',
             '  "workloads": {']
    for wi, (workload, seeds) in enumerate(workloads.items()):
        lines.append(f'    {json.dumps(workload)}: {{')
        for si, (seed, points) in enumerate(seeds.items()):
            lines.append(f'      {json.dumps(seed)}: {{')
            items = list(points.items())
            for pi, (label, values) in enumerate(items):
                comma = "," if pi + 1 < len(items) else ""
                lines.append(f'        {json.dumps(label)}: '
                             f'{json.dumps(values)}{comma}')
            lines.append("      }" + ("," if si + 1 < len(seeds) else ""))
        lines.append("    }" + ("," if wi + 1 < len(workloads) else ""))
    lines += ["  }", "}"]
    (run.HERE / "pins.json").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
