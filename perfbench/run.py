#!/usr/bin/env python3
"""Host-time benchmark of the CacheCraft simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator library
plus the measurement program, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, checks every
simulated output, prints each metric by name and unit, and ends stdout
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones
(a separate traced run). Exits 1 when an output is wrong, 2 on a usage
or build error. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("irregular-read", "write-mix", "sweep")
MEASURE_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(out):
    """Configure once, then build incrementally; returns the measurement
    program."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--parallel",
                  str(os.cpu_count() or 1)])
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})")
    return out / "perfbench_measure"


def host_provenance():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    describe = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=30).stdout.strip() or describe
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu_model": cpu, "git_describe": describe}


def load_pins(workload, seed):
    """Pinned counters of this workload and seed: label -> counters,
    or None when the seed has none."""
    doc = json.loads((HERE / "pins.json").read_text())
    points = doc["workloads"][workload].get(str(seed))
    if points is None:
        return None
    # Campaign points carry report counters, the others RunStats ones.
    return {label: dict(zip(doc["keys"]["point" if "/" in label
                                        else "campaign"], values))
            for label, values in points.items()}


def timed_points(raw):
    """Every point whose outputs the gate judges, in run order."""
    if raw["trace"]:
        points = []
        for entry in raw["closure"]:
            points += [entry["untraced"], entry["traced"]]
        if raw.get("campaign"):
            points += raw["campaign"]["points"]
        return points
    return [p for r in raw["rounds"] for p in r["points"]]


def evaluate(raw, pins):
    """Gate and metrics of one measurement run.

    Returns (result, problems, details): result is the benchmark's
    final JSON object, problems the gate's findings, details the
    closure report (traced run) or the sample counts (untraced run).
    """
    # Every repeat of an input must match the warm-up run.
    warm = raw["warmup"]
    failed_ids, problems = metrics.gate(
        timed_points(raw), pins, {warm["label"]: warm["counters"]})
    warm_failed, warm_problems = metrics.gate([warm], pins)
    problems += [f"warm-up {p}" for p in warm_problems]
    # The sweep's audited runs of every grid input.
    grid = raw["grid_audit"]["points"] if "grid_audit" in raw else []
    grid_failed, grid_problems = metrics.gate(
        grid, metrics.grid_expectations(pins, raw.get("rounds"), grid))
    failed_ids |= grid_failed
    problems += [f"grid audit {p}" for p in grid_problems]
    # Fault-free chunks must decode clean in the codec replay too.
    for entry in raw.get("closure") or []:
        if not entry["replay"]["ecc_replay_clean"]:
            failed_ids.add(id(entry["untraced"]))
            problems.append(f"{entry['label']}: codec replay decoded a "
                            "clean chunk as not clean")
    if raw["trace"]:
        values, details = metrics.per_layer(raw)
        units = metrics.PER_LAYER_UNITS
        attempted = len(timed_points(raw))
    else:
        values, details = metrics.end_to_end(raw, failed_ids)
        units = metrics.END_TO_END_UNITS
        attempted = details["attempted"] + len(grid)
        details["grid_audited"] = len(grid)
        details["failed_ratio"] = len(failed_ids) / attempted
    result = {
        "correct": not failed_ids and not warm_failed,
        "attempted": attempted,
        "failed": len(failed_ids),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, problems, details


def report(raw, result, problems, details, pins, prov):
    """The human-readable lines before the final JSON line."""
    warm = raw["warmup"]
    print(f"perfbench {raw['workload']} seed={raw['seed']} "
          f"seconds={raw['seconds']:g} trace={int(raw['trace'])}")
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"  warm-up (untimed): {warm['label']} setup "
          f"{warm['setup_s']:.4f} s, run {warm['run_s']:.4f} s")
    print("  pins: " + ("checked" if pins is not None else
                        "none for this seed (repeatability and audit "
                        "checks only)"))
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if raw["trace"]:
        print(f"  closure over {details['points']} point runs: run "
              f"{details['run_s_total']:.4f} s, attributed "
              f"{details['attributed_s']:.4f} s "
              f"({details['attributed_s'] / details['run_s_total']:.1%}), "
              f"residual {details['residual_s']:.4f} s")
        for layer, est in details["terms_s"].items():
            zone = details["zone_self_s"].get(layer, 0.0)
            flag = "  FLAGGED" if layer in details["flagged"] else ""
            print(f"    {layer:<8} replay x ops {est:10.4f} s   "
                  f"in-situ zone self {zone:10.4f} s{flag}")
        print(f"  FLAGGED: replay and zone self time differ by more than "
              f"{metrics.ZONE_DISAGREEMENT:.0%} (zone times include the "
              f"profiler's own cost)")
        unzoned = details["zone_self_s"]["events"]
        traced = details["traced_run_s_total"]
        print(f"  outside the named zones: events.run_until self time "
              f"(event bodies with no zone of their own) is "
              f"{unzoned:.4f} s of {traced:.4f} s traced run "
              f"({unzoned / traced:.1%})")
    else:
        print(f"  {'failed_ratio':<34} {details['failed_ratio']:>14.6g} "
              f"ratio")
        print(f"  host: CPU share of busy wall time "
              f"{details['cpu_share']:.4f} (median over rounds); times "
              f"above are at the reference speed, median factor "
              f"{details['host_scale']:.4f} (reference kernel nominal "
              f"{metrics.REFERENCE_NOMINAL_S:g} s on "
              f"{details['reference_threads']} thread(s)); as measured:")
        for name in metrics.SCALED:
            print(f"    {name:<32} {details['measured'][name]:>14.6g} "
                  f"{metrics.END_TO_END_UNITS[name]}")
        print(f"  run_s: {details['run_samples']} samples over "
              f"{details['rounds']} rounds; tail = "
              f"p{details['tail_percentile']:g} with "
              f"{details['tail_beyond']} samples beyond"
              + ("" if details["tail_resolved"] else
                 " (fewer than 10 beyond any higher percentile: tail "
                 "reported at the median)"))
        print(f"  setup_s: {details['setup_samples']} samples; measured "
              f"wall {details['wall_s']:.2f} s")
        if details["grid_audited"]:
            print(f"  grid audit (untimed): {details['grid_audited']} "
                  f"points run and audited once, "
                  f"{raw['grid_audit']['wall_s']:.2f} s")
    for p in problems:
        print(f"  MISMATCH {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    program = build(out)
    cmd = [str(program), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--scratch", str(out / "scratch")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measurement program exceeded {MEASURE_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"measurement program exited with {proc.returncode}", 1)
    raw = json.loads(proc.stdout)

    pins = load_pins(args.workload, args.seed)
    result, problems, details = evaluate(raw, pins)
    prov = dict(raw["provenance"], **host_provenance())
    report(raw, result, problems, details, pins, prov)
    results_dir = out / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, provenance=prov,
                                  problems=problems, details=details),
                             indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
