"""Metric arithmetic for perfbench.

Pure functions over the raw JSON of the measurement program
(measure.cpp): percentile
and tail selection, the end-to-end summary, the correctness gate and
the per-layer closure. Kept free of I/O so tests/test_metrics.py can
exercise every path without a build.
"""

import math
import statistics

# Candidate tail percentiles, highest first. The reported tail is the
# highest one with at least MIN_BEYOND samples strictly above it. There
# is no p90: the sweep's 2-5 campaign passes (72-180 samples) then all
# select p75, so its tail stays comparable between runs.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 75.0, 50.0)
MIN_BEYOND = 10

# A layer whose replay estimate and in-situ zone self time differ by
# more than this fraction (either way) is flagged in the closure report.
ZONE_DISAGREEMENT = 0.5

# Seconds one run of the reference kernel (reference.cpp) takes at the
# reference host speed. The end-to-end times and rates are reported at
# that speed: the time of each unit of work (a point; on the sweep a
# setup or campaign pass) is multiplied by REFERENCE_NOMINAL_S / (mean
# of the reference samples taken just before and after it). The host is
# shared and its speed drifts with its neighbours' load; the kernel
# slows down with it, so the scaled figures follow the simulator's own
# cost, not the host's phase.
REFERENCE_NOMINAL_S = 0.18

# End-to-end metrics scaled to the reference host speed.
SCALED = ("run_s.p50", "run_s.tail", "sim_mcycles_per_s", "setup_s",
          "points_per_s")

END_TO_END_UNITS = {
    "run_s.p50": "s",
    "run_s.tail": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "setup_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Zones whose per-point self time is reported as zone.<name>.self_s.
REPORTED_ZONES = (
    "events.run_until",
    "engine.drain",
    "shard.run_epoch",
    "shard.barrier",
    "sim.init",
    "sim.audit",
    "l2.read",
    "l2.write",
    "cache.access",
    "cache.fill",
    "protect.read_sector",
    "protect.write_sector",
    "protect.fetch_chunk",
    "dram.enqueue",
    "dram.try_issue",
)

# Zones the replay of each layer is checked against.
LAYER_ZONES = {
    "events": ("events.run_until",),
    "cache": ("cache.access", "cache.fill"),
    "dram": ("dram.enqueue", "dram.try_issue"),
    "ecc": ("ecc.",),  # every codec zone
    "barrier": ("shard.barrier",),
}

PER_LAYER_UNITS = {
    "workloads.make_s": "s",
    "core.construct_s": "s",
    "core.init_s": "s",
    "core.audit_s": "s",
    "core.events": "count",
    "core.ns_per_event": "ns",
    "core.shard.barrier_ns": "ns",
    "core.shard.barrier_ns.sharded": "ns",
    "core.shard.barriers": "count",
    "gpu.event_queue.ns_per_event": "ns",
    "gpu.peak_queue_depth": "count",
    "cache.access_ns": "ns",
    "cache.fill_ns": "ns",
    "cache.l2_sector_hit_ratio": "ratio",
    "protect.mrc_coverage": "ratio",
    "protect.ecc_txn_share": "ratio",
    "dram.txn_ns": "ns",
    "dram.txns": "count",
    "dram.row_hit_ratio": "ratio",
    "ecc.encode_chunk_ns": "ns",
    "ecc.decode_chunk_ns": "ns",
    "ecc.encodes": "count",
    "campaign.straggler_ratio": "ratio",
    "campaign.overhead_s": "s",
    "campaign.manifest_render_s": "s",
    "campaign.arena_peak_slots": "count",
    "attributed_fraction": "ratio",
    "residual_s": "s",
    "trace_overhead": "ratio",
}
for _zone in REPORTED_ZONES:
    PER_LAYER_UNITS[f"zone.{_zone}.self_s"] = "s"


def percentile(values, p):
    """The p-th percentile, interpolating linearly between ranks."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail(values):
    """Select the reported tail of a timing.

    Returns (percentile, value, samples_beyond, sufficient). When no
    candidate has MIN_BEYOND samples beyond it (fewer than eleven
    samples), the tail falls back to the median and sufficient is
    False, so the output says the tail is not resolved.
    """
    for p in TAIL_CANDIDATES:
        v = percentile(values, p)
        beyond = sum(1 for x in values if x > v)
        if beyond >= MIN_BEYOND:
            return p, v, beyond, True
    v = percentile(values, 50.0)
    return 50.0, v, sum(1 for x in values if x > v), False


def _mean(values):
    return sum(values) / len(values)


def point_problems(point):
    """Reasons one point's run is not correct, independent of pins."""
    problems = []
    if point.get("status", "ok") != "ok":
        problems.append(f"status {point['status']}: {point.get('error', '')}")
        return problems
    if point.get("warnings", 0):
        problems.append(f"{point['warnings']} run warning(s)")
    audit = point.get("audit")
    if audit is not None:
        # Fault-free runs: every sector must read back exactly.
        for key in ("silent", "uncorrectable", "corrected"):
            if audit[key]:
                problems.append(f"audit reports {audit[key]} {key} sectors")
    return problems


def pin_problems(counters, pinned):
    """Counters that differ from the pinned values of the same point."""
    return [f"{key} = {counters.get(key)} (pinned {value})"
            for key, value in pinned.items() if counters.get(key) != value]


def gate(points, pins, reference=None):
    """The correctness gate over every timed point.

    @p pins maps point label -> pinned counters (None when the seed
    has no pins). @p reference maps label -> counters every repeat of
    that label must equal (the warm-up's); repeats of a label must also
    equal each other.
    Returns (ids of the failed point dicts, list of problem strings).
    """
    seen = dict(reference or {})
    failed = set()
    problems = []
    for point in points:
        label = point["label"]
        why = point_problems(point)
        if not why:
            counters = point["counters"]
            if pins is not None:
                if label not in pins:
                    why.append("no pinned counters for this point")
                else:
                    why += pin_problems(counters, pins[label])
            if label in seen and seen[label] != counters:
                why += ["differs from another run of the same input: "
                        + "; ".join(pin_problems(counters, seen[label]))]
            seen.setdefault(label, counters)
        if why:
            failed.add(id(point))
            problems += [f"{label}: {w}" for w in why]
    return failed, problems


def _ran(point):
    return point.get("status", "ok") == "ok"


# Campaign counters summed from a run report's per-slice stats, which
# count the final flush; RunStats takes them before it, so a grid-audit
# point is not compared on them.
REPORT_ONLY_KEYS = ("mrc_hits", "mrc_misses", "mrc_fetch_merges",
                    "dram_ecc_rmw_reads")


def grid_expectations(pins, rounds, grid):
    """Counters each point of the sweep's grid audit must show.

    A grid-audit point runs the input of the campaign point with the
    same label on a GpuSystem of its own, so it must match that point's
    pinned counters, or on a seed without pins the first campaign
    pass's, on every key both runs report alike.
    """
    source = pins
    if source is None:
        source = {p["label"]: p["counters"]
                  for p in (rounds[0]["points"] if rounds else [])
                  if _ran(p)}
    expected = {}
    for point in grid:
        ref = source.get(point["label"])
        if ref is not None:
            expected[point["label"]] = {
                k: v for k, v in ref.items()
                if k in point["counters"] and k not in REPORT_ONLY_KEYS}
    return expected


def host_scale(reference_s):
    """Factor that takes times measured between these reference samples
    to the reference host speed."""
    return REFERENCE_NOMINAL_S / _mean(reference_s)


def cpu_share(round_):
    """Share of a round's busy wall time its workers actually ran.

    On a shared host a worker also waits for a CPU (other tenants,
    steal time); the round's CPU seconds over the wall seconds its
    workers were busy say how much of that wall time was spent
    running. Wall times scaled by it leave the waits out.
    """
    return min(1.0, round_["cpu_s"] / round_["busy_s"])


def _samples(raw, failed_ids, scaled):
    """Per-sample times and rates of an untraced run, as measured or at
    the reference host speed; see end_to_end."""
    def scale(reference_s):
        return host_scale(reference_s) if scaled else 1.0

    sweep = "setup" in raw
    run_s, setup_s, points_per_s, mcycles = [], [], [], []
    for r in raw["rounds"]:
        refs = r["reference_s"]
        share = cpu_share(r)
        if sweep:
            # Campaign points time their run in wall seconds.
            times = [(p, p["run_s"] * share * scale(refs))
                     for p in r["points"] if _ran(p)]
            run_s += [t for _, t in times]
            host_s = r["wall_s"] * share * scale(refs)
        else:
            # Point i ran between samples i and i + 1.
            times = [(p, p["run_s"] * scale(refs[i:i + 2]))
                     for i, p in enumerate(r["points"]) if _ran(p)]
            if times:
                run_s.append(_mean([t for _, t in times]))
            setup_s.append(_mean([p["setup_s"] * scale(refs[i:i + 2])
                                  for i, p in enumerate(r["points"])]))
            # One worker: the round took its points' CPU time.
            host_s = sum(p["total_s"] * scale(refs[i:i + 2])
                         for i, p in enumerate(r["points"]))
        completed = sum(1 for p in r["points"]
                        if _ran(p) and id(p) not in failed_ids)
        points_per_s.append(completed / host_s)
        if times:
            mcycles.append(sum(p["counters"]["cycles"] for p, _ in times)
                           / 1e6 / sum(t for _, t in times))
    if sweep:
        setup_s = [_mean([p["setup_s"] for p in pass_["points"]])
                   * scale(pass_["reference_s"]) for pass_ in raw["setup"]]
    return run_s, setup_s, points_per_s, mcycles


def end_to_end(raw, failed_ids):
    """End-to-end metrics of an untraced run, at the reference host
    speed (see REFERENCE_NOMINAL_S); info["measured"] holds them as
    measured.

    Each rate is the median of per-round rates. On the GpuSystem
    workloads run_s and setup_s are also taken per round, as the
    round's mean over its points, so a workload that mixes kernels of
    different cost gives one sample per pass over the same mix. The
    sweep repeats one fixed grid, so its run_s samples are the points
    themselves (host seconds inside each campaign point's run), and
    setup_s comes from separate setup passes over the grid, one sample
    per pass: its mean over the grid points.
    @p failed_ids holds the ids of the point dicts the gate failed.
    """
    rounds = raw["rounds"]
    values = {}
    for scaled in (False, True):
        run_s, setup_s, points_per_s, mcycles = _samples(
            raw, failed_ids, scaled)
        tail_p, tail_v, beyond, sufficient = tail(run_s)
        values[scaled] = {
            "run_s.p50": statistics.median(run_s),
            "run_s.tail": tail_v,
            "sim_mcycles_per_s": statistics.median(mcycles),
            "setup_s": statistics.median(setup_s),
            "points_per_s": statistics.median(points_per_s),
            "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
        }
    units = raw.get("setup", []) + rounds
    info = {
        "measured": values[False],
        "host_scale": statistics.median(host_scale(u["reference_s"])
                                        for u in units),
        "reference_threads": raw["reference_threads"],
        "attempted": sum(len(r["points"]) for r in rounds),
        "rounds": len(rounds),
        "run_samples": len(run_s),
        "tail_percentile": tail_p,
        "tail_beyond": beyond,
        "tail_resolved": sufficient,
        "setup_samples": len(setup_s),
        "wall_s": sum(r["wall_s"] for r in rounds),
        "cpu_share": statistics.median(cpu_share(r) for r in rounds),
    }
    return values[True], info


def _zone_self(zones, prefixes):
    return sum(z["self_s"] for name, z in zones.items()
               if any(name == p or (p.endswith(".") and name.startswith(p))
                      for p in prefixes))


def _run_encodes(entry):
    """Sector encodes during a run: one per DRAM data write, when the
    scheme protects memory at all."""
    if entry["label"].endswith("/no-ecc"):
        return 0
    return entry["untraced"]["counters"]["dram_data_writes"]


def _barriers(entry):
    """Epoch barriers of a run, counted by the traced run's zone."""
    return entry["zones"].get("shard.barrier", {}).get("count", 0)


def layer_terms(entry):
    """Seconds each layer should cost in one run of a closure point:
    its replay cost per operation times the run's operation count."""
    u = entry["untraced"]
    c = u["counters"]
    r = entry["replay"]
    queue_ns = r["queue_ns_per_event"]
    # The DRAM replay's own queue events are charged to the event term.
    dram_ns = max(0.0, r["dram_txn_ns"] - r["dram_events_per_txn"] * queue_ns)
    decodes = (c["decode_clean"] + c["decode_corrected"]
               + c["decode_uncorrectable"] + c["decode_tag_mismatch"])
    return {
        "events": c["events"] * queue_ns * 1e-9,
        "cache": (u["cache_accesses"] * r["cache_access_ns"]
                  + u["cache_fills"] * r["cache_fill_ns"]) * 1e-9,
        "dram": c["dram_total_txns"] * dram_ns * 1e-9,
        # Sector operations at an eighth of the whole-chunk cost.
        "ecc": (decodes * r["ecc_decode_chunk_ns"]
                + _run_encodes(entry) * r["ecc_encode_chunk_ns"]) / 8 * 1e-9,
        "barrier": _barriers(entry) * r["barrier_ns"] * 1e-9,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """Per-layer metrics and the closure report of a traced run."""
    entries = raw["closure"]
    n = len(entries)
    us = [e["untraced"] for e in entries]
    cs = [u["counters"] for u in us]
    rs = [e["replay"] for e in entries]
    events = sum(c["events"] for c in cs)
    run_total = sum(u["run_s"] for u in us)
    traced_total = sum(e["traced"]["run_s"] for e in entries)

    terms = {}
    zone_self = {}
    for e in entries:
        for layer, s in layer_terms(e).items():
            terms[layer] = terms.get(layer, 0.0) + s
        for layer, prefixes in LAYER_ZONES.items():
            zone_self[layer] = (zone_self.get(layer, 0.0)
                                + _zone_self(e["zones"], prefixes))
    attributed = sum(terms.values())

    def weighted(key, weights):
        return _ratio(sum(r[key] * w for r, w in zip(rs, weights)),
                      sum(weights))

    encodes = sum(8 * e["untraced"]["init_chunks"] + _run_encodes(e)
                  for e in entries)
    metrics = {
        "workloads.make_s": statistics.median(u["make_s"] for u in us),
        "core.construct_s": statistics.median(u["construct_s"] for u in us),
        "core.init_s": statistics.median(u["init_s"] for u in us),
        "core.audit_s": statistics.median(u["audit_s"] for u in us),
        "core.events": events / n,
        "core.ns_per_event": run_total / events * 1e9,
        "core.shard.barrier_ns": _mean([r["barrier_ns"] for r in rs]),
        "core.shard.barrier_ns.sharded": _mean(
            [r["barrier_ns_sharded"] for r in rs]),
        "core.shard.barriers": sum(_barriers(e) for e in entries) / n,
        "gpu.event_queue.ns_per_event": weighted(
            "queue_ns_per_event", [c["events"] for c in cs]),
        "gpu.peak_queue_depth": max(c["peak_queue_depth"] for c in cs),
        "cache.access_ns": weighted(
            "cache_access_ns", [r["cache_replay_accesses"] for r in rs]),
        "cache.fill_ns": weighted(
            "cache_fill_ns", [r["cache_replay_fills"] for r in rs]),
        "cache.l2_sector_hit_ratio": _ratio(
            sum(c["l2_sector_hits"] for c in cs),
            sum(c["l2_sector_hits"] + c["l2_sector_misses"] for c in cs)),
        "protect.mrc_coverage": _ratio(
            sum(c["mrc_hits"] + c["mrc_fetch_merges"] for c in cs),
            sum(c["mrc_hits"] + c["mrc_misses"] for c in cs)),
        "protect.ecc_txn_share": _ratio(
            sum(c["dram_ecc_reads"] + c["dram_ecc_writes"]
                + c["dram_ecc_rmw_reads"] for c in cs),
            sum(c["dram_total_txns"] for c in cs)),
        "dram.txn_ns": weighted("dram_txn_ns",
                                [r["dram_replay_txns"] for r in rs]),
        "dram.txns": sum(c["dram_total_txns"] for c in cs) / n,
        "dram.row_hit_ratio": _ratio(
            sum(u["row_hit_rate"] * c["dram_total_txns"]
                for u, c in zip(us, cs)),
            sum(c["dram_total_txns"] for c in cs)),
        "ecc.encode_chunk_ns": _mean([r["ecc_encode_chunk_ns"] for r in rs]),
        "ecc.decode_chunk_ns": _mean([r["ecc_decode_chunk_ns"] for r in rs]),
        "ecc.encodes": encodes / n,
        "attributed_fraction": attributed / run_total,
        "residual_s": (run_total - attributed) / n,
        "trace_overhead": traced_total / run_total,
    }
    metrics.update(campaign_metrics(raw.get("campaign"), entries))
    for zone in REPORTED_ZONES:
        metrics[f"zone.{zone}.self_s"] = sum(
            e["zones"].get(zone, {}).get("self_s", 0.0) for e in entries) / n

    flags = []
    for layer, estimate in terms.items():
        insitu = zone_self.get(layer, 0.0)
        if insitu <= 0.0 and estimate <= 0.0:
            continue
        if (insitu <= 0.0 or estimate <= 0.0
                or not (1 / (1 + ZONE_DISAGREEMENT) <= estimate / insitu
                        <= 1 + ZONE_DISAGREEMENT)):
            flags.append(layer)
    closure = {
        "points": n,
        "run_s_total": run_total,
        "traced_run_s_total": traced_total,
        "terms_s": terms,
        "zone_self_s": zone_self,
        "attributed_s": attributed,
        "residual_s": run_total - attributed,
        "flagged": flags,
    }
    return metrics, closure


def campaign_metrics(campaign, entries):
    """campaign.* metrics: from the sweep's campaign pass, or for the
    serial workloads the same quantities over one pass of their closure
    points (each point's mean wall time over the rounds)."""
    if campaign is None:
        walls = {}
        for e in entries:
            walls.setdefault(e["label"], []).append(e["untraced"]["total_s"])
        means = [_mean(w) for w in walls.values()]
        return {
            "campaign.straggler_ratio": max(means) / sum(means),
            "campaign.overhead_s": 0.0,
            "campaign.manifest_render_s": 0.0,
            "campaign.arena_peak_slots": max(
                e["untraced"]["arena_peak_slots"] for e in entries),
        }
    points = campaign["points"]
    walls = [p["wall_s"] for p in points]
    return {
        "campaign.straggler_ratio": max(walls) / campaign["wall_s"],
        "campaign.overhead_s": campaign["wall_s"] - sum(walls) / campaign["jobs"],
        "campaign.manifest_render_s": campaign["manifest_render_s"],
        "campaign.arena_peak_slots": max(p["arena_peak_slots"]
                                         for p in points),
    }
