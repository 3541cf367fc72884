/**
 * @file
 * Miss-ratio curves and their exactness contract.
 *
 * Consumes the one-pass reuse-distance histograms of reuse_dist.hpp
 * and turns them into:
 *
 *  - per-cache miss-ratio curves: one point per associativity from 1
 *    to the profiled bound, capacity(A) = num_sets * A * line_bytes;
 *  - per-kind aggregate curves ("l2", "mrc"): same-geometry slices
 *    summed, so the dashboard shows one curve per cache class with
 *    capacities still per slice;
 *  - the "curves" section of run reports and the cachecraft_curves
 *    JSON/SVG exports (schema "cachecraft.curves/1");
 *  - bruteForceLruMisses: an independent per-set LRU re-simulation of
 *    the retained access stream, used by tests and the CI curves-smoke
 *    job to assert the one-pass counts are *exactly* right at any
 *    associativity (LRU stack inclusion makes this equality, not
 *    approximation).
 */

#ifndef CACHECRAFT_TELEMETRY_CACHE_CURVES_HPP
#define CACHECRAFT_TELEMETRY_CACHE_CURVES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/reuse_dist.hpp"

namespace cachecraft::telemetry {

/** One miss-ratio curve sample. */
struct CurvePoint
{
    unsigned ways = 0;
    /** Per-slice capacity at this associativity. */
    std::uint64_t capacityBytes = 0;
    std::uint64_t misses = 0;
    /** misses / accesses (0 when the cache saw no accesses). */
    double missRatio = 0.0;
};

/** Exact curve of one monitored cache, all profiled associativities. */
std::vector<CurvePoint> missRatioCurve(const CacheReuseMonitor &monitor);

/**
 * Independent check of the one-pass math: replay the retained stream
 * through a literal @p ways-way per-set LRU model (allocate on miss)
 * and count misses. Requires ReuseOptions::retainStream; fatal()s
 * otherwise. Must equal missesAtWays(ways) for every ways.
 */
std::uint64_t bruteForceLruMisses(const CacheReuseMonitor &monitor,
                                  unsigned ways);

/** Aggregate curve of one cache class (same-geometry slices summed). */
struct KindCurve
{
    std::string kind;
    ReuseGeometry geometry;
    std::size_t caches = 0;
    std::uint64_t accesses = 0;
    std::uint64_t coldMisses = 0;
    std::vector<CurvePoint> points;
};

/** One KindCurve per distinct monitor kind, in first-seen order.
 *  Kinds whose slices disagree on geometry are skipped (cannot sum). */
std::vector<KindCurve> aggregateByKind(const ReuseProfiler &profiler);

/**
 * Write the "curves" report section (also the body of the
 * cachecraft_curves JSON export): options, per-cache curves with
 * heatmaps and locality histograms, and per-kind aggregates. Emits a
 * complete JSON value; the caller supplies the surrounding key.
 */
void writeCurvesJson(JsonWriter &w, const ReuseProfiler &profiler);

/**
 * Self-contained SVG: miss-ratio (y, 0..100%) over per-slice capacity
 * (x, log scale) with one polyline per cache kind. Byte-deterministic
 * for a given profile.
 */
std::string renderCurvesSvg(const ReuseProfiler &profiler);

/** "16 KiB" / "512 B" style capacity labels. */
std::string fmtCapacity(std::uint64_t bytes);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_CACHE_CURVES_HPP
