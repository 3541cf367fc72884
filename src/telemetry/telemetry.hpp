/**
 * @file
 * Run telemetry hub.
 *
 * A Telemetry hub is owned by each GpuSystem and handed (as a nullable
 * pointer) to every instrumented component. It owns the optional
 * observers — the flight recorder (the one per-request recording),
 * the resource profiler, the reuse-distance profiler, the
 * host-profiler reference — and the per-stage latency histograms
 * ("telemetry.stage.<name>"), which the lifecycle view (lifecycle.hpp)
 * fills from the flight records when the lifecycle trace is on.
 *
 * Gating: every observer is off unless its TelemetryOptions gate is
 * set (runtime gate — the instrumentation hooks reduce to one
 * predicted branch), and all of them compile to nothing when
 * CACHECRAFT_TRACE_DISABLED is defined (compile-time gate).
 */

#ifndef CACHECRAFT_TELEMETRY_TELEMETRY_HPP
#define CACHECRAFT_TELEMETRY_TELEMETRY_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "stats/stats.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/profiler.hpp"

namespace cachecraft::telemetry {

/** Observability knobs, configured via SystemConfig::telemetry. */
struct TelemetryOptions
{
    /**
     * Epoch length in cycles for the StatSampler time series;
     * 0 disables sampling.
     */
    Cycle sampleInterval = 0;
    /**
     * Runtime gate for the lifecycle trace: turns the flight recorder
     * on and streams its records into the telemetry.stage.*
     * histograms (see lifecycle.hpp).
     */
    bool traceEnabled = false;
    /** Runtime gate for the resource profiler. */
    bool profileEnabled = false;
    /**
     * Occupancy-gauge polling interval in cycles for the profiler
     * (independent of sampleInterval, which drives the stat series).
     */
    Cycle profileInterval = 4096;
    /** Runtime gate for the binary flight recorder. */
    bool flightRecorderEnabled = false;
    /** Flight-recorder ring capacity in 32-byte records (at most
     *  kMaxFlightCapacity). */
    std::size_t flightCapacity = 1u << 20;
    /** Runtime gate for one-pass reuse-distance profiling. */
    bool reuseProfileEnabled = false;
    /** Curve bound: miss-ratio points at 1..reuseMaxAssoc ways. */
    unsigned reuseMaxAssoc = 64;
    /** Upper bound on set groups per cache (heatmap rows). */
    unsigned reuseSetGroups = 64;
    /** Initial heatmap epoch length in cache accesses. */
    std::uint64_t reuseEpochAccesses = 4096;
    /** Retain raw access streams for brute-force curve validation. */
    bool reuseRetainStream = false;
    /**
     * Runtime gate for the host wall-clock zone profiler: the hub
     * retains the process-wide HostProfiler for its lifetime (see
     * host_profiler.hpp). Refcounted, so concurrent campaign points
     * that all enable it compose.
     */
    bool hostProfileEnabled = false;
};

#ifdef CACHECRAFT_TRACE_DISABLED
inline constexpr bool kTraceCompiledIn = false;
#else
inline constexpr bool kTraceCompiledIn = true;
#endif

class ReuseProfiler;

/** Per-system telemetry hub. See file comment. */
class Telemetry
{
  public:
    /**
     * @param stats registry the per-stage latency histograms of a
     *              traced run register with (under
     *              "telemetry.stage.<name>"); may be null.
     */
    Telemetry(StatRegistry *stats, const TelemetryOptions &options);
    ~Telemetry(); // out-of-line: ReuseProfiler is incomplete here

    const TelemetryOptions &options() const { return options_; }

    /**
     * True when request-scoped capture is live (the flight recorder
     * runs), i.e. when components should allocate and thread
     * per-request ids.
     */
    bool active() const { return recorder() != nullptr; }

    /** Allocate a fresh request id (never 0; thread-safe — sharded
     *  domains mint ids concurrently, and ids only need uniqueness). */
    std::uint64_t
    newId()
    {
        return lastId_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Filled from the flight records as the recorder drains. */
    const HistogramStat &stageHistogram(Stage stage) const;

    /**
     * The resource profiler, or nullptr when profiling is off (runtime
     * gate) or tracing is compiled out. Hooks are expected to
     * null-check: `if (auto *p = tel->profiler()) p->recordRowAccess(...)`.
     */
    Profiler *
    profiler() const
    {
        if constexpr (!kTraceCompiledIn)
            return nullptr;
        return profiler_.get();
    }

    /**
     * The binary flight recorder, or nullptr when recording is off
     * (runtime gate) or tracing is compiled out. Same hook contract
     * as profiler(): `if (auto *fr = tel->recorder()) fr->record(...)`.
     */
    FlightRecorder *
    recorder() const
    {
        if constexpr (!kTraceCompiledIn)
            return nullptr;
        return recorder_.get();
    }

    /**
     * The reuse-distance profiler, or nullptr when reuse profiling is
     * off (runtime gate) or tracing is compiled out. Cache owners
     * null-check and attach: `if (auto *rp = tel->reuse())
     * cache.setObserver(rp->attach(...))`.
     */
    ReuseProfiler *
    reuse() const
    {
        if constexpr (!kTraceCompiledIn)
            return nullptr;
        return reuse_.get();
    }

  private:
    void sampleStages(const FlightRecord &r);

    TelemetryOptions options_;
    std::unique_ptr<Profiler> profiler_;
    std::unique_ptr<FlightRecorder> recorder_;
    std::unique_ptr<ReuseProfiler> reuse_;
    std::vector<HistogramStat> stageHist_;
    /** Streaming lifecycle view (guarded by the recorder's lock). */
    LifecycleBuilder lifecycle_;
    std::vector<LifecycleSpan> spanScratch_;
    std::atomic<std::uint64_t> lastId_{0};
    /** True when this hub holds one HostProfiler reference. */
    bool hostRetained_ = false;
};

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_TELEMETRY_HPP
