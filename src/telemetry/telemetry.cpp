#include "telemetry/telemetry.hpp"

#include "common/log.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/reuse_dist.hpp"

namespace cachecraft::telemetry {

namespace {

/** Histogram geometry per stage: 16-cycle buckets over [0, 2048). */
constexpr std::uint64_t kHistBucketWidth = 16;
constexpr std::size_t kHistNumBuckets = 128;

} // namespace

Telemetry::Telemetry(StatRegistry *stats, const TelemetryOptions &options)
    : options_(options)
{
    if (kTraceCompiledIn && options_.profileEnabled)
        profiler_ = std::make_unique<Profiler>(stats);
    if (kTraceCompiledIn && options_.traceEnabled)
        recorder_ = std::make_unique<FlightRecorder>(
            options_.flightCapacity,
            [this](const FlightRecord &r) { sampleStages(r); });
    else if (kTraceCompiledIn && options_.flightRecorderEnabled)
        recorder_ =
            std::make_unique<FlightRecorder>(options_.flightCapacity);
    if (kTraceCompiledIn && options_.reuseProfileEnabled) {
        ReuseOptions ro;
        ro.maxAssoc = options_.reuseMaxAssoc;
        ro.setGroups = options_.reuseSetGroups;
        ro.epochAccesses = options_.reuseEpochAccesses;
        ro.retainStream = options_.reuseRetainStream;
        reuse_ = std::make_unique<ReuseProfiler>(ro);
    }
    if (kTraceCompiledIn && options_.hostProfileEnabled) {
        HostProfiler::retain();
        hostRetained_ = true;
    }

    // Instants never sample their histogram, so only span stages
    // register one.
    stageHist_.reserve(static_cast<std::size_t>(Stage::kCount));
    for (std::size_t s = 0; s < static_cast<std::size_t>(Stage::kCount);
         ++s) {
        const auto stage = static_cast<Stage>(s);
        stageHist_.emplace_back(kHistBucketWidth, kHistNumBuckets);
        if (stats && !isInstant(stage))
            stats->registerHistogram(strCat("telemetry.stage.",
                                            toString(stage)),
                                     &stageHist_.back());
    }
}

Telemetry::~Telemetry()
{
    if (hostRetained_)
        HostProfiler::release();
}

const HistogramStat &
Telemetry::stageHistogram(Stage stage) const
{
    return stageHist_[static_cast<std::size_t>(stage)];
}

void
Telemetry::sampleStages(const FlightRecord &r)
{
    // Runs under the recorder's lock (drains happen at barriers and on
    // ring wrap, possibly from a domain thread), which keeps the
    // builder and the histograms coherent. The values that reach
    // reports are sums over a fixed multiset of spans, so they stay
    // bit-identical at any --shards.
    lifecycle_.consume(r, spanScratch_);
    for (const LifecycleSpan &s : spanScratch_) {
        if (!isInstant(s.stage))
            stageHist_[static_cast<std::size_t>(s.stage)].sample(
                s.end - s.begin);
    }
    spanScratch_.clear();
}

} // namespace cachecraft::telemetry
