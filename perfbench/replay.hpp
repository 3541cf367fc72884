/**
 * @file
 * Per-layer cost replays for the traced benchmark run.
 *
 * Each function times calls into one layer's public API on inputs
 * derived from the workload's own trace or run statistics, and
 * returns a cost per operation. The caller multiplies it by the
 * layer's deterministic operation count from the real run, so the
 * products can be checked against the measured run time.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "gpu/kernel_trace.hpp"

namespace perfbench {

/** Event-queue churn: schedule + runUntil with @p depth events
 *  pending and a mean scheduling distance of @p mean_delta cycles, in
 *  ns per event. */
double replayEventQueue(std::uint64_t depth, std::uint64_t mean_delta);

/** One DRAM transaction of the cache replay's miss/writeback stream. */
struct DramOp
{
    cachecraft::Addr addr = 0;
    bool isWrite = false;
};

/** Sectored-cache replay of the trace's sector stream at L2 geometry. */
struct CacheCost
{
    double accessNs = 0.0;
    double fillNs = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t fills = 0;
    /** Misses and dirty writebacks, in stream order, for the DRAM
     *  replay. */
    std::vector<DramOp> dramStream;
};

CacheCost replayCache(const cachecraft::KernelTrace &trace,
                      const cachecraft::SystemConfig &config);

/** DramSystem enqueue + scheduling of @p stream through its event
 *  queue. */
struct DramCost
{
    double txnNs = 0.0;       //!< wall per transaction, events included
    double eventsPerTxn = 0.0; //!< queue events the replay executed
    std::uint64_t txns = 0;
};

DramCost replayDram(const std::vector<DramOp> &stream,
                    const cachecraft::SystemConfig &config);

/** Whole-chunk encode/decode of the trace's region data with the
 *  configured codec, at the dispatched SIMD tier. */
struct CodecCost
{
    double encodeChunkNs = 0.0;
    double decodeChunkNs = 0.0;
    /** Every replayed chunk decoded clean, as fault-free data must. */
    bool decodedClean = true;
};

CodecCost replayCodec(const cachecraft::KernelTrace &trace,
                      const cachecraft::SystemConfig &config);

/** Empty-task ShardPool::run round trip at @p threads threads over
 *  @p tasks tasks, in ns per round trip. */
double replayBarrier(unsigned threads, std::size_t tasks);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
