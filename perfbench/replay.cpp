#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "cache/sectored_cache.hpp"
#include "common/rng.hpp"
#include "core/gpu_system.hpp"
#include "core/shard_exec.hpp"
#include "dram/address_map.hpp"
#include "dram/dram_model.hpp"
#include "ecc/codec.hpp"
#include "gpu/event_queue.hpp"

namespace perfbench {

using namespace cachecraft;

namespace {

using Clock = std::chrono::steady_clock;

/** Repetitions of every replay; each reports the median. */
constexpr int kReps = 5;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A self-rescheduling event source for the queue churn. */
struct Actor
{
    EventQueue *q = nullptr;
    SplitMix64 rng{1};
    std::uint64_t span = 1;
    std::uint32_t left = 0;

    void
    step()
    {
        if (--left > 0)
            q->scheduleAfter(1 + rng.next() % span, [this] { step(); });
    }
};

/** One access of the replayed sector stream. */
struct CacheOp
{
    Addr addr;
    std::uint32_t slice;
    bool isWrite;
};

/** One fill the full replay performed, replayed alone. */
struct FillOp
{
    Addr addr;
    std::uint32_t slice;
    SectorMask mask;
    SectorMask dirty;
};

std::vector<std::unique_ptr<SectoredCache>>
makeSlices(const SystemConfig &config)
{
    std::vector<std::unique_ptr<SectoredCache>> caches;
    for (unsigned c = 0; c < config.dram.numChannels; ++c)
        caches.push_back(std::make_unique<SectoredCache>(
            "replay", config.l2.cache, nullptr));
    return caches;
}

/** The trace's unique sectors per warp instruction, warps interleaved
 *  one instruction at a time (the order a round-robin warp scheduler
 *  sees). */
std::vector<CacheOp>
sectorStream(const KernelTrace &trace, const AddressMap &map)
{
    std::vector<CacheOp> ops;
    std::size_t longest = 0;
    for (const auto &warp : trace.warps)
        longest = std::max(longest, warp.size());
    std::vector<Addr> sectors;
    for (std::size_t i = 0; i < longest; ++i) {
        for (const auto &warp : trace.warps) {
            if (i >= warp.size() || !warp[i].isMem)
                continue;
            sectors.clear();
            for (const Addr lane : warp[i].lanes)
                sectors.push_back(lane & ~Addr{kSectorBytes - 1});
            std::sort(sectors.begin(), sectors.end());
            sectors.erase(std::unique(sectors.begin(), sectors.end()),
                          sectors.end());
            for (const Addr s : sectors)
                ops.push_back({s, map.channelOf(s), warp[i].isWrite});
        }
    }
    return ops;
}

} // namespace

double
replayEventQueue(std::uint64_t depth, std::uint64_t mean_delta)
{
    depth = std::max<std::uint64_t>(1, depth);
    const std::uint64_t span = 2 * std::max<std::uint64_t>(1, mean_delta);
    // About a million events per repetition, at least two fires per
    // actor so every actor reschedules through the queue.
    const std::uint32_t fires = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(2, 1'000'000 / depth));
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
        EventQueue q;
        std::vector<Actor> actors(depth);
        for (std::size_t a = 0; a < actors.size(); ++a) {
            actors[a].q = &q;
            actors[a].rng = SplitMix64(a + 1);
            actors[a].span = span;
            actors[a].left = fires;
        }
        const auto t0 = Clock::now();
        for (Actor &actor : actors) {
            Actor *p = &actor;
            q.scheduleAfter(1 + p->rng.next() % p->span,
                            [p] { p->step(); });
        }
        q.run();
        samples.push_back(nsSince(t0) /
                          static_cast<double>(q.executedEvents()));
    }
    return median(samples);
}

CacheCost
replayCache(const KernelTrace &trace, const SystemConfig &config)
{
    CacheCost cost;
    const AddressMap map(config.dram, config.effectiveLayout());
    const std::vector<CacheOp> ops = sectorStream(trace, map);
    const std::size_t sectors_per_line =
        config.l2.cache.lineBytes / config.l2.cache.sectorBytes;
    auto sector_bit = [&](Addr addr) {
        return static_cast<SectorMask>(
            1u << ((addr / config.l2.cache.sectorBytes) %
                   sectors_per_line));
    };

    // Untimed pass: record the fills and the DRAM stream.
    std::vector<FillOp> fills;
    {
        auto caches = makeSlices(config);
        for (const CacheOp &op : ops) {
            SectoredCache &c = *caches[op.slice];
            if (c.access(op.addr, op.isWrite).sectorHit)
                continue;
            const SectorMask bit = sector_bit(op.addr);
            const SectorMask dirty = op.isWrite ? bit : 0;
            fills.push_back({op.addr, op.slice, bit, dirty});
            if (!op.isWrite)
                cost.dramStream.push_back({op.addr, false});
            const auto ev = c.fill(op.addr, bit, dirty);
            if (!ev || ev->dirtyMask == 0)
                continue;
            for (std::size_t s = 0; s < sectors_per_line; ++s) {
                if (ev->dirtyMask & (1u << s))
                    cost.dramStream.push_back(
                        {ev->lineAddr + s * config.l2.cache.sectorBytes,
                         true});
            }
        }
    }
    cost.accesses = ops.size();
    cost.fills = fills.size();
    if (ops.empty())
        return cost;

    // Timed: the full access + fill stream, then the fills alone; the
    // difference is the access cost.
    std::vector<double> full_ns;
    std::vector<double> fill_ns;
    for (int rep = 0; rep < kReps; ++rep) {
        auto caches = makeSlices(config);
        const auto t0 = Clock::now();
        for (const CacheOp &op : ops) {
            SectoredCache &c = *caches[op.slice];
            if (c.access(op.addr, op.isWrite).sectorHit)
                continue;
            const SectorMask bit = sector_bit(op.addr);
            c.fill(op.addr, bit, op.isWrite ? bit : 0);
        }
        full_ns.push_back(nsSince(t0));

        auto fresh = makeSlices(config);
        const auto t1 = Clock::now();
        for (const FillOp &op : fills)
            fresh[op.slice]->fill(op.addr, op.mask, op.dirty);
        fill_ns.push_back(nsSince(t1));
    }
    const double full = median(full_ns);
    const double fill = median(fill_ns);
    cost.fillNs = fills.empty() ? 0.0 : fill / double(fills.size());
    cost.accessNs = std::max(0.0, full - fill) / double(ops.size());
    return cost;
}

DramCost
replayDram(const std::vector<DramOp> &stream, const SystemConfig &config)
{
    DramCost cost;
    // Bounded so the replay stays well under a second per workload.
    const std::size_t n = std::min<std::size_t>(stream.size(), 200'000);
    cost.txns = n;
    if (n == 0)
        return cost;
    const AddressMap map(config.dram, config.effectiveLayout());
    // Outstanding-request window: one full L2 MSHR file per slice.
    const std::size_t window =
        std::size_t{config.l2.mshrEntries} * config.dram.numChannels;
    std::vector<double> samples;
    std::uint64_t events = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        EventQueue q;
        DramSystem dram(map, config.timing, q, nullptr);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const Addr addr = stream[i].addr;
            DramRequest req;
            req.phys = map.dataPhys(map.channelLocalOf(addr));
            req.isWrite = stream[i].isWrite;
            dram.enqueue(map.channelOf(addr), std::move(req));
            if ((i + 1) % window == 0)
                q.run();
        }
        q.run();
        samples.push_back(nsSince(t0) / double(n));
        events = q.executedEvents();
    }
    cost.txnNs = median(samples);
    cost.eventsPerTxn = double(events) / double(n);
    return cost;
}

CodecCost
replayCodec(const KernelTrace &trace, const SystemConfig &config)
{
    CodecCost cost;
    const auto codec = ecc::makeCodec(config.codec);
    // At most 4096 chunks (1 MiB of data): enough to leave the timer's
    // resolution far behind, small enough to stay in the host's L2.
    std::vector<ecc::ChunkData> data;
    std::vector<ecc::MemTag> tags;
    for (const TaggedRegion &region : trace.regions) {
        for (Addr a = region.base;
             a + kChunkBytes <= region.base + region.size &&
             data.size() < 4096;
             a += kChunkBytes) {
            ecc::ChunkData chunk{};
            for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
                const ecc::SectorData sector =
                    GpuSystem::pattern(a + s * kSectorBytes, 0);
                std::copy(sector.begin(), sector.end(),
                          chunk.begin() + s * kSectorBytes);
            }
            data.push_back(chunk);
            tags.push_back(region.tag);
        }
    }
    if (data.empty())
        return cost;
    std::vector<ecc::ChunkCheck> checks(data.size());
    std::vector<double> enc;
    std::vector<double> dec;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < data.size(); ++i)
            codec->encodeChunk(data[i], tags[i], checks[i]);
        enc.push_back(nsSince(t0) / double(data.size()));
        std::size_t clean = 0;
        const auto t1 = Clock::now();
        for (std::size_t i = 0; i < data.size(); ++i)
            clean += codec->decodeChunk(data[i], checks[i], tags[i])
                         .allClean();
        dec.push_back(nsSince(t1) / double(data.size()));
        cost.decodedClean = cost.decodedClean && clean == data.size();
    }
    cost.encodeChunkNs = median(enc);
    cost.decodeChunkNs = median(dec);
    return cost;
}

double
replayBarrier(unsigned threads, std::size_t tasks)
{
    ShardPool pool(threads);
    const ShardPool::TaskFn noop = [](std::size_t) {};
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
        // Round trips until ~20 ms elapsed, at least 100.
        std::uint64_t trips = 0;
        const auto t0 = Clock::now();
        double ns = 0.0;
        do {
            for (int i = 0; i < 100; ++i)
                pool.run(tasks, noop);
            trips += 100;
            ns = nsSince(t0);
        } while (ns < 20e6);
        samples.push_back(ns / double(trips));
    }
    return median(samples);
}

} // namespace perfbench
