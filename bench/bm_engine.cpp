/**
 * @file
 * Engine micro-costs (google-benchmark): host events/sec of the
 * EventQueue against the priority_queue + std::function engine the
 * simulator started with (kept here verbatim as LegacyEventQueue, so
 * the comparison survives the old code's deletion).
 *
 * The churn workload is shaped like the simulator's own event mix:
 * mostly short deltas (pipeline/service-slot hops), a band of medium
 * deltas (cache latencies), a band of long deltas (DRAM service), and
 * a thin tail thousands of cycles out. It runs at the pending depths
 * one shard domain really holds: ~40 events (irregular-read kernels
 * such as random and spmv) and ~2 k (transpose, the deepest e1 point).
 * Both engines execute the identical deterministic schedule, so
 * items/sec is directly comparable. BM_EngineEpochs adds the shape of
 * a whole run: 24 domain queues drained one 16-cycle epoch at a time.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "core/cachecraft.hpp"
#include "gpu/event_queue.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/reuse_dist.hpp"

using namespace cachecraft;

namespace {

/** The engine this PR replaced, verbatim (see file comment). */
class LegacyEventQueue
{
  public:
    Cycle now() const { return now_; }

    void
    schedule(Cycle when, std::function<void()> fn)
    {
        if (when < now_)
            panic("event scheduled in the past");
        heap_.push(Event{when, seq_++, std::move(fn)});
    }

    void
    scheduleAfter(Cycle delta, std::function<void()> fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    bool empty() const { return heap_.empty(); }

    bool
    run(std::uint64_t max_events = 2'000'000'000ull)
    {
        std::uint64_t executed = 0;
        while (!heap_.empty()) {
            if (executed++ >= max_events)
                return false;
            Event ev = std::move(const_cast<Event &>(heap_.top()));
            heap_.pop();
            now_ = ev.when;
            ev.fn();
        }
        return true;
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
};

/** Delta mix approximating the simulator's schedule distances. */
Cycle
nextDelta(SplitMix64 &rng)
{
    const std::uint64_t r = rng.next();
    const std::uint64_t pick = r % 100;
    if (pick < 40)
        return 1 + (r >> 8) % 4; // service slots, pipeline hops
    if (pick < 70)
        return 20 + (r >> 8) % 41; // cache hit latencies
    if (pick < 98)
        return 80 + (r >> 8) % 221; // DRAM service times
    return 5000 + (r >> 8) % 5001; // rare far tail
}

/** One self-rescheduling actor; fires `left` times, then stops. */
template <class Engine> struct Actor
{
    Engine *q = nullptr;
    SplitMix64 rng{0};
    std::uint32_t left = 0;
    std::uint64_t *checksum = nullptr;

    void
    step()
    {
        *checksum += q->now();
        if (--left == 0)
            return;
        q->scheduleAfter(nextDelta(rng), [this] { step(); });
    }
};

/** Events per churn run, split evenly over the depth's actors. */
constexpr std::uint64_t kChurnEvents = 1u << 19;

/** Churn at a steady pending depth of state.range(0) events. */
template <class Engine>
void
BM_EngineChurn(benchmark::State &state)
{
    const std::size_t actors_n = static_cast<std::size_t>(state.range(0));
    const auto fires =
        static_cast<std::uint32_t>(kChurnEvents / actors_n);
    std::uint64_t checksum = 0;
    for (auto _ : state) {
        Engine q;
        std::vector<Actor<Engine>> actors(actors_n);
        for (std::size_t a = 0; a < actors_n; ++a) {
            actors[a].q = &q;
            actors[a].rng = SplitMix64(a + 1);
            actors[a].left = fires;
            actors[a].checksum = &checksum;
            Actor<Engine> *actor = &actors[a];
            q.scheduleAfter(nextDelta(actor->rng),
                            [actor] { actor->step(); });
        }
        if (!q.run())
            state.SkipWithError("valve tripped");
    }
    benchmark::DoNotOptimize(checksum);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(actors_n * fires));
    state.SetLabel("events/sec is items_per_second");
}

BENCHMARK_TEMPLATE(BM_EngineChurn, LegacyEventQueue)
    ->Name("BM_EngineChurn/legacy")
    ->ArgName("depth")
    ->Arg(40)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_EngineChurn, EventQueue)
    ->Name("BM_EngineChurn/engine")
    ->ArgName("depth")
    ->Arg(40)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/**
 * A run's shape rather than one queue's: 24 domain queues (16 SMs, 8
 * slice/channel pairs) of state.range(0) pending events each, drained
 * the way the epoch leader does it — every domain up to the next
 * 16-cycle boundary, in turn — so consecutive runUntil() calls touch
 * different queues.
 */
void
BM_EngineEpochs(benchmark::State &state)
{
    constexpr std::size_t kDomains = 24;
    constexpr Cycle kEpoch = 16;
    const std::size_t depth = static_cast<std::size_t>(state.range(0));
    const auto fires =
        static_cast<std::uint32_t>(kChurnEvents / (kDomains * depth));
    std::uint64_t checksum = 0;
    for (auto _ : state) {
        std::vector<EventQueue> queues(kDomains);
        std::vector<Actor<EventQueue>> actors(kDomains * depth);
        for (std::size_t a = 0; a < actors.size(); ++a) {
            actors[a].q = &queues[a % kDomains];
            actors[a].rng = SplitMix64(a + 1);
            actors[a].left = fires;
            actors[a].checksum = &checksum;
            Actor<EventQueue> *actor = &actors[a];
            actor->q->scheduleAfter(nextDelta(actor->rng),
                                    [actor] { actor->step(); });
        }
        for (Cycle limit = kEpoch - 1;; limit += kEpoch) {
            bool pending = false;
            for (EventQueue &q : queues) {
                q.runUntil(limit);
                pending |= !q.empty();
            }
            if (!pending)
                break;
        }
    }
    benchmark::DoNotOptimize(checksum);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kDomains * depth * fires));
}

BENCHMARK(BM_EngineEpochs)
    ->ArgName("depth")
    ->Arg(40)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/**
 * Pure scheduling pressure: every event reschedules two children
 * until a depth budget runs out, keeping thousands of events pending
 * — the regime where heap reordering cost dominates the legacy
 * engine.
 */
template <class Engine>
void
BM_EngineFanout(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Engine q;
        SplitMix64 rng(42);
        std::uint64_t budget = 200'000;
        std::function<void()> spawn = [&] {
            ++events;
            if (budget < 2)
                return;
            budget -= 2;
            q.scheduleAfter(nextDelta(rng), spawn);
            q.scheduleAfter(nextDelta(rng), spawn);
        };
        budget -= 1;
        q.scheduleAfter(1, spawn);
        if (!q.run())
            state.SkipWithError("valve tripped");
    }
    benchmark::DoNotOptimize(events);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

BENCHMARK_TEMPLATE(BM_EngineFanout, LegacyEventQueue)
    ->Name("BM_EngineFanout/legacy")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_EngineFanout, EventQueue)
    ->Name("BM_EngineFanout/engine")
    ->Unit(benchmark::kMillisecond);

/**
 * Hot cost of one flight-recorder append: a 32-byte store into the
 * ring plus the drop accounting. This is the per-edge price every
 * instrumentation point pays when the recorder is on, so it has to
 * stay in the tens-of-nanoseconds range for the <3% end-to-end
 * overhead budget to hold.
 */
void
BM_FlightRecord(benchmark::State &state)
{
    telemetry::FlightRecorder fr(1u << 16);
    std::uint64_t id = 0;
    for (auto _ : state) {
        ++id;
        fr.record(telemetry::RecordKind::kDramXfer, id, id,
                  0x40u * id, 7, 3, 0);
    }
    benchmark::DoNotOptimize(fr);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_FlightRecord);

/**
 * End-to-end recorder overhead: an identical small full-system run
 * with the flight recorder off vs on. The two report the same
 * simulated cycle count (recording is observational); the host-time
 * ratio between them is the real overhead the <3% acceptance budget
 * refers to.
 */
void
BM_SimFlightRecorder(benchmark::State &state)
{
    const bool enabled = state.range(0) != 0;
    WorkloadParams params;
    params.footprintBytes = 256 * 1024;
    params.numWarps = 32;
    params.memInstsPerWarp = 16;
    params.seed = 7;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.scheme = SchemeKind::kCacheCraft;
        cfg.telemetry.flightRecorderEnabled = enabled;
        GpuSystem gpu(cfg);
        cycles +=
            gpu.run(makeWorkload(WorkloadKind::kStreaming, params))
                .cycles;
    }
    benchmark::DoNotOptimize(cycles);
}

BENCHMARK(BM_SimFlightRecorder)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"recorder"});

/**
 * Hot cost of one reuse-monitor access: a Fenwick-tree stack-distance
 * query plus histogram and epoch bookkeeping. This is the per-access
 * price every monitored cache pays when reuse profiling is on; it is
 * O(log live-lines), so the steady-state working set below keeps the
 * measurement honest.
 */
void
BM_ReuseAccess(benchmark::State &state)
{
    telemetry::ReuseGeometry geom;
    geom.numSets = 64;
    geom.numWays = 8;
    geom.lineBytes = 32;
    geom.sectorsPerLine = 8;
    telemetry::CacheReuseMonitor monitor("bench", "mrc", geom,
                                         telemetry::ReuseOptions{});
    SplitMix64 rng(7);
    cachecraft::CacheAccessResult res;
    res.lineHit = true;
    res.sectorHit = true;
    for (auto _ : state) {
        const std::uint64_t r = rng.next();
        // ~1K distinct lines over 64 sets: constant compaction churn.
        const Addr line = (r % 1024) * geom.lineBytes;
        monitor.onAccess(line, (line / geom.lineBytes) % geom.numSets,
                         static_cast<unsigned>(r >> 32) % 8, res,
                         false);
    }
    benchmark::DoNotOptimize(monitor);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_ReuseAccess);

/**
 * End-to-end reuse-profiling overhead: an identical small full-system
 * run with the profiler off vs on, mirroring BM_SimFlightRecorder.
 * Simulated cycles are identical by contract (observation only); the
 * host-time ratio is the overhead the acceptance gate budgets.
 */
void
BM_SimReuseProfile(benchmark::State &state)
{
    const bool enabled = state.range(0) != 0;
    WorkloadParams params;
    params.footprintBytes = 256 * 1024;
    params.numWarps = 32;
    params.memInstsPerWarp = 16;
    params.seed = 7;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.scheme = SchemeKind::kCacheCraft;
        cfg.telemetry.reuseProfileEnabled = enabled;
        GpuSystem gpu(cfg);
        cycles +=
            gpu.run(makeWorkload(WorkloadKind::kStreaming, params))
                .cycles;
    }
    benchmark::DoNotOptimize(cycles);
}

BENCHMARK(BM_SimReuseProfile)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"reuse"});

} // namespace

BENCHMARK_MAIN();
