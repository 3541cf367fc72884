/**
 * @file
 * Determinism & race battery for the sharded engine.
 *
 * The contract under test: GpuSystem::run() executes a fixed domain
 * decomposition (one event queue per SM and per L2-slice/DRAM-channel
 * pair) under a fixed epoch-barrier schedule, and --shards only picks
 * how many threads drain the domains between barriers — so every
 * deterministic output (cycle count, the full flattened stat map, the
 * engine event count) is bit-identical at every shard value.
 *
 * Three layers of evidence:
 *   - a property sweep: 512 seeded runs (32 seeds x 4 schemes x
 *     shards {1,2,3,8}) generated by the fuzzer's case machinery,
 *     every sharded fingerprint compared against the serial one;
 *   - a crossbar-barrier reference model: staged router-mode traffic
 *     arbitrated at a barrier must match both hand-computed delivery
 *     times and the immediate-mode crossbar fed the same messages in
 *     canonical order;
 *   - a pinned minimized sharded differential case replayed through
 *     the fuzzer's oracle (runCase runs it sharded AND serial and
 *     cross-checks), as a fast regression anchor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <vector>

#include "common/domain.hpp"
#include "core/gpu_system.hpp"
#include "core/shard_exec.hpp"
#include "faults/fault_injector.hpp"
#include "gpu/crossbar.hpp"
#include "verify/fuzz.hpp"

namespace cachecraft {
namespace {

/** Deterministic outputs of one run, compared across shard counts. */
struct Fingerprint
{
    Cycle cycles = 0;
    std::uint64_t eventsExecuted = 0;
    std::map<std::string, double> all;

    bool
    operator==(const Fingerprint &o) const
    {
        return cycles == o.cycles &&
               eventsExecuted == o.eventsExecuted && all == o.all;
    }
};

Fingerprint
runFingerprint(const verify::FuzzCase &c, unsigned shards,
               bool traced = false)
{
    SystemConfig cfg = c.toConfig();
    if (traced) {
        // A tiny ring: the stage histograms drain it on wrap, from
        // whichever domain thread records, as well as at barriers.
        cfg.telemetry.traceEnabled = true;
        cfg.telemetry.flightCapacity = 64;
    }
    const KernelTrace trace = c.toTrace();
    GpuSystem gpu(cfg);
    gpu.setShards(shards);
    gpu.initialize(trace);
    for (const FaultPlan &plan : c.faults)
        FaultInjector::apply(gpu, plan);
    const RunStats rs = gpu.run(trace);
    Fingerprint fp;
    fp.cycles = rs.cycles;
    fp.eventsExecuted = rs.simThroughput.eventsExecuted;
    fp.all = rs.all;
    return fp;
}

/** Pretty-print the first few divergent stats of a mismatch. */
std::string
describeMismatch(const Fingerprint &serial, const Fingerprint &sharded)
{
    std::string out;
    if (serial.cycles != sharded.cycles)
        out += strCat("cycles ", serial.cycles, " vs ", sharded.cycles,
                      "; ");
    if (serial.eventsExecuted != sharded.eventsExecuted)
        out += strCat("events ", serial.eventsExecuted, " vs ",
                      sharded.eventsExecuted, "; ");
    unsigned shown = 0;
    for (const auto &[name, value] : serial.all) {
        const auto it = sharded.all.find(name);
        if (it == sharded.all.end() || it->second != value) {
            out += strCat(name, " ", value, " vs ",
                          it == sharded.all.end() ? -1.0 : it->second,
                          "; ");
            if (++shown >= 4)
                break;
        }
    }
    return out;
}

// 32 seeds x 4 schemes x shards {1,2,3,8} = 512 seeded runs. Every
// sharded fingerprint must equal the serial one bit for bit. The
// generated machines are 1-3 SMs x 1-2 channels (2-5 domains), so
// shards 2 and 3 exercise real work partitions and 8 exercises the
// clamp-to-domain-count path.
TEST(ShardedEngine, FingerprintIsIdenticalAcross512SeededRuns)
{
    constexpr SchemeKind kSchemes[] = {
        SchemeKind::kNone, SchemeKind::kInlineNaive,
        SchemeKind::kEccCache, SchemeKind::kCacheCraft};
    constexpr unsigned kShardCounts[] = {2, 3, 8};
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        for (const SchemeKind scheme : kSchemes) {
            verify::FuzzCase c = verify::generateCase(seed, scheme);
            const Fingerprint serial = runFingerprint(c, 1);
            for (const unsigned shards : kShardCounts) {
                const Fingerprint sharded = runFingerprint(c, shards);
                ASSERT_EQ(serial, sharded)
                    << "seed=" << seed << " scheme=" << toString(scheme)
                    << " shards=" << shards << ": "
                    << describeMismatch(serial, sharded);
            }
        }
    }
}

// The lifecycle view streams telemetry.stage.* from the flight
// records, which sharded domains push concurrently; the histogram
// values are sums over a fixed multiset of spans, so every stat —
// stage histograms included — stays bit-identical across shards.
TEST(ShardedEngine, TracedStageHistogramsAreShardInvariant)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const SchemeKind scheme :
             {SchemeKind::kInlineNaive, SchemeKind::kCacheCraft}) {
            verify::FuzzCase c = verify::generateCase(seed, scheme);
            const Fingerprint serial = runFingerprint(c, 1, true);
            EXPECT_GT(serial.all.at("telemetry.stage.l2.read.count"), 0)
                << "seed=" << seed;
            for (const unsigned shards : {2u, 3u}) {
                const Fingerprint sharded =
                    runFingerprint(c, shards, true);
                ASSERT_EQ(serial, sharded)
                    << "seed=" << seed << " scheme=" << toString(scheme)
                    << " shards=" << shards << ": "
                    << describeMismatch(serial, sharded);
            }
        }
    }
}

// Router-mode reference model: messages staged from two source
// domains, arbitrated at one barrier, must deliver at exactly the
// cycles the immediate-mode crossbar produces when fed the same
// messages in canonical (send cycle, source domain, source seq)
// order — and match the hand-computed timeline.
TEST(ShardedEngine, CrossbarBarrierMatchesReferenceModel)
{
    constexpr Cycle kLatency = 10;

    // --- router mode: two source domains, one destination port ---
    EventQueue unused;   // reference queue, unused in router mode
    EventQueue dest;     // port 0's domain queue
    EventQueue other;    // port 1's domain queue (idle)
    StatRegistry reg;
    Crossbar router("xr", 2, kLatency, unused, &reg);
    router.setRouter({&dest, &other}, /* num_domains= */ 4);

    std::vector<Cycle> deliveries;
    EventQueue src2, src3; // domains 2 and 3
    src2.schedule(5, [&] {
        for (int i = 0; i < 3; ++i)
            router.send(0, [&] { deliveries.push_back(dest.now()); });
    });
    src3.schedule(3, [&] {
        router.send(0, [&] { deliveries.push_back(dest.now()); });
    });
    src3.schedule(5, [&] {
        router.send(0, [&] { deliveries.push_back(dest.now()); });
    });
    {
        ScopedSimDomain scope(2, &src2);
        ASSERT_TRUE(src2.runUntil(9));
    }
    {
        ScopedSimDomain scope(3, &src3);
        ASSERT_TRUE(src3.runUntil(9));
    }
    ASSERT_TRUE(router.hasStaged());
    const std::uint32_t ran[] = {2, 3};
    router.applyStaged(ran);
    EXPECT_FALSE(router.hasStaged());
    ASSERT_TRUE(dest.run());

    // Canonical arbitration order: (3,d3), (5,d2)x3, (5,d3). Port 0
    // accepts one flit per cycle from its free cycle, so acceptances
    // land at 3,5,6,7,8 and deliveries at accept + latency.
    const std::vector<Cycle> expected = {13, 15, 16, 17, 18};
    EXPECT_EQ(deliveries, expected);
    EXPECT_EQ(reg.counter("xr.flits")->value(), 5u);
    // Contention = accept - sent, summed: 0 + 0 + 1 + 2 + 3.
    EXPECT_EQ(reg.counter("xr.contention_cycles")->value(), 6u);

    // --- immediate mode fed the same canonical sequence ---
    EventQueue serial_q;
    StatRegistry serial_reg;
    Crossbar immediate("xi", 2, kLatency, serial_q, &serial_reg);
    std::vector<Cycle> serial_deliveries;
    auto stage = [&](Cycle at, unsigned copies) {
        serial_q.schedule(at, [&, copies] {
            for (unsigned i = 0; i < copies; ++i)
                immediate.send(0, [&] {
                    serial_deliveries.push_back(serial_q.now());
                });
        });
    };
    stage(3, 1); // d3's first message
    stage(5, 4); // d2's three then d3's second, in canonical order
    ASSERT_TRUE(serial_q.run());
    EXPECT_EQ(serial_deliveries, deliveries);
    EXPECT_EQ(serial_reg.counter("xi.contention_cycles")->value(),
              reg.counter("xr.contention_cycles")->value());
}

// Batching across barriers must not change arbitration: applying two
// disjoint epochs' traffic in two applyStaged() calls equals applying
// the union (epochs are cycle-disjoint and the sort key leads with
// the send cycle).
TEST(ShardedEngine, StagedArbitrationIsBarrierBatchingInvariant)
{
    constexpr Cycle kLatency = 4;
    auto run_with_barriers = [&](bool split) {
        EventQueue unused, dest, src;
        StatRegistry reg;
        Crossbar xbar("xb", 1, kLatency, unused, &reg);
        xbar.setRouter({&dest}, /* num_domains= */ 1);
        std::vector<Cycle> deliveries;
        for (Cycle at : {Cycle{0}, Cycle{1}, Cycle{5}, Cycle{6}}) {
            src.schedule(at, [&] {
                xbar.send(0, [&] { deliveries.push_back(dest.now()); });
            });
        }
        {
            ScopedSimDomain scope(0, &src);
            EXPECT_TRUE(src.runUntil(3));
            const std::uint32_t ran[] = {0};
            if (split)
                xbar.applyStaged(ran); // barrier after epoch [0,3]
            EXPECT_TRUE(src.runUntil(7));
            xbar.applyStaged(ran);
        }
        EXPECT_TRUE(dest.run());
        return deliveries;
    };
    EXPECT_EQ(run_with_barriers(true), run_with_barriers(false));
}

// The worker pool runs every task exactly once per generation, across
// reuse, with results landing where the task index says — the
// substrate the epoch loop's determinism rests on.
TEST(ShardedEngine, ShardPoolRunsEveryTaskEachGeneration)
{
    ShardPool pool(4);
    std::vector<std::atomic<int>> hits(97);
    ShardPool::TaskFn task = [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    };
    for (int gen = 0; gen < 50; ++gen)
        pool.run(hits.size(), task);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 50) << "task " << i;
}

// Pinned minimized sharded differential case. The fuzz battery's
// sharded-vs-serial cross-check has not produced a failing program;
// this pins its smallest interesting member — a two-domain machine
// under shards=3 with cross-channel read/write traffic and one
// planned fault — so the differential path itself can never silently
// stop running. runCase() executes it sharded, re-executes it serial,
// and reports any divergence as a "shard-mismatch" violation.
TEST(ShardedEngine, PinnedShardReproducerReplaysClean)
{
    verify::FuzzCase c = verify::generateCase(7, SchemeKind::kCacheCraft);
    c.shards = 3;

    // The reproducer must survive the JSON round-trip with its shard
    // count intact (older reproducers without the field replay serial).
    const std::string json = verify::toJson(c);
    verify::FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(verify::fromJson(json, &parsed, &error)) << error;
    EXPECT_EQ(parsed.shards, 3u);

    const verify::FuzzResult result = verify::runCase(parsed);
    EXPECT_TRUE(result.ok);
    for (const std::string &v : result.violations)
        ADD_FAILURE() << v;
    EXPECT_GT(result.decodesChecked, 0u);
}

} // namespace
} // namespace cachecraft
