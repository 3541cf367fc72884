/**
 * @file
 * Tests for the discrete-event engine: ordering, deterministic
 * tie-breaking, re-entrant scheduling, the livelock valve, events
 * scheduled thousands of cycles out, cross-domain inbox messages, the
 * cached nextAt(), and equivalence with a brute-force reference model
 * under randomized schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "gpu/event_queue.hpp"

namespace cachecraft {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReentrantScheduling)
{
    EventQueue q;
    std::vector<Cycle> times;
    q.schedule(1, [&] {
        times.push_back(q.now());
        q.schedule(5, [&] {
            times.push_back(q.now());
            q.scheduleAfter(2, [&] { times.push_back(q.now()); });
        });
    });
    q.run();
    EXPECT_EQ(times, (std::vector<Cycle>{1, 5, 7}));
}

TEST(EventQueue, ScheduleAtNowRunsSameCycle)
{
    EventQueue q;
    bool inner = false;
    q.schedule(4, [&] { q.schedule(4, [&] { inner = true; }); });
    q.run();
    EXPECT_TRUE(inner);
    EXPECT_EQ(q.now(), 4u);
}

TEST(EventQueue, LivelockValveTrips)
{
    EventQueue q;
    std::function<void()> loop = [&] { q.scheduleAfter(1, loop); };
    q.schedule(0, loop);
    EXPECT_FALSE(q.run(1000));
}

TEST(EventQueue, ValveTripsAreCounted)
{
    EventQueue q;
    EXPECT_EQ(q.valveTrips(), 0u);

    std::function<void()> loop = [&] { q.scheduleAfter(1, loop); };
    q.schedule(0, loop);
    EXPECT_FALSE(q.run(100));
    EXPECT_EQ(q.valveTrips(), 1u);
    EXPECT_FALSE(q.run(100));
    EXPECT_EQ(q.valveTrips(), 2u);

    // A clean drain leaves the counter alone.
    EventQueue ok;
    ok.schedule(1, [] {});
    EXPECT_TRUE(ok.run(100));
    EXPECT_EQ(ok.valveTrips(), 0u);
}

TEST(EventQueue, EmptyAndSize)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.schedule(1, [] {});
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeathTest, PastSchedulingPanics)
{
    EventQueue q;
    q.schedule(10, [&q] {
        // now() == 10; scheduling at 5 is a bug.
        q.schedule(5, [] {});
    });
    EXPECT_DEATH(q.run(), "past");
}

TEST(EventQueue, ExecutedCountsExecutionsNotSchedules)
{
    // Regression pin: executedEvents() used to return the schedule
    // sequence counter, over-reporting whenever events were pending.
    EventQueue q;
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.schedule(10, [] {});
    EXPECT_EQ(q.scheduledEvents(), 3u);
    EXPECT_EQ(q.executedEvents(), 0u);
    EXPECT_TRUE(q.runUntil(5));
    EXPECT_EQ(q.executedEvents(), 2u);
    EXPECT_EQ(q.scheduledEvents(), 3u);
    EXPECT_TRUE(q.run());
    EXPECT_EQ(q.executedEvents(), 3u);
}

TEST(EventQueue, PeakDepthTracksMaxPending)
{
    EventQueue q;
    EXPECT_EQ(q.peakDepth(), 0u);
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Cycle>(i + 1), [] {});
    EXPECT_EQ(q.peakDepth(), 5u);
    q.run();
    // Draining never lowers the recorded peak.
    EXPECT_EQ(q.peakDepth(), 5u);
    q.schedule(q.now() + 1, [] {});
    q.run();
    EXPECT_EQ(q.peakDepth(), 5u);
}

TEST(EventQueue, DistantEventsExecuteInOrder)
{
    // Deltas from a few cycles to far beyond any domain's typical
    // horizon (4095, 4096, 8192 and 100000 cycles out, scheduled out
    // of order) all come back in cycle order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(4096, [&] { order.push_back(3); });
    q.schedule(4095, [&] { order.push_back(2); });
    q.schedule(100000, [&] { order.push_back(5); });
    q.schedule(3, [&] { order.push_back(1); });
    q.schedule(8192, [&] { order.push_back(4); });
    EXPECT_EQ(q.nextAt(), 3u);
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(q.now(), 100000u);
    EXPECT_EQ(q.nextAt(), EventQueue::kNoEventCycle);
}

TEST(EventQueue, FarEventTiesKeepInsertionOrder)
{
    // Ties 50000 cycles out break by insertion order, including one
    // scheduled later from inside an earlier event.
    EventQueue q;
    std::vector<int> order;
    q.schedule(50000, [&] { order.push_back(0); });
    q.schedule(50000, [&] { order.push_back(1); });
    q.schedule(50000, [&] { order.push_back(2); });
    q.schedule(1, [&q, &order] {
        q.schedule(50000, [&order] { order.push_back(3); });
    });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EarlierScheduleWinsDistantTie)
{
    // An event scheduled 6000 cycles out from cycle 0 runs before one
    // scheduled into the same cycle from cycle 5000: insertion order,
    // however far ahead either was scheduled.
    EventQueue q;
    std::vector<int> order;
    q.schedule(6000, [&] { order.push_back(0); });
    q.schedule(5000, [&q, &order] {
        q.schedule(6000, [&order] { order.push_back(1); });
    });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, RunUntilLimitJumpKeepsTieOrder)
{
    // runUntil advancing the clock to an event-free limit must not let
    // a later same-cycle schedule jump ahead of an earlier one.
    EventQueue q;
    std::vector<int> order;
    q.schedule(5000, [&] { order.push_back(0); });
    EXPECT_TRUE(q.runUntil(4000)); // clock jumps, no events
    EXPECT_EQ(q.now(), 4000u);
    EXPECT_EQ(q.nextAt(), 5000u);
    q.schedule(5000, [&] { order.push_back(1); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, InboxMessagesRunBeforeLocalEventsOfTheirCycle)
{
    // Messages order by (when, sent, src, seq) among themselves and all
    // run before any local event of their cycle, whatever the order of
    // arrival; nextAt() covers both ingresses.
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(3); });
    q.postMessage(10, 4, 2, 0, [&] { order.push_back(2); });
    q.postMessage(10, 4, 1, 7, [&] { order.push_back(1); });
    q.postMessage(10, 3, 5, 0, [&] { order.push_back(0); });
    q.postMessage(12, 0, 0, 0, [&] { order.push_back(5); });
    q.schedule(11, [&] { order.push_back(4); });
    EXPECT_EQ(q.nextAt(), 10u);
    EXPECT_EQ(q.size(), 6u);
    EXPECT_TRUE(q.runUntil(11));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.nextAt(), 12u);
    q.postMessage(12, 11, 0, 1, [&] { order.push_back(6); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(q.peakDepth(), 6u);
}

/**
 * Brute-force reference queue: a vector scanned for the minimum
 * (when, inbox-before-local, key) on every pop. Obviously correct,
 * O(n) per event. Local events order by insertion; inbox messages by
 * their canonical (sent, src, seq) key.
 */
class ReferenceQueue
{
  public:
    Cycle now() const { return now_; }

    void
    schedule(Cycle when, std::function<void()> fn)
    {
        ASSERT_GE(when, now_);
        events_.push_back(Event{when, false, 0, 0, seq_++, std::move(fn)});
    }

    void
    scheduleAfter(Cycle delta, std::function<void()> fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    void
    postMessage(Cycle when, Cycle sent, std::uint32_t src,
                std::uint32_t seq, std::function<void()> fn)
    {
        ASSERT_GT(when, now_);
        events_.push_back(Event{when, true, sent, src, seq, std::move(fn)});
    }

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    Cycle
    nextAt() const
    {
        Cycle next = EventQueue::kNoEventCycle;
        for (const Event &ev : events_)
            next = std::min(next, ev.when);
        return next;
    }

    bool
    runUntil(Cycle limit, std::uint64_t max_events = ~0ull)
    {
        while (true) {
            std::size_t best = events_.size();
            for (std::size_t i = 0; i < events_.size(); ++i) {
                if (events_[i].when > limit)
                    continue;
                if (best == events_.size() ||
                    events_[i].order() < events_[best].order())
                    best = i;
            }
            if (best == events_.size())
                break;
            if (max_events-- == 0)
                return false;
            Event ev = std::move(events_[best]);
            events_.erase(events_.begin() +
                          static_cast<std::ptrdiff_t>(best));
            now_ = ev.when;
            ev.fn();
        }
        if (!events_.empty() && now_ < limit)
            now_ = limit;
        return true;
    }

  private:
    struct Event
    {
        Cycle when;
        bool message;
        Cycle sent;
        std::uint32_t src;
        std::uint64_t seq;
        std::function<void()> fn;

        std::tuple<Cycle, bool, Cycle, std::uint32_t, std::uint64_t>
        order() const
        {
            // Messages first within a cycle (false < true, so negate).
            return std::make_tuple(when, !message, sent, src, seq);
        }
    };

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::vector<Event> events_;
};

/**
 * Property test: a randomized self-rescheduling workload (deltas from
 * zero to tens of thousands of cycles, bursts of ties, random runUntil
 * interleavings) must execute in the identical order on the real
 * engine and on the reference model.
 */
TEST(EventQueue, MatchesReferenceModelOnRandomSchedules)
{
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        // Both runs replay the same deterministic script.
        auto run_script = [trial](auto &q, std::vector<int> &executed) {
            SplitMix64 rng(trial * 7919 + 1);
            int next_id = 0;
            // Each event may reschedule up to two children while the
            // budget lasts; the same rng draws happen in the same
            // execution order on both engines.
            int budget = 400;
            std::function<void(int)> fire = [&](int id) {
                executed.push_back(id);
                for (int child = 0; child < 2; ++child) {
                    if (budget-- <= 0)
                        return;
                    const std::uint64_t r = rng.next();
                    Cycle delta;
                    switch (r % 4) {
                      case 0:
                        delta = r % 3; // ties and same-cycle
                        break;
                      case 1:
                        delta = 1 + (r >> 8) % 100;
                        break;
                      case 2:
                        delta = 4000 + (r >> 8) % 200; // ~4 k out
                        break;
                      default:
                        delta = 5000 + (r >> 8) % 20000; // far
                        break;
                    }
                    const int id_child = next_id++;
                    q.scheduleAfter(delta,
                                    [&fire, id_child] { fire(id_child); });
                }
            };
            for (int i = 0; i < 8; ++i) {
                const int id_root = next_id++;
                q.schedule(rng.next() % 6000,
                           [&fire, id_root] { fire(id_root); });
            }
            // Drain through randomized runUntil slices to exercise
            // clock jumps and stops between same-cycle events.
            Cycle limit = 0;
            while (!q.empty()) {
                limit += 1 + rng.next() % 9000;
                q.runUntil(limit);
            }
        };

        std::vector<int> real, ref;
        {
            EventQueue q;
            run_script(q, real);
        }
        {
            ReferenceQueue q;
            run_script(q, ref);
        }
        ASSERT_FALSE(real.empty());
        EXPECT_EQ(real, ref) << "trial " << trial;
    }
}

/**
 * Property test over the whole ingress surface: random top-level
 * schedule(), postMessage() and runUntil() calls (some with a small
 * max_events valve), events that re-entrantly schedule children at
 * now() and later, and dense cycle collisions between local events
 * and messages. After every call the real engine must agree with the
 * reference model on the return value, now(), size() and — exactly —
 * nextAt(); the executed order must match too.
 */
TEST(EventQueue, MatchesReferenceModelWithMessagesAndValve)
{
    for (std::uint64_t trial = 0; trial < 40; ++trial) {
        struct Observation
        {
            int op;
            bool ret;
            Cycle now;
            std::size_t size;
            Cycle nextAt;
            bool operator==(const Observation &) const = default;
        };
        auto run_script = [trial](auto &q, std::vector<int> &executed,
                                  std::vector<Observation> &seen) {
            SplitMix64 rng(trial * 104729 + 3);
            int next_id = 0;
            int children = 300;
            std::uint32_t msg_seq[4] = {};
            std::function<void(int)> fire = [&](int id) {
                executed.push_back(id);
                const std::uint64_t r = rng.next();
                const int kids = static_cast<int>(r % 3);
                for (int k = 0; k < kids && children > 0; ++k) {
                    --children;
                    const std::uint64_t rr = rng.next();
                    // Re-entrant at now() a third of the time.
                    const Cycle delta =
                        rr % 3 == 0 ? 0 : 1 + (rr >> 8) % 40;
                    const int child = next_id++;
                    q.scheduleAfter(delta, [&fire, child] { fire(child); });
                }
            };
            auto observe = [&](int op, bool ret) {
                seen.push_back(
                    Observation{op, ret, q.now(), q.size(), q.nextAt()});
            };
            observe(-1, true);
            for (int step = 0; step < 120; ++step) {
                const std::uint64_t r = rng.next();
                switch (r % 3) {
                  case 0: {
                    const int id = next_id++;
                    const Cycle when = q.now() + (r >> 8) % 30;
                    q.schedule(when, [&fire, id] { fire(id); });
                    observe(0, true);
                    break;
                  }
                  case 1: {
                    const int id = next_id++;
                    const std::uint32_t src =
                        static_cast<std::uint32_t>((r >> 8) % 4);
                    const Cycle when = q.now() + 1 + (r >> 12) % 30;
                    const Cycle sent = q.now() - std::min<Cycle>(
                                                     q.now(), (r >> 20) % 3);
                    q.postMessage(when, sent, src, msg_seq[src]++,
                                  [&fire, id] { fire(id); });
                    observe(1, true);
                    break;
                  }
                  default: {
                    const Cycle limit = q.now() + (r >> 8) % 25;
                    const bool valve = (r >> 16) % 4 == 0;
                    const bool ret =
                        valve ? q.runUntil(limit, 1 + (r >> 20) % 4)
                              : q.runUntil(limit);
                    observe(2, ret);
                    break;
                  }
                }
            }
            while (!q.empty()) {
                const bool ret = q.runUntil(q.now() + 50);
                observe(3, ret);
            }
        };

        std::vector<int> real, ref;
        std::vector<Observation> real_seen, ref_seen;
        {
            EventQueue q;
            run_script(q, real, real_seen);
        }
        {
            ReferenceQueue q;
            run_script(q, ref, ref_seen);
        }
        ASSERT_FALSE(real.empty());
        ASSERT_EQ(real_seen.size(), ref_seen.size()) << "trial " << trial;
        for (std::size_t i = 0; i < real_seen.size(); ++i) {
            const Observation &a = real_seen[i];
            const Observation &b = ref_seen[i];
            ASSERT_TRUE(a == b)
                << "trial " << trial << " call " << i << " op " << a.op
                << ": ret " << a.ret << "/" << b.ret << " now " << a.now
                << "/" << b.now << " size " << a.size << "/" << b.size
                << " nextAt " << a.nextAt << "/" << b.nextAt;
        }
        EXPECT_EQ(real, ref) << "trial " << trial;
    }
}

} // namespace
} // namespace cachecraft
