/**
 * @file
 * The discrete-event engine driving the whole simulator.
 *
 * Components schedule closures at absolute cycles; the queue executes
 * them in (cycle, insertion-order) order. Determinism matters: ties
 * are broken by insertion order, never by heap internals.
 *
 * Implementation: a 4-ary min-heap of 16-byte keys over a recycled
 * pool of callback slots. A key packs (cycle, insertion seq, slot)
 * into one 128-bit integer whose natural order is the execution order,
 * so a comparison is a single wide compare. The heap is sized to what
 * one shard domain holds (tens of events in steady state, a few
 * thousand on write-heavy kernels), so a push or pop touches a few
 * cache lines of keys and never moves a callback; the 64-byte SmallFn
 * values stay put in their slot until they run. Slots are reused
 * LIFO, so steady-state scheduling performs no heap allocation.
 *
 * Sharded runs add a second ingress: postMessage() delivers a
 * cross-domain message (a crossbar hop from another shard domain)
 * into a small inbox heap keyed by the canonical
 * (delivery cycle, send cycle, source domain, source seq) tuple.
 * Messages for cycle D execute *before* D's local events, in key
 * order — a total order independent of which thread staged what when,
 * so execution is bit-identical at any --shards value. Only the epoch
 * leader posts, and only while this queue's domain is parked at a
 * barrier, so the inbox needs no locking; deliveries must be strictly
 * in this queue's future.
 *
 * nextAt() is a cached exact value: schedule()/postMessage() lower it
 * and runUntil() recomputes it on return, so the epoch leader's
 * per-barrier poll of every domain is one load per queue.
 */

#ifndef CACHECRAFT_GPU_EVENT_QUEUE_HPP
#define CACHECRAFT_GPU_EVENT_QUEUE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/inplace_function.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "telemetry/host_profiler.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

/** Discrete-event queue with deterministic tie-breaking. */
class EventQueue
{
  public:
    using EventFn = SmallFn;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /** Schedule @p fn to run at absolute cycle @p when (>= now). */
    void
    schedule(Cycle when, EventFn fn)
    {
        if (when < now_)
            panic("event scheduled in the past");
        if (seq_ > kMaxSeq)
            panic("event queue sequence space exhausted");
        std::uint64_t slot;
        if (freeSlots_.empty()) {
            slot = slots_.size();
            if (slot > kSlotMask)
                panic("more than 16M events pending in one queue");
            slots_.push_back(std::move(fn));
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slots_[slot] = std::move(fn);
        }
        pushLocal(Key{when} << 64 | (seq_ << kSlotBits | slot));
        ++seq_;
        noteScheduled(when);
    }

    /** Schedule @p fn @p delta cycles from now. */
    void
    scheduleAfter(Cycle delta, EventFn fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /**
     * Deliver a cross-domain message: run @p fn at cycle @p when
     * (strictly after now()), ordered against other messages by the
     * canonical (when, sent, src, seq) key and before any local event
     * of cycle @p when. Leader-only; see file comment.
     */
    void
    postMessage(Cycle when, Cycle sent, std::uint32_t src,
                std::uint32_t seq, EventFn fn)
    {
        if (when <= now_)
            panic("cross-domain message posted at or before the "
                  "receiver's clock");
        inbox_.push_back(InboxMsg{when, sent, src, seq, std::move(fn)});
        std::push_heap(inbox_.begin(), inbox_.end(), InboxAfter{});
        ++seq_;
        noteScheduled(when);
    }

    /** True if no events are pending. */
    bool empty() const { return size() == 0; }

    /** Number of pending events. */
    std::size_t size() const { return local_.size() + inbox_.size(); }

    /**
     * Run events until the queue drains.
     * @param max_events safety valve against livelock bugs.
     * @return true if drained; false if the valve tripped.
     */
    bool
    run(std::uint64_t max_events = 2'000'000'000ull)
    {
        return runUntil(~Cycle{0}, max_events);
    }

    /**
     * Run every event scheduled at or before cycle @p limit, then
     * stop. If events remain beyond @p limit the clock advances to
     * @p limit exactly (so a caller sampling at epoch boundaries sees
     * aligned cycles); a drained queue leaves the clock at the last
     * executed event.
     * @return true if the bound was reached (or the queue drained);
     *         false if the @p max_events valve tripped.
     */
    bool
    runUntil(Cycle limit, std::uint64_t max_events = 2'000'000'000ull)
    {
        // One drain chunk per call (epoch-sized), so the zone cost is
        // per chunk, never per event.
        CC_HOST_ZONE("events.run_until");
        if (now_ > limit)
            return true;
        std::uint64_t budget = max_events;
        while (true) {
            const Cycle inbox_at =
                inbox_.empty() ? kNoEventCycle : inbox_.front().when;
            const Cycle local_at = local_.empty()
                                       ? kNoEventCycle
                                       : static_cast<Cycle>(local_[0] >> 64);
            // Inbox messages for a cycle run before its local events.
            const Cycle next = std::min(inbox_at, local_at);
            nextAt_ = next;
            if (next == kNoEventCycle)
                return true; // drained; clock stays on the last event
            if (next > limit) {
                if (now_ < limit) {
                    CACHECRAFT_VERIFY_HOOK(onClockAdvance(now_, limit));
                    now_ = limit;
                }
                return true;
            }
            if (budget == 0) {
                ++valveTrips_;
                return false;
            }
            --budget;
            if (next != now_) {
                CACHECRAFT_VERIFY_HOOK(onClockAdvance(now_, next));
                now_ = next;
            }
            // Move the closure out before running it: a re-entrant
            // schedule() may reuse its slot or grow the pool.
            EventFn fn;
            if (inbox_at <= local_at) {
                std::pop_heap(inbox_.begin(), inbox_.end(), InboxAfter{});
                fn = std::move(inbox_.back().fn);
                inbox_.pop_back();
            } else {
                const auto slot =
                    static_cast<std::uint32_t>(popLocal() & kSlotMask);
                fn = std::move(slots_[slot]);
                freeSlots_.push_back(slot);
            }
            ++executed_;
            fn();
        }
    }

    /** Total events executed so far (for perf accounting). */
    std::uint64_t executedEvents() const { return executed_; }

    /** Total events ever scheduled (executed + still pending). */
    std::uint64_t scheduledEvents() const { return seq_; }

    /** High-water mark of pending events. */
    std::uint64_t peakDepth() const { return peakDepth_; }

    /**
     * Times the max_events safety valve fired. A non-zero value means
     * some run()/runUntil() returned early and results are truncated.
     */
    std::uint64_t valveTrips() const { return valveTrips_; }

    /** nextAt() when nothing is pending. */
    static constexpr Cycle kNoEventCycle = ~Cycle{0};

    /**
     * Earliest pending cycle (local or inbox), or kNoEventCycle when
     * drained. Exact whenever no runUntil() is executing. The epoch
     * leader polls this to skip idle domains and to compute the
     * global skip-ahead target.
     */
    Cycle nextAt() const { return nextAt_; }

  private:
    /**
     * A pending local event: cycle in the high 64 bits, then the
     * insertion seq, then the slot holding its callback in the low
     * kSlotBits. Seqs are unique, so key order is (cycle, seq) order.
     */
    using Key = unsigned __int128;
    static constexpr unsigned kSlotBits = 24; //!< 16 M pending events
    static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
    static constexpr std::uint64_t kMaxSeq = ~0ull >> kSlotBits;
    static constexpr std::size_t kArity = 4;

    /** Insert @p key into the local heap (sift the hole up). */
    void
    pushLocal(Key key)
    {
        std::size_t i = local_.size();
        local_.push_back(key);
        while (i > 0) {
            const std::size_t parent = (i - 1) / kArity;
            if (local_[parent] < key)
                break;
            local_[i] = local_[parent];
            i = parent;
        }
        local_[i] = key;
    }

    /** Remove and return the least key (sift the hole down). */
    Key
    popLocal()
    {
        const Key top = local_[0];
        const Key last = local_.back();
        local_.pop_back();
        const std::size_t n = local_.size();
        if (n == 0)
            return top;
        std::size_t i = 0;
        while (true) {
            const std::size_t first = i * kArity + 1;
            if (first >= n)
                break;
            std::size_t least = first;
            const std::size_t end = std::min(first + kArity, n);
            for (std::size_t c = first + 1; c < end; ++c) {
                if (local_[c] < local_[least])
                    least = c;
            }
            if (last < local_[least])
                break;
            local_[i] = local_[least];
            i = least;
        }
        local_[i] = last;
        return top;
    }

    /** A cross-domain message awaiting delivery (see postMessage). */
    struct InboxMsg
    {
        Cycle when;
        Cycle sent;
        std::uint32_t src;
        std::uint32_t seq;
        EventFn fn;
    };

    /** Heap comparator: front is the least (when, sent, src, seq). */
    struct InboxAfter
    {
        bool
        operator()(const InboxMsg &a, const InboxMsg &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.sent != b.sent)
                return a.sent > b.sent;
            if (a.src != b.src)
                return a.src > b.src;
            return a.seq > b.seq;
        }
    };

    /** Depth and nextAt() bookkeeping shared by both ingresses. */
    void
    noteScheduled(Cycle when)
    {
        peakDepth_ = std::max<std::uint64_t>(peakDepth_, size());
        nextAt_ = std::min(nextAt_, when);
    }

    Cycle now_ = 0;
    Cycle nextAt_ = kNoEventCycle;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t peakDepth_ = 0;
    std::uint64_t valveTrips_ = 0;
    std::vector<Key> local_;                //!< 4-ary min-heap of keys
    std::vector<EventFn> slots_;            //!< callback pool
    std::vector<std::uint32_t> freeSlots_;  //!< LIFO free slot indices
    std::vector<InboxMsg> inbox_;           //!< min-heap, see InboxAfter
};

} // namespace cachecraft

#endif // CACHECRAFT_GPU_EVENT_QUEUE_HPP
