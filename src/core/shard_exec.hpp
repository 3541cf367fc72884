/**
 * @file
 * Worker pool and verify-hook serialization for the sharded engine.
 *
 * A sharded run executes its fixed domain decomposition (one domain
 * per SM, one per L2-slice/DRAM-channel pair; see core/gpu_system.cpp)
 * epoch by epoch: the leader publishes one task per runnable domain,
 * the pool's threads drain their round-robin share of domains up to
 * the epoch boundary, and everyone meets at a barrier where the leader
 * does the (serial, canonical) cross-domain work. Task-to-thread
 * assignment is by task *index*, never by arrival order, so the work a
 * thread performs — though not its interleaving with other threads —
 * is the same every run. Determinism never depends on this pool: all
 * cross-domain communication flows through canonically ordered barrier
 * merges (crossbar router, store staging).
 *
 * ShardPool(1) spawns no threads and runs tasks inline on the caller,
 * which is exactly the --shards 1 execution mode.
 */

#ifndef CACHECRAFT_CORE_SHARD_EXEC_HPP
#define CACHECRAFT_CORE_SHARD_EXEC_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "verify/verify.hpp"

namespace cachecraft {

/**
 * Thread-safe shim over a verify::Listener. A sharded run executes
 * domains concurrently, but the checkers behind the hooks (golden
 * oracle, invariant checker) are single-threaded objects — so each
 * worker installs this wrapper, which funnels every hook through one
 * mutex into the listener the caller had active. Hook *content* stays
 * deterministic (each hook fires from exactly one domain's execution);
 * only the cross-domain arrival order varies, which the checkers
 * tolerate by design (they judge per-address / per-component state).
 */
class SerializedListener final : public verify::Listener
{
  public:
    explicit SerializedListener(verify::Listener *inner) : inner_(inner) {}

    void
    onInitSector(Addr sector, const std::uint8_t *data,
                 std::uint8_t tag) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onInitSector(sector, data, tag);
    }
    void
    onWriteSector(Addr sector, const std::uint8_t *data,
                  std::uint8_t tag) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onWriteSector(sector, data, tag);
    }
    void
    onDecodeSector(Addr sector, std::uint8_t tag, std::uint8_t status,
                   const std::uint8_t *data, bool from_shadow) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onDecodeSector(sector, tag, status, data, from_shadow);
    }
    void
    onMrcResidentCheck(Addr sector, std::uint8_t tag,
                       const std::uint8_t *check) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onMrcResidentCheck(sector, tag, check);
    }
    void
    onDrainResidue(const char *component, std::uint64_t count) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onDrainResidue(component, count);
    }
    void
    onCacheLineState(const char *cache, Addr line, std::uint8_t valid_mask,
                     std::uint8_t dirty_mask) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onCacheLineState(cache, line, valid_mask, dirty_mask);
    }
    void
    onMshrAllocated(const char *mshr, std::uint64_t size,
                    std::uint64_t capacity) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onMshrAllocated(mshr, size, capacity);
    }
    void
    onMshrRelease(const char *mshr, Addr line, bool present) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onMshrRelease(mshr, line, present);
    }
    void
    onClockAdvance(Cycle from, Cycle to) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onClockAdvance(from, to);
    }
    void
    onDramCompletion(Cycle now, Cycle complete_at) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onDramCompletion(now, complete_at);
    }

  private:
    verify::Listener *inner_;
    std::mutex mutex_;
};

/**
 * Persistent fork/join pool for epoch execution. The owning thread
 * calls run() once per epoch; it participates as worker 0 while
 * threads-1 helpers take the remaining round-robin shares, and run()
 * returns only after every task finished (the epoch barrier's entry
 * edge). Construction spawns the helpers once; per-epoch cost is one
 * condition-variable broadcast and one countdown.
 */
class ShardPool
{
  public:
    /** Task @p i of the current epoch (i indexes runnable domains). */
    using TaskFn = std::function<void(std::size_t)>;

    explicit ShardPool(unsigned threads)
        : threads_(threads < 1 ? 1 : threads)
    {
        workers_.reserve(threads_ - 1);
        for (unsigned w = 1; w < threads_; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    }

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    ~ShardPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
            ++generation_;
        }
        startCv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    unsigned threads() const { return threads_; }

    /**
     * Verify listener helper threads install while executing tasks
     * (they start with none). Pass the SerializedListener wrapping the
     * caller's active listener, or null. Set before run().
     */
    void setListener(verify::Listener *listener) { listener_ = listener; }

    /**
     * Execute fn(0) .. fn(num_tasks-1), task i on thread i % threads().
     * Blocks until all tasks completed. @p fn must stay alive for the
     * whole call (it is shared by reference, so hoist the std::function
     * out of per-epoch loops to avoid re-allocation).
     */
    void
    run(std::size_t num_tasks, const TaskFn &fn)
    {
        if (threads_ == 1 || num_tasks <= 1) {
            for (std::size_t i = 0; i < num_tasks; ++i)
                fn(i);
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            fn_ = &fn;
            numTasks_ = num_tasks;
            active_ = threads_ - 1;
            ++generation_;
        }
        startCv_.notify_all();
        runShare(0, num_tasks, fn);
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [this] { return active_ == 0; });
    }

  private:
    void
    runShare(std::size_t worker, std::size_t num_tasks, const TaskFn &fn)
    {
        for (std::size_t i = worker; i < num_tasks; i += threads_)
            fn(i);
    }

    void
    workerLoop(unsigned worker)
    {
        std::uint64_t seen = 0;
        while (true) {
            const TaskFn *fn = nullptr;
            std::size_t num_tasks = 0;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                startCv_.wait(lock,
                              [this, seen] { return generation_ != seen; });
                seen = generation_;
                if (stop_)
                    return;
                fn = fn_;
                num_tasks = numTasks_;
            }
            {
                verify::ScopedListener scoped(listener_);
                runShare(worker, num_tasks, *fn);
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (--active_ == 0)
                    doneCv_.notify_one();
            }
        }
    }

    unsigned threads_;
    verify::Listener *listener_ = nullptr;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable startCv_;
    std::condition_variable doneCv_;
    const TaskFn *fn_ = nullptr;
    std::size_t numTasks_ = 0;
    unsigned active_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
};

} // namespace cachecraft

#endif // CACHECRAFT_CORE_SHARD_EXEC_HPP
