#include "reference.hpp"

#include <atomic>
#include <cstdint>
#include <ctime>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

/** CPU seconds of the calling thread, as the benchmark times the
 *  simulator. */
double
threadCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Events per run of the kernel: about 0.18 CPU seconds on a 4-core
 *  Xeon VM. */
constexpr int kEvents = 1'000'000;
constexpr std::size_t kWays = 16;
constexpr std::size_t kTagEntries = (2u << 20) / sizeof(std::uint64_t);
constexpr std::size_t kStoreWords = (16u << 20) / sizeof(std::uint64_t);

/** Keeps the kernel's result live. */
std::atomic<std::uint64_t> gSink{0};

struct Event
{
    std::uint64_t time;
    std::uint64_t addr;
    bool operator>(const Event &o) const { return time > o.time; }
};

/** A small discrete-event model of a cache in front of memory; returns
 *  its CPU seconds, allocation excluded. */
double
runKernel()
{
    std::vector<std::uint64_t> tags(kTagEntries, ~std::uint64_t{0});
    std::vector<std::uint64_t> store(kStoreWords, 1);
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::uint64_t state = 88172645463325252ull;
    auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    std::uint64_t acc = 0;
    const double t0 = threadCpu();
    for (int i = 0; i < 2048; ++i)
        queue.push({next() % 1000, next()});
    for (int n = 0; n < kEvents; ++n) {
        const Event e = queue.top();
        queue.pop();
        const std::uint64_t line = e.addr >> 7;
        const std::size_t set =
            (line * 0x9E3779B97F4A7C15ull >> 40) % (kTagEntries / kWays);
        std::uint64_t *ways = &tags[set * kWays];
        std::size_t hit = kWays;
        for (std::size_t k = 0; k < kWays; ++k) {
            if (ways[k] == line) {
                hit = k;
                break;
            }
        }
        std::uint64_t delay;
        if (hit < kWays) {
            delay = 20 + (e.addr & 7);
            acc += hit;
        } else {
            ways[next() % kWays] = line;
            acc += store[(e.addr >> 3) % kStoreWords]++;
            delay = 200 + (e.addr & 63);
        }
        // Mostly sequential streams, with random jumps.
        const std::uint64_t addr = (next() & 3) ? e.addr + 128 : next();
        queue.push({e.time + delay, addr});
    }
    const double seconds = threadCpu() - t0;
    gSink += acc;
    return seconds;
}

} // namespace

double
referenceSeconds(unsigned threads)
{
    std::vector<double> seconds(threads);
    std::vector<std::thread> workers;
    for (unsigned t = 1; t < threads; ++t)
        workers.emplace_back([&seconds, t] { seconds[t] = runKernel(); });
    seconds[0] = runKernel();
    for (std::thread &worker : workers)
        worker.join();
    double total = 0.0;
    for (double s : seconds)
        total += s;
    return total / threads;
}

} // namespace perfbench
