/**
 * @file
 * The reference kernel: a fixed piece of host work the benchmark times
 * between its points to measure how fast the host is running.
 *
 * The benchmark's host is shared, and its speed drifts by tens of
 * percent over minutes with what its neighbours do. The kernel has the
 * simulator's host profile (an event heap, a set-associative tag
 * array sized like an L2, and misses into a large backing array), so
 * a slow phase of the host slows both alike. It uses only the
 * standard library: no change to the simulator can change its cost.
 * The end-to-end time metrics are scaled by its nominal / measured time
 * (perfbench/metrics.py).
 */

#ifndef PERFBENCH_REFERENCE_HPP
#define PERFBENCH_REFERENCE_HPP

namespace perfbench {

/** CPU seconds of one run of the reference kernel on each of
 *  @p threads threads at once, averaged over the threads. */
double referenceSeconds(unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HPP
