#include "workloads/workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace cachecraft {

namespace {

/** Region tags: distinct per array so tagged codecs are exercised. */
constexpr ecc::MemTag kTagA = 0x11;
constexpr ecc::MemTag kTagB = 0x22;
constexpr ecc::MemTag kTagC = 0x33;

/** A warp instruction with 32 consecutive 4 B lanes from @p base. */
WarpInst
coalescedInst(Addr base, bool is_write, Cycle compute)
{
    WarpInst inst;
    inst.isMem = true;
    inst.isWrite = is_write;
    inst.computeCycles = compute;
    inst.lanes.reserve(kWarpLanes);
    for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
        inst.lanes.push_back(base + lane * 4);
    return inst;
}

/** A warp instruction with per-lane explicit addresses. */
WarpInst
gatherInst(std::vector<Addr> lanes, bool is_write, Cycle compute)
{
    WarpInst inst;
    inst.isMem = true;
    inst.isWrite = is_write;
    inst.computeCycles = compute;
    inst.lanes = std::move(lanes);
    return inst;
}

/** A pure-compute instruction of @p cycles. */
WarpInst
computeInst(Cycle cycles)
{
    WarpInst inst;
    inst.computeCycles = cycles;
    return inst;
}

/**
 * SAXPY-style streaming: y[i] = a*x[i] + y[i]. Each warp sweeps
 * disjoint 128 B tiles of two arrays: load x, load y, store y.
 */
KernelTrace
makeStreaming(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "streaming";
    const std::size_t array = p.footprintBytes / 2;
    const Addr base_x = 0;
    const Addr base_y = array;
    trace.regions = {{base_x, array, kTagA}, {base_y, array, kTagB}};

    const std::size_t tiles = array / kLineBytes;
    trace.warps.resize(p.numWarps);
    for (unsigned w = 0; w < p.numWarps; ++w) {
        for (std::size_t t = w; t < tiles; t += p.numWarps) {
            const Addr off = static_cast<Addr>(t) * kLineBytes;
            trace.warps[w].push_back(
                coalescedInst(base_x + off, false, p.computeCycles));
            trace.warps[w].push_back(
                coalescedInst(base_y + off, false, p.computeCycles));
            trace.warps[w].push_back(
                coalescedInst(base_y + off, true, p.computeCycles));
        }
    }
    return trace;
}

/**
 * Fixed-stride sweep: lane i touches base + (i * stride). A 64 B
 * stride puts two lanes per sector -> 16 sector requests per warp
 * instruction, defeating coalescing without being fully random.
 */
KernelTrace
makeStrided(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "strided";
    const std::size_t array = p.footprintBytes;
    trace.regions = {{0, array, kTagA}};
    constexpr std::size_t stride = 64;
    const std::size_t span = kWarpLanes * stride;
    const std::size_t steps = array / span;

    trace.warps.resize(p.numWarps);
    for (unsigned w = 0; w < p.numWarps; ++w) {
        for (std::size_t step = w; step < steps; step += p.numWarps) {
            const Addr base = static_cast<Addr>(step) * span;
            std::vector<Addr> lanes;
            lanes.reserve(kWarpLanes);
            for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
                lanes.push_back(base + lane * stride);
            trace.warps[w].push_back(
                gatherInst(std::move(lanes), false, p.computeCycles));
        }
    }
    return trace;
}

/**
 * 5-point 2D stencil over a W x H float grid: out(x,y) = f(in(x,y),
 * in(x±1,y), in(x,y±1)). Neighbour rows give strong L1/L2 reuse.
 */
KernelTrace
makeStencil2d(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "stencil2d";
    // Square-ish grid of 4 B cells filling half the footprint per
    // array (in + out).
    const std::size_t cells = p.footprintBytes / 2 / 4;
    const std::size_t width =
        std::max<std::size_t>(kWarpLanes,
                              std::size_t(1)
                                  << log2Floor(std::uint64_t(
                                         std::sqrt(double(cells)))));
    const std::size_t height = cells / width;
    const std::size_t array = width * height * 4;
    const Addr base_in = 0;
    const Addr base_out = array;
    trace.regions = {{base_in, array, kTagA}, {base_out, array, kTagB}};

    trace.warps.resize(p.numWarps);
    std::size_t row_blocks = (width / kWarpLanes) * (height - 2);
    std::size_t block = 0;
    for (std::size_t y = 1; y + 1 < height; ++y) {
        for (std::size_t x = 0; x + kWarpLanes <= width;
             x += kWarpLanes, ++block) {
            auto &warp = trace.warps[block % p.numWarps];
            const Addr center = base_in + (y * width + x) * 4;
            const Addr north = center - width * 4;
            const Addr south = center + width * 4;
            warp.push_back(coalescedInst(center, false, p.computeCycles));
            warp.push_back(coalescedInst(north, false, 0));
            warp.push_back(coalescedInst(south, false, 0));
            // East/west: the same row shifted by one cell (extra
            // sector at the boundary, mostly L1 hits).
            if (x + kWarpLanes < width)
                warp.push_back(coalescedInst(center + 4, false, 0));
            if (x > 0)
                warp.push_back(coalescedInst(center - 4, false, 0));
            warp.push_back(coalescedInst(
                base_out + (y * width + x) * 4, true, p.computeCycles));
        }
    }
    (void)row_blocks;
    return trace;
}

/**
 * Tiled GEMM: C += A * B with 32x32 tiles. A and C stream per warp;
 * B tiles are shared across all warps (heavy L2 reuse). Compute-
 * dominant: each k-step models the MAC latency.
 */
KernelTrace
makeGemmTiled(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "gemm";
    // n x n float matrices sized so A+B+C fit ~1.5x footprint.
    const std::size_t n = std::size_t(1)
                          << log2Floor(std::uint64_t(std::sqrt(
                                 double(p.footprintBytes / 2 / 4))));
    const std::size_t matrix = n * n * 4;
    const Addr base_a = 0;
    const Addr base_b = matrix;
    const Addr base_c = 2 * matrix;
    trace.regions = {{base_a, matrix, kTagA},
                     {base_b, matrix, kTagB},
                     {base_c, matrix, kTagC}};

    constexpr std::size_t tile = 32;
    const std::size_t tiles = n / tile;
    trace.warps.resize(p.numWarps);
    std::size_t out_tile = 0;
    for (std::size_t ti = 0; ti < tiles; ++ti) {
        for (std::size_t tj = 0; tj < tiles; ++tj, ++out_tile) {
            auto &warp = trace.warps[out_tile % p.numWarps];
            for (std::size_t tk = 0; tk < tiles; ++tk) {
                // One row of the A tile and one row of the B tile per
                // k-step (the other 31 rows hit in L1 across steps of
                // the real inner loop; this models the DRAM-visible
                // stream).
                const Addr a_row =
                    base_a + ((ti * tile) * n + tk * tile) * 4;
                const Addr b_row =
                    base_b + ((tk * tile) * n + tj * tile) * 4;
                warp.push_back(coalescedInst(a_row, false,
                                             p.computeCycles));
                warp.push_back(coalescedInst(b_row, false, 0));
                warp.push_back(computeInst(16));
            }
            const Addr c_row = base_c + ((ti * tile) * n + tj * tile) * 4;
            warp.push_back(coalescedInst(c_row, false, 0));
            warp.push_back(coalescedInst(c_row, true, p.computeCycles));
        }
    }
    return trace;
}

/**
 * Matrix transpose: coalesced row reads, column writes that scatter
 * every lane into a different line — the write-path stress test.
 */
KernelTrace
makeTranspose(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "transpose";
    const std::size_t n = std::size_t(1)
                          << log2Floor(std::uint64_t(std::sqrt(
                                 double(p.footprintBytes / 2 / 4))));
    const std::size_t matrix = n * n * 4;
    const Addr base_in = 0;
    const Addr base_out = matrix;
    trace.regions = {{base_in, matrix, kTagA}, {base_out, matrix, kTagB}};

    trace.warps.resize(p.numWarps);
    std::size_t block = 0;
    for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x + kWarpLanes <= n;
             x += kWarpLanes, ++block) {
            auto &warp = trace.warps[block % p.numWarps];
            warp.push_back(coalescedInst(
                base_in + (y * n + x) * 4, false, p.computeCycles));
            std::vector<Addr> lanes;
            lanes.reserve(kWarpLanes);
            for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
                lanes.push_back(base_out + ((x + lane) * n + y) * 4);
            trace.warps[block % p.numWarps].push_back(
                gatherInst(std::move(lanes), true, 0));
            (void)warp;
        }
    }
    return trace;
}

/**
 * Tree reduction: log2(N) passes, each reading the previous pass's
 * output; later passes become cache resident.
 */
KernelTrace
makeReduction(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "reduction";
    const std::size_t array = p.footprintBytes;
    trace.regions = {{0, array, kTagA}};

    trace.warps.resize(p.numWarps);
    std::size_t active = array;
    while (active >= 2 * kLineBytes) {
        const std::size_t half = active / 2;
        const std::size_t tiles = half / kLineBytes;
        for (std::size_t t = 0; t < tiles; ++t) {
            auto &warp = trace.warps[t % p.numWarps];
            const Addr off = static_cast<Addr>(t) * kLineBytes;
            warp.push_back(coalescedInst(off, false, p.computeCycles));
            warp.push_back(coalescedInst(half + off, false, 0));
            warp.push_back(coalescedInst(off, true, 0));
        }
        active = half;
    }
    return trace;
}

/**
 * Histogram: stream the input, scatter increments into a small bin
 * array. Bins are read-modify-write (load + store), concentrated and
 * write-hot — the coalescing showcase for a write-back MRC.
 */
KernelTrace
makeHistogram(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "histogram";
    const std::size_t input = p.footprintBytes;
    constexpr std::size_t bins_bytes = 16 * 1024; // 4096 4 B bins
    const Addr base_bins = input;
    trace.regions = {{0, input, kTagA}, {base_bins, bins_bytes, kTagB}};

    Xoshiro256 rng(p.seed);
    const std::size_t tiles = input / kLineBytes;
    trace.warps.resize(p.numWarps);
    for (std::size_t t = 0; t < tiles; ++t) {
        auto &warp = trace.warps[t % p.numWarps];
        warp.push_back(coalescedInst(static_cast<Addr>(t) * kLineBytes,
                                     false, p.computeCycles));
        // Each lane updates a random bin; values cluster (Gaussian-
        // ish via sum of draws) so some bins are hot.
        std::vector<Addr> lanes;
        lanes.reserve(kWarpLanes);
        for (std::size_t lane = 0; lane < kWarpLanes; ++lane) {
            const std::uint64_t bin =
                (rng.below(bins_bytes / 8) + rng.below(bins_bytes / 8)) &
                (bins_bytes / 4 - 1);
            lanes.push_back(base_bins + bin * 4);
        }
        std::vector<Addr> store_lanes = lanes;
        warp.push_back(gatherInst(std::move(lanes), false, 0));
        warp.push_back(gatherInst(std::move(store_lanes), true, 0));
    }
    return trace;
}

/**
 * Uniform random gathers: every lane an independent 4 B load from
 * the whole footprint — the coalescing and locality worst case.
 */
KernelTrace
makeRandomAccess(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "random";
    const std::size_t array = p.footprintBytes;
    trace.regions = {{0, array, kTagA}};

    Xoshiro256 rng(p.seed);
    trace.warps.resize(p.numWarps);
    for (unsigned w = 0; w < p.numWarps; ++w) {
        for (unsigned i = 0; i < p.memInstsPerWarp; ++i) {
            std::vector<Addr> lanes;
            lanes.reserve(kWarpLanes);
            for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
                lanes.push_back(rng.below(array / 4) * 4);
            trace.warps[w].push_back(
                gatherInst(std::move(lanes), false, p.computeCycles));
        }
    }
    return trace;
}

/**
 * SpMV-like CSR traversal: coalesced reads of row values/indices plus
 * gathers of x[col] with a Zipf-hot head (a small set of columns
 * absorbs much of the traffic, as in power-law graphs).
 */
KernelTrace
makeSpmv(const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = "spmv";
    const std::size_t values = p.footprintBytes / 2;
    const std::size_t xvec = p.footprintBytes / 2;
    const Addr base_x = values;
    trace.regions = {{0, values, kTagA}, {base_x, xvec, kTagB}};

    Xoshiro256 rng(p.seed);
    const std::size_t hot = std::max<std::size_t>(1, xvec / 64);
    const std::size_t tiles = values / kLineBytes;
    trace.warps.resize(p.numWarps);
    for (std::size_t t = 0; t < tiles; ++t) {
        auto &warp = trace.warps[t % p.numWarps];
        // Row values + column indices (one stream stands for both).
        warp.push_back(coalescedInst(static_cast<Addr>(t) * kLineBytes,
                                     false, p.computeCycles));
        // Gather x[col]: 70 % of lanes hit the hot head.
        std::vector<Addr> lanes;
        lanes.reserve(kWarpLanes);
        for (std::size_t lane = 0; lane < kWarpLanes; ++lane) {
            const bool is_hot = rng.chance(0.7);
            const std::size_t pool = is_hot ? hot : xvec;
            lanes.push_back(base_x + rng.below(pool / 4) * 4);
        }
        warp.push_back(gatherInst(std::move(lanes), false, 0));
    }
    return trace;
}

} // namespace

const char *
toString(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kStreaming:
        return "streaming";
      case WorkloadKind::kStrided:
        return "strided";
      case WorkloadKind::kStencil2D:
        return "stencil2d";
      case WorkloadKind::kGemmTiled:
        return "gemm";
      case WorkloadKind::kTranspose:
        return "transpose";
      case WorkloadKind::kReduction:
        return "reduction";
      case WorkloadKind::kHistogram:
        return "histogram";
      case WorkloadKind::kRandomAccess:
        return "random";
      case WorkloadKind::kSpmv:
        return "spmv";
    }
    return "unknown";
}

std::optional<WorkloadKind>
parseWorkload(std::string_view name)
{
    for (WorkloadKind kind : allWorkloads()) {
        if (name == toString(kind))
            return kind;
    }
    return std::nullopt;
}

std::vector<WorkloadKind>
allWorkloads()
{
    return {WorkloadKind::kStreaming,  WorkloadKind::kStrided,
            WorkloadKind::kStencil2D,  WorkloadKind::kGemmTiled,
            WorkloadKind::kTranspose,  WorkloadKind::kReduction,
            WorkloadKind::kHistogram,  WorkloadKind::kRandomAccess,
            WorkloadKind::kSpmv};
}

KernelTrace
makeWorkload(WorkloadKind kind, const WorkloadParams &params)
{
    switch (kind) {
      case WorkloadKind::kStreaming:
        return makeStreaming(params);
      case WorkloadKind::kStrided:
        return makeStrided(params);
      case WorkloadKind::kStencil2D:
        return makeStencil2d(params);
      case WorkloadKind::kGemmTiled:
        return makeGemmTiled(params);
      case WorkloadKind::kTranspose:
        return makeTranspose(params);
      case WorkloadKind::kReduction:
        return makeReduction(params);
      case WorkloadKind::kHistogram:
        return makeHistogram(params);
      case WorkloadKind::kRandomAccess:
        return makeRandomAccess(params);
      case WorkloadKind::kSpmv:
        return makeSpmv(params);
    }
    panic("unknown workload kind");
}

} // namespace cachecraft
