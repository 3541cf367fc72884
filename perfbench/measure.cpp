/**
 * @file
 * perfbench_measure — host-time measurement of the simulator on one
 * benchmark workload, through the public library API (makeWorkload,
 * GpuSystem, campaign::runCampaign).
 *
 *   perfbench_measure --workload NAME --seed N --seconds S
 *                    [--trace 0|1] [--scratch DIR] [--pin 1]
 *   perfbench_measure --reference THREADS
 *
 * Prints one JSON document of raw samples on stdout; perfbench/run.py
 * turns it into metrics and checks the simulated outputs. The load is
 * a closed loop: one point at a time on one worker (the sweep runs its
 * campaign's own worker pool), rounds over the workload's point list
 * until S seconds have been measured. The first point is an untimed
 * warm-up, reported on its own. The sweep also runs and audits every
 * grid point once, untimed, before its rounds: the campaign's own runs
 * cannot be audited from outside.
 *
 * Between points (the sweep: between its setup and campaign passes) it
 * times the reference kernel (reference.hpp); the samples just before
 * and after a unit of work measure the host's speed while it ran. Each
 * sample runs in a child process, --reference THREADS, which prints
 * the kernel's seconds: its memory then neither counts toward the
 * measured peak RSS nor changes the simulator's heap.
 *
 * With --trace 1 the program instead runs every closure point untraced
 * and traced (host-profiler zones on), and times the per-layer replays
 * (replay.hpp) on that point's own trace and configuration.
 *
 * With --pin 1 it runs every distinct point once (for the sweep, one
 * campaign pass plus its closure points) so perfbench/pin.py can
 * record their deterministic counters.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "core/gpu_system.hpp"
#include "ecc/simd_dispatch.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "telemetry/host_profiler.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cachecraft;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * CPU seconds of the calling thread: the host time it actually ran.
 * On a shared host a thread also waits for a CPU, inside the VM or
 * (as steal time) outside it; wall time counts those waits, this clock
 * does not.
 */
double
threadCpu()
{
    return cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

/** CPU seconds of every thread of this process (not of its children). */
double
processCpu()
{
    return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

/** One (kernel, scheme) point of a GpuSystem-driven workload. */
struct PointSpec
{
    WorkloadKind kind;
    SchemeKind scheme;
};

unsigned
parallelism()
{
    return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

/** The points of a benchmark workload; an empty list means the e1
 *  campaign. */
std::optional<std::vector<PointSpec>>
workloadByName(const std::string &name)
{
    if (name == "irregular-read")
        return std::vector<PointSpec>{
            {WorkloadKind::kRandomAccess, SchemeKind::kCacheCraft},
            {WorkloadKind::kSpmv, SchemeKind::kCacheCraft}};
    if (name == "write-mix")
        return std::vector<PointSpec>{
            {WorkloadKind::kTranspose, SchemeKind::kInlineNaive},
            {WorkloadKind::kTranspose, SchemeKind::kCacheCraft},
            {WorkloadKind::kHistogram, SchemeKind::kInlineNaive},
            {WorkloadKind::kHistogram, SchemeKind::kCacheCraft}};
    if (name == "sweep")
        return std::vector<PointSpec>{};
    return std::nullopt;
}

/** The e1 sizing every workload runs at. */
WorkloadParams
e1Params(std::uint64_t seed)
{
    WorkloadParams p;
    p.footprintBytes = 4 * 1024 * 1024;
    p.numWarps = 256;
    p.memInstsPerWarp = 48;
    p.seed = seed;
    return p;
}

/** The e1_headline grid (bench/campaigns/e1_headline.json) at @p seed,
 *  embedded so the benchmark's input cannot drift with that file. */
std::string
sweepSpec(std::uint64_t seed)
{
    return strCat(
        R"({"schema":"cachecraft.campaign_spec/1","name":"e1_headline",)",
        R"("base":{"footprint_mib":4,"warps":256,"mem_insts":48,"seed":)",
        seed,
        R"(},"grid":{"workload":["streaming","strided","stencil2d",)",
        R"("gemm","transpose","reduction","histogram","random","spmv"],)",
        R"("scheme":["no-ecc","inline-naive","ecc-cache","cachecraft"]}})");
}

campaign::CampaignSpec
parseSweep(std::uint64_t seed)
{
    std::string error;
    auto spec = campaign::parseCampaignSpec(sweepSpec(seed), &error);
    if (!spec) {
        std::fprintf(stderr, "perfbench: bad sweep spec: %s\n",
                     error.c_str());
        std::exit(2);
    }
    return *spec;
}

/** The closure subset of the sweep: one point per regime of the grid
 *  (compute-bound, stencil without ECC, L2-miss-bound, write). */
std::vector<PointSpec>
sweepClosurePoints()
{
    return {{WorkloadKind::kGemmTiled, SchemeKind::kCacheCraft},
            {WorkloadKind::kStencil2D, SchemeKind::kNone},
            {WorkloadKind::kRandomAccess, SchemeKind::kCacheCraft},
            {WorkloadKind::kTranspose, SchemeKind::kInlineNaive}};
}

SystemConfig
pointConfig(SchemeKind scheme, bool host_profile)
{
    SystemConfig config;
    config.scheme = scheme;
    config.telemetry.hostProfileEnabled = host_profile;
    return config;
}

std::string
labelOf(const PointSpec &p)
{
    return strCat(toString(p.kind), "/", toString(p.scheme));
}

/** Sum of every registered stat whose name ends in one of @p suffixes. */
double
sumStats(const RunStats &rs, std::initializer_list<const char *> suffixes)
{
    double total = 0.0;
    for (const auto &[name, value] : rs.all) {
        for (const char *suffix : suffixes) {
            if (name.ends_with(suffix))
                total += value;
        }
    }
    return total;
}

/** Deterministic counters pinned per point (see perfbench/pins.json). */
void
writeCounters(JsonWriter &w, const RunStats &rs)
{
    w.key("counters").beginObject();
    w.key("cycles").value(std::uint64_t{rs.cycles});
    w.key("events").value(rs.simThroughput.eventsExecuted);
    w.key("peak_queue_depth").value(rs.simThroughput.peakQueueDepth);
    w.key("instructions").value(rs.instructions);
    w.key("dram_data_reads").value(rs.dramDataReads);
    w.key("dram_data_writes").value(rs.dramDataWrites);
    w.key("dram_ecc_reads").value(rs.dramEccReads);
    w.key("dram_ecc_writes").value(rs.dramEccWrites);
    w.key("dram_ecc_rmw_reads").value(rs.dramEccRmwReads);
    w.key("dram_total_txns").value(rs.dramTotalTxns);
    w.key("l2_sector_hits").value(rs.l2SectorHits);
    w.key("l2_sector_misses").value(rs.l2SectorMisses);
    w.key("mrc_hits").value(rs.mrcHits);
    w.key("mrc_misses").value(rs.mrcMisses);
    w.key("mrc_fetch_merges").value(rs.mrcFetchMerges);
    w.key("mrc_dirty_evictions").value(rs.mrcDirtyEvictions);
    w.key("decode_clean").value(rs.decodeClean);
    w.key("decode_corrected").value(rs.decodeCorrected);
    w.key("decode_uncorrectable").value(rs.decodeUncorrectable);
    w.key("decode_tag_mismatch").value(rs.decodeTagMismatch);
    w.endObject();
    w.key("row_hit_rate").value(rs.rowHitRate);
    w.key("cache_accesses")
        .value(sumStats(rs, {".l1.accesses", ".cache.accesses",
                             ".mrc.accesses"}));
    w.key("cache_fills")
        .value(sumStats(rs, {".l1.fills", ".cache.fills", ".mrc.fills"}));
}

/** The samples of one point's setup, run and audit. */
struct PointRun
{
    std::string label;
    double makeS = 0, constructS = 0, initS = 0, runS = 0, auditS = 0;
    double totalS = 0; //!< make through audit
    RunStats rs;
    AuditResult audit;
    std::uint64_t arenaPeak = 0;
    std::uint64_t initChunks = 0;
};

/** Setup, run and audit of one point on a fresh GpuSystem, timed in
 *  the calling thread's CPU seconds (a serial GpuSystem runs entirely
 *  in the calling thread). */
PointRun
measurePoint(std::string label, WorkloadKind kind,
             const WorkloadParams &params, const SystemConfig &config)
{
    PointRun out;
    out.label = std::move(label);
    const double t0 = threadCpu();
    double last = t0;
    auto lap = [&last] {
        const double now = threadCpu();
        return now - std::exchange(last, now);
    };
    {
        const KernelTrace trace = makeWorkload(kind, params);
        out.makeS = lap();
        GpuSystem gpu(config);
        out.constructS = lap();
        gpu.initialize(trace);
        out.initS = lap();
        out.rs = gpu.run(trace);
        out.runS = lap();
        out.audit = gpu.auditMemory();
        out.auditS = lap();
        out.arenaPeak = gpu.arenas().peakLiveTotal();
        // Chunks initialize() encoded: every region, when protected.
        if (config.scheme != SchemeKind::kNone) {
            for (const TaggedRegion &region : trace.regions)
                out.initChunks += region.size / kChunkBytes;
        }
    }
    out.totalS = threadCpu() - t0;
    return out;
}

void
writePoint(JsonWriter &w, const PointRun &p)
{
    w.beginObject();
    w.key("label").value(p.label);
    w.key("status").value("ok");
    w.key("make_s").value(p.makeS);
    w.key("construct_s").value(p.constructS);
    w.key("init_s").value(p.initS);
    w.key("setup_s").value(p.makeS + p.constructS + p.initS);
    w.key("run_s").value(p.runS);
    w.key("audit_s").value(p.auditS);
    w.key("total_s").value(p.totalS);
    w.key("arena_peak_slots").value(p.arenaPeak);
    w.key("init_chunks").value(p.initChunks);
    w.key("warnings").value(std::uint64_t{p.rs.warnings.size()});
    writeCounters(w, p.rs);
    w.key("audit").beginObject();
    w.key("sectors").value(p.audit.sectors);
    w.key("corrected").value(p.audit.corrected);
    w.key("uncorrectable").value(p.audit.uncorrectable);
    w.key("silent").value(p.audit.silentCorruptions);
    w.endObject();
    w.endObject();
}

/** measurePoint on one point of a GpuSystem workload; writes the
 *  point's samples and returns its statistics. */
RunStats
runPoint(JsonWriter &w, const PointSpec &p, const WorkloadParams &params,
         bool host_profile)
{
    PointRun run = measurePoint(labelOf(p), p.kind, params,
                                pointConfig(p.scheme, host_profile));
    writePoint(w, run);
    return std::move(run.rs);
}

/**
 * Every point of the sweep grid run and audited once on its own
 * GpuSystem, on the campaign's worker count. The campaign runs own
 * their GpuSystems, so this is where each grid input gets its audit.
 */
void
auditGrid(JsonWriter &w, const campaign::CampaignSpec &spec)
{
    const auto t0 = Clock::now();
    std::vector<const campaign::CampaignPoint *> todo;
    for (const campaign::CampaignPoint &point : spec.points) {
        if (point.expandError.empty())
            todo.push_back(&point);
    }
    std::vector<PointRun> runs(todo.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < parallelism(); ++t) {
        workers.emplace_back([&] {
            for (std::size_t i; (i = next++) < todo.size();) {
                const campaign::CampaignPoint &point = *todo[i];
                runs[i] = measurePoint(point.label, point.workload,
                                       point.params, point.config);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    w.beginObject();
    w.key("wall_s").value(secondsSince(t0));
    w.key("points").beginArray();
    for (const PointRun &run : runs)
        writePoint(w, run);
    w.endArray();
    w.endObject();
}

/** Setup passes per sweep run; setup_s is the median of their means. */
constexpr unsigned kSweepSetupPasses = 5;

/** Setup alone (make + construct + initialize) of every sweep point,
 *  serially. */
void
setupPass(JsonWriter &w, const campaign::CampaignSpec &spec)
{
    w.beginArray();
    for (const campaign::CampaignPoint &point : spec.points) {
        if (!point.expandError.empty())
            continue;
        const double t0 = threadCpu();
        const KernelTrace trace =
            makeWorkload(point.workload, point.params);
        const double t1 = threadCpu();
        GpuSystem gpu(point.config);
        const double t2 = threadCpu();
        gpu.initialize(trace);
        const double t3 = threadCpu();
        const double make_s = t1 - t0;
        const double construct_s = t2 - t1;
        const double init_s = t3 - t2;
        w.beginObject();
        w.key("label").value(point.label);
        w.key("make_s").value(make_s);
        w.key("construct_s").value(construct_s);
        w.key("init_s").value(init_s);
        w.key("setup_s").value(make_s + construct_s + init_s);
        w.endObject();
    }
    w.endArray();
}

/**
 * The counters of a campaign point's run report: its "results"
 * section plus the per-slice MRC and RMW counters summed, which the
 * results give only as ratios. Empty when the report is unreadable.
 */
std::map<std::string, double>
reportCounters(const fs::path &path)
{
    std::map<std::string, double> out;
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = jsonParse(text.str());
    const JsonValue *results = doc ? doc->find("results") : nullptr;
    const JsonValue *stats = doc ? doc->find("stats") : nullptr;
    const JsonValue *counters = stats ? stats->find("counters") : nullptr;
    if (!results || !counters)
        return out;
    for (const auto &[key, value] : results->asObject()) {
        if (value.isNumber())
            out[key] = value.asNumber();
    }
    const std::pair<const char *, const char *> summed[] = {
        {".mrc_hits", "mrc_hits"},
        {".mrc_misses", "mrc_misses"},
        {".mrc_fetch_merges", "mrc_fetch_merges"},
        {".ecc_rmw_reads", "dram_ecc_rmw_reads"}};
    for (const auto &[suffix, name] : summed) {
        double sum = 0.0;
        for (const auto &[key, value] : counters->asObject()) {
            if (key.ends_with(suffix))
                sum += value.asNumber();
        }
        out[name] = sum;
    }
    return out;
}

/**
 * The run's reference-kernel samples, in time order. Each runs on the
 * workload's worker count in a child process of this program
 * (--reference THREADS), outside the timed work.
 */
class HostSampler
{
  public:
    HostSampler(const char *self, unsigned threads)
        : self_(self), threads_(threads)
    {
    }

    /** Takes one sample; returns the wall seconds it took. */
    double
    sample()
    {
        const auto t0 = Clock::now();
        samples_.push_back(runChild());
        return secondsSince(t0);
    }

    /** Index of the latest sample. */
    std::size_t latest() const { return samples_.size() - 1; }

    /** Writes "reference_s": the samples from index @p from on, so a
     *  unit of work records the samples just before and after it. */
    void
    write(JsonWriter &w, std::size_t from) const
    {
        w.key("reference_s").beginArray();
        for (std::size_t i = from; i < samples_.size(); ++i)
            w.value(samples_[i]);
        w.endArray();
    }

    unsigned threads() const { return threads_; }

  private:
    double
    runChild() const
    {
        int fds[2];
        if (pipe(fds) != 0) {
            std::perror("perfbench: pipe");
            std::exit(1);
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&actions, fds[0]);
        posix_spawn_file_actions_addclose(&actions, fds[1]);
        std::string count = std::to_string(threads_);
        char flag[] = "--reference";
        char *child_argv[] = {const_cast<char *>(self_), flag, count.data(),
                              nullptr};
        pid_t pid = 0;
        const int rc = posix_spawn(&pid, self_, &actions, nullptr,
                                   child_argv, environ);
        posix_spawn_file_actions_destroy(&actions);
        close(fds[1]);
        std::string out;
        char buf[64];
        for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
            out.append(buf, std::size_t(n));
        close(fds[0]);
        int status = 0;
        if (rc != 0 || waitpid(pid, &status, 0) != pid ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
            std::fprintf(stderr, "perfbench: reference kernel failed\n");
            std::exit(1);
        }
        return std::strtod(out.c_str(), nullptr);
    }

    const char *self_;
    unsigned threads_;
    std::vector<double> samples_;
};

/** One whole campaign pass over the sweep grid. */
void
runSweepPass(JsonWriter &w, const campaign::CampaignSpec &spec,
             const fs::path &scratch, bool trace_extras,
             HostSampler *host = nullptr)
{
    const std::size_t first_sample = host ? host->latest() : 0;
    fs::remove_all(scratch);
    campaign::RunnerOptions options;
    options.outDir = scratch.string();
    options.jobs = parallelism();
    options.progress = nullptr;
    const auto t0 = Clock::now();
    const double cpu0 = processCpu();
    const campaign::CampaignResult result =
        campaign::runCampaign(spec, options);
    const double cpu_s = processCpu() - cpu0;
    const double wall_s = secondsSince(t0);
    if (host)
        host->sample();
    double busy_s = 0.0;
    for (const campaign::PointOutcome &o : result.outcomes)
        busy_s += o.wallSeconds;

    w.beginObject();
    w.key("wall_s").value(wall_s);
    // CPU the workers got, and the wall time they were busy for.
    w.key("cpu_s").value(cpu_s);
    w.key("busy_s").value(busy_s);
    if (host)
        host->write(w, first_sample);
    w.key("jobs").value(std::uint64_t{result.jobs});
    if (trace_extras) {
        const auto t1 = Clock::now();
        campaign::renderCampaignManifest(spec, result);
        w.key("manifest_render_s").value(secondsSince(t1));
    }
    w.key("points").beginArray();
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const campaign::PointOutcome &o = result.outcomes[i];
        const bool ran = o.status == campaign::PointStatus::kOk;
        const auto counters =
            ran ? reportCounters(scratch / o.reportFile)
                : std::map<std::string, double>{};
        w.beginObject();
        w.key("label").value(spec.points[i].label);
        if (ran && counters.empty()) {
            w.key("status").value("failed");
            w.key("error").value("unreadable run report");
        } else {
            w.key("status").value(campaign::toString(o.status));
            w.key("error").value(o.error);
        }
        w.key("wall_s").value(o.wallSeconds);
        // Host seconds inside GpuSystem::run, as the run measured them;
        // wall_s also covers setup and writing the report.
        w.key("run_s").value(o.hostEventsPerSec > 0.0
                                 ? double(o.eventsExecuted) /
                                       o.hostEventsPerSec
                                 : o.wallSeconds);
        w.key("arena_peak_slots").value(o.arenaPeakSlots);
        w.key("warnings").value(std::uint64_t{o.warnings.size()});
        w.key("counters").beginObject();
        w.key("cycles").value(std::uint64_t{o.cycles});
        w.key("events").value(o.eventsExecuted);
        for (const auto &[key, value] : counters) {
            if (key != "cycles")
                w.key(key).value(value);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    fs::remove_all(scratch);
}

/** Zone self/inclusive time and count, merged by name over all paths. */
struct ZoneTotal
{
    std::uint64_t count = 0;
    std::uint64_t selfNs = 0;
    std::uint64_t inclusiveNs = 0;
};

void
mergeZones(const telemetry::HostZoneNode &node,
           std::map<std::string, ZoneTotal> &out)
{
    for (const telemetry::HostZoneNode &child : node.children) {
        ZoneTotal &t = out[child.name];
        t.count += child.count;
        t.selfNs += child.exclusiveNs;
        t.inclusiveNs += child.inclusiveNs;
        mergeZones(child, out);
    }
}

/**
 * One closure sample of a point: an untraced run, a traced run with
 * its host-profiler zones, and the layer replays on the same inputs.
 */
void
closurePoint(JsonWriter &w, const PointSpec &p, const WorkloadParams &params)
{
    w.beginObject();
    w.key("label").value(labelOf(p));
    w.key("untraced");
    const RunStats rs = runPoint(w, p, params, false);

    telemetry::HostProfiler::reset();
    telemetry::HostProfileOptions prof;
    prof.counters = false; // counter reads would add syscalls per zone
    telemetry::HostProfiler::retain(prof);
    w.key("traced");
    runPoint(w, p, params, true);
    const telemetry::HostProfileSnapshot snap =
        telemetry::HostProfiler::snapshot();
    telemetry::HostProfiler::release();
    telemetry::HostProfiler::reset();
    std::map<std::string, ZoneTotal> zones;
    mergeZones(snap.root, zones);
    w.key("zones").beginObject();
    for (const auto &[name, t] : zones) {
        w.key(name).beginObject();
        w.key("count").value(t.count);
        w.key("self_s").value(double(t.selfNs) * 1e-9);
        w.key("inclusive_s").value(double(t.inclusiveNs) * 1e-9);
        w.endObject();
    }
    w.endObject();

    // Replays run on the point's own trace and configuration, with
    // the profiler off.
    const KernelTrace trace = makeWorkload(p.kind, params);
    const SystemConfig config = pointConfig(p.scheme, false);
    const std::uint64_t depth = rs.simThroughput.peakQueueDepth;
    // Little's law: depth events pending at the run's event rate stay
    // depth / rate cycles on average.
    const std::uint64_t mean_delta =
        rs.simThroughput.eventsExecuted
            ? depth * rs.cycles / rs.simThroughput.eventsExecuted
            : 1;
    const double queue_ns = perfbench::replayEventQueue(depth, mean_delta);
    const perfbench::CacheCost cache = perfbench::replayCache(trace, config);
    const perfbench::DramCost dram =
        perfbench::replayDram(cache.dramStream, config);
    const perfbench::CodecCost codec = perfbench::replayCodec(trace, config);
    const std::size_t domains = config.numSms + config.dram.numChannels;
    // The workloads run serially: one thread meets every barrier.
    const double barrier = perfbench::replayBarrier(1, domains);
    // What the same barrier costs a sharded run on this host.
    const double barrier_sharded =
        perfbench::replayBarrier(parallelism(), domains);

    w.key("replay").beginObject();
    w.key("queue_ns_per_event").value(queue_ns);
    w.key("cache_access_ns").value(cache.accessNs);
    w.key("cache_fill_ns").value(cache.fillNs);
    w.key("cache_replay_accesses").value(cache.accesses);
    w.key("cache_replay_fills").value(cache.fills);
    w.key("dram_txn_ns").value(dram.txnNs);
    w.key("dram_events_per_txn").value(dram.eventsPerTxn);
    w.key("dram_replay_txns").value(dram.txns);
    w.key("ecc_encode_chunk_ns").value(codec.encodeChunkNs);
    w.key("ecc_decode_chunk_ns").value(codec.decodeChunkNs);
    w.key("ecc_replay_clean").value(codec.decodedClean);
    w.key("barrier_ns").value(barrier);
    w.key("barrier_ns_sharded").value(barrier_sharded);
    w.endObject();
    w.endObject();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool pin = false;
    std::string scratch = ".bench_build/perfbench-scratch";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_measure: %s\n"
                 "usage: perfbench_measure --workload "
                 "irregular-read|write-mix|sweep\n"
                 "       --seed N --seconds S [--trace 0|1]"
                 " [--scratch DIR] [--pin 1]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace" || flag == "--pin") {
            if (v != "0" && v != "1")
                usage("--trace and --pin take 0 or 1");
            (flag == "--trace" ? a.trace : a.pin) = v == "1";
        } else if (flag == "--scratch") {
            a.scratch = v;
        } else {
            usage("unknown flag");
        }
        if (end != nullptr && *end != '\0')
            usage("bad number");
    }
    if (a.workload.empty() || a.seconds <= 0.0)
        usage("--workload and a positive --seconds are required");
    return a;
}

/** Rounds of @p body until @p seconds are spent: a new round starts
 *  only while the time left covers half an average round. */
template <class Body>
void
loopRounds(double seconds, Body body)
{
    const auto t0 = Clock::now();
    for (unsigned r = 0;; ++r) {
        const double spent = secondsSince(t0);
        if (r >= 1 && spent + 0.5 * spent / r >= seconds)
            break;
        body();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::string(argv[1]) == "--reference") {
        const unsigned threads = unsigned(std::strtoul(argv[2], nullptr, 10));
        std::printf("%.9f\n",
                    perfbench::referenceSeconds(std::max(1u, threads)));
        return 0;
    }
    const Args args = parseArgs(argc, argv);
    const auto def = workloadByName(args.workload);
    if (!def)
        usage("unknown workload");
    const WorkloadParams params = e1Params(args.seed);
    const bool sweep = def->empty();
    const fs::path scratch =
        fs::path(args.scratch) / strCat(args.workload, "-", args.seed);

    JsonWriter w(std::cout);
    w.beginObject();
    w.key("schema").value("perfbench.raw/1");
    w.key("workload").value(args.workload);
    w.key("seed").value(args.seed);
    w.key("seconds").value(args.seconds);
    w.key("trace").value(args.trace);
    w.key("provenance").beginObject();
    w.key("nproc").value(
        std::uint64_t{std::thread::hardware_concurrency()});
    w.key("compiler").value(strCat(
#if defined(__clang__)
        "clang ",
#elif defined(__GNUC__)
        "gcc ",
#endif
        __VERSION__));
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("simd_tier").value(ecc::toString(ecc::activeTier()));
    w.key("jobs").value(std::uint64_t{sweep ? parallelism() : 1u});
    w.endObject();

    const std::vector<PointSpec> points = sweep ? sweepClosurePoints() : *def;
    w.key("warmup");
    runPoint(w, points.front(), params, false);

    // Host-speed samples of an untraced run.
    HostSampler host(argv[0], sweep ? parallelism() : 1u);

    if (args.pin) {
        w.key("rounds").beginArray();
        if (sweep)
            runSweepPass(w, parseSweep(args.seed), scratch, false);
        const auto t0 = Clock::now();
        w.beginObject();
        w.key("points").beginArray();
        for (const PointSpec &p : points)
            runPoint(w, p, params, false);
        w.endArray();
        w.key("wall_s").value(secondsSince(t0));
        w.endObject();
        w.endArray();
    } else if (args.trace) {
        w.key("closure").beginArray();
        loopRounds(args.seconds, [&] {
            for (const PointSpec &p : points)
                closurePoint(w, p, params);
        });
        w.endArray();
        if (sweep) {
            w.key("campaign");
            runSweepPass(w, parseSweep(args.seed), scratch, true);
        }
    } else if (sweep) {
        const campaign::CampaignSpec spec = parseSweep(args.seed);
        // A fixed number of setup passes, all at the same place in the
        // run: the allocator's state, which setup time depends on,
        // drifts over a process's lifetime, so passes interleaved with
        // a varying number of rounds would read differently.
        host.sample();
        w.key("setup").beginArray();
        for (unsigned i = 0; i < kSweepSetupPasses; ++i) {
            const std::size_t first_sample = host.latest();
            w.beginObject();
            w.key("points");
            setupPass(w, spec);
            host.sample();
            host.write(w, first_sample);
            w.endObject();
        }
        w.endArray();
        w.key("grid_audit");
        auditGrid(w, spec);
        host.sample();
        w.key("rounds").beginArray();
        loopRounds(args.seconds,
                   [&] { runSweepPass(w, spec, scratch, false, &host); });
        w.endArray();
    } else {
        host.sample();
        w.key("rounds").beginArray();
        loopRounds(args.seconds, [&] {
            const std::size_t first_sample = host.latest();
            const auto t0 = Clock::now();
            const double cpu0 = processCpu();
            double sampling_s = 0.0;
            w.beginObject();
            w.key("points").beginArray();
            for (const PointSpec &p : points) {
                runPoint(w, p, params, false);
                sampling_s += host.sample();
            }
            w.endArray();
            // The round's own wall time, host sampling left out; its
            // one worker was busy all of it.
            const double wall_s = secondsSince(t0) - sampling_s;
            w.key("wall_s").value(wall_s);
            w.key("cpu_s").value(processCpu() - cpu0);
            w.key("busy_s").value(wall_s);
            // Point i lies between samples i and i + 1 of the list.
            host.write(w, first_sample);
            w.endObject();
        });
        w.endArray();
    }
    if (!args.trace && !args.pin)
        w.key("reference_threads").value(std::uint64_t{host.threads()});
    w.key("peak_rss_kib").value(telemetry::hostPeakRssKib());
    w.endObject();
    std::cout << '\n';
    return 0;
}
