/**
 * @file
 * cachecraft_sim — the command-line simulator.
 *
 * Runs one workload (built-in kernel or a trace file) on one
 * configuration and prints the run report; optionally dumps the
 * generated trace, the full statistics as CSV, and the energy model.
 *
 *   cachecraft_sim --workload random --scheme cachecraft --energy
 *   cachecraft_sim --trace my.trace --scheme inline-naive
 *   cachecraft_sim --workload gemm --dump-trace gemm.trace
 *
 * Run with --help for the full flag list.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.hpp"
#include "core/cachecraft.hpp"
#include "stats/energy.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/lifecycle.hpp"
#include "workloads/trace_io.hpp"

#include "cli.hpp"

using namespace cachecraft;

namespace {

/** The run-point knobs this tool exposes as flags. */
constexpr std::string_view kKnobs[] = {
    "workload",        "footprint_mib",     "warps",
    "mem_insts",       "seed",              "scheme",
    "codec",           "sms",               "l2_kib",
    "mrc_kib",         "chunk_granularity", "writeback_mrc",
    "co_located_layout", "gto",             "l2_whole_line",
    "sample_interval", "profile",           "profile_interval",
    "flight_capacity", "reuse_profile",     "reuse_max_assoc"};

void
usage()
{
    std::printf(
        "cachecraft_sim — GPU memory-protection simulator\n"
        "\n"
        "workload (a built-in kernel, or --trace):\n"
        "%s"
        "  --trace FILE        load a trace file (see trace_io.hpp)\n"
        "\n"
        "system configuration:\n"
        "%s"
        "\n"
        "output:\n"
        "  --dump-trace FILE   write the workload trace and exit\n"
        "  --list-stats        print the sorted names of every\n"
        "                      statistic this configuration registers\n"
        "                      and exit (no simulation)\n"
        "  --stats-csv FILE    write every statistic as CSV\n"
        "  --energy            print the energy model breakdown\n"
        "  --quiet             suppress the configuration block\n"
        "  --log-level L       silent | warn | info | debug (warn)\n"
        "\n"
        "telemetry:\n"
        "%s"
        "  --epochs-csv FILE   write the epoch series as CSV\n"
        "  --trace-json FILE   record the memory-request lifecycle and\n"
        "                      write Chrome trace_event JSON (open in\n"
        "                      chrome://tracing or Perfetto); turns\n"
        "                      the flight recorder on and fills the\n"
        "                      telemetry.stage.* latency histograms\n"
        "                      from it (the JSON covers the records\n"
        "                      the ring retains: see --flight-capacity)\n"
        "  --report-json FILE  write the full machine-readable run\n"
        "                      report (manifest + config + stats)\n"
        "  --flight-record FILE enable the binary flight recorder and\n"
        "                      write its dump (analyze with\n"
        "                      cachecraft_trace); adds a\n"
        "                      \"critical_path\" report section\n"
        "  --host-profile FILE enable the host wall-clock zone\n"
        "                      profiler and write its JSON artifact\n"
        "                      (schema cachecraft.hostprof/1; see the\n"
        "                      dedicated cachecraft_hostprof tool for\n"
        "                      trees, folded stacks, and flamegraphs)\n"
        "  --progress N        heartbeat: print cycles and events/s to\n"
        "                      stderr every N simulated cycles (off by\n"
        "                      default; output is stderr-only so\n"
        "                      reports stay byte-identical)\n"
        "  --shards N          engine worker threads (default 1). The\n"
        "                      run is bit-identical at every value —\n"
        "                      the engine always executes the same\n"
        "                      fixed domain decomposition under the\n"
        "                      same epoch-barrier schedule; this only\n"
        "                      sets how many threads drain it\n"
        "\n"
        "Campaign specs take the same knobs by their spec names\n"
        "(cachecraft_sweep --list-knobs).\n",
        cli::toolKnobHelp(kKnobs, KnobGroup::kWorkload).c_str(),
        cli::toolKnobHelp(kKnobs, KnobGroup::kSystem).c_str(),
        cli::toolKnobHelp(kKnobs, KnobGroup::kTelemetry).c_str());
}

std::optional<LogLevel>
parseLogLevel(const std::string &s)
{
    if (s == "silent")
        return LogLevel::Silent;
    if (s == "warn")
        return LogLevel::Warn;
    if (s == "info")
        return LogLevel::Info;
    if (s == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ToolPoint point;
    SystemConfig &config = point.config;
    const WorkloadParams &wparams = point.params;
    std::string trace_path;
    std::string dump_path;
    std::string csv_path;
    std::string trace_json_path;
    std::string report_json_path;
    std::string epochs_csv_path;
    std::string flight_path;
    std::string host_profile_path;
    Cycle progress_interval = 0;
    unsigned shards = 1;
    bool want_energy = false;
    bool quiet = false;
    bool list_stats = false;

    cli::Args args("cachecraft_sim", 1, argc, argv);
    auto enable = [&](std::string_view knob) {
        applyKnobText(point.target(), knob, "true", nullptr);
    };
    while (args.next()) {
        const std::string flag = args.arg();
        if (args.knob(point.target(), kKnobs))
            continue;
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--trace") {
            trace_path = args.value();
        } else if (flag == "--dump-trace") {
            dump_path = args.value();
        } else if (flag == "--list-stats") {
            list_stats = true;
        } else if (flag == "--stats-csv") {
            csv_path = args.value();
        } else if (flag == "--epochs-csv") {
            epochs_csv_path = args.value();
        } else if (flag == "--trace-json") {
            trace_json_path = args.value();
            config.telemetry.traceEnabled = true;
        } else if (flag == "--report-json") {
            report_json_path = args.value();
        } else if (flag == "--flight-record") {
            flight_path = args.value();
            enable("flight_recorder");
        } else if (flag == "--host-profile") {
            host_profile_path = args.value();
            enable("host_profile");
        } else if (flag == "--progress") {
            progress_interval = args.count(true);
        } else if (flag == "--shards") {
            shards = static_cast<unsigned>(
                args.count(true, cli::kMaxUnsigned));
        } else if (flag == "--log-level") {
            const auto level = parseLogLevel(args.value());
            if (!level)
                args.fail("unknown log level (see --help)");
            setLogLevel(*level);
        } else if (flag == "--energy") {
            want_energy = true;
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            args.fail("unknown flag " + flag + " (see --help)");
        }
    }

    if (list_stats) {
        // Stat registration happens at construction, so the sorted
        // name dump needs no simulation — but it does honor the
        // configuration flags (scheme/sms/... change what exists).
        GpuSystem gpu(config);
        for (const auto &[name, value] : gpu.statsRegistry().flatten())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    // Build the trace.
    KernelTrace trace;
    if (!trace_path.empty()) {
        std::string error;
        trace = loadTraceFile(trace_path, &error);
        if (!error.empty())
            fatal(error);
    } else {
        trace = makeWorkload(point.workload, wparams);
    }

    if (!dump_path.empty()) {
        if (!saveTraceFile(trace, dump_path))
            fatal("cannot write " + dump_path);
        std::printf("wrote %s (%llu insts)\n", dump_path.c_str(),
                    static_cast<unsigned long long>(trace.totalInsts()));
        return 0;
    }

    cli::requireInstructions(trace);

    if (!epochs_csv_path.empty() && config.telemetry.sampleInterval == 0)
        fatal("--epochs-csv needs --sample-interval");
    const std::pair<bool, const char *> traced[] = {
        {!trace_json_path.empty(), "the trace will be empty"},
        {config.telemetry.profileEnabled, "--profile has no effect"},
        {!flight_path.empty(), "the flight dump will be empty"},
        {config.telemetry.reuseProfileEnabled,
         "--reuse-profile has no effect"},
        {!host_profile_path.empty(), "the host profile will be empty"}};
    for (const auto &[on, effect] : traced) {
        if (on && !telemetry::kTraceCompiledIn)
            warn(strCat("tracing was compiled out "
                        "(CACHECRAFT_DISABLE_TRACING); ", effect));
    }
    // Fail on unwritable output paths now, not after a long run.
    for (const std::string &path :
         {epochs_csv_path, trace_json_path, report_json_path,
          flight_path, host_profile_path}) {
        if (!path.empty())
            cli::openOutput(path, std::ios::app);
    }

    if (!quiet)
        std::printf("--- configuration ---\n%s\n",
                    config.describe().c_str());

    const auto prof_start = std::chrono::steady_clock::now();
    GpuSystem gpu(config);
    gpu.setShards(shards);
    const auto wall_start = std::chrono::steady_clock::now();
    if (progress_interval > 0) {
        gpu.setProgress(
            progress_interval,
            [wall_start](Cycle cycle, std::uint64_t events) {
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
                std::fprintf(
                    stderr,
                    "progress: cycle %llu, %llu events (%.0f ev/s)\n",
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(events),
                    elapsed > 0.0
                        ? static_cast<double>(events) / elapsed
                        : 0.0);
                // Heartbeats must survive block-buffered pipes
                // (tee, CI log capture), so flush every line.
                std::fflush(stderr);
            });
    }
    const RunStats rs = gpu.run(trace);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    std::printf("--- %s on %s ---\n", config.summary().c_str(),
                trace.name.c_str());
    std::printf("cycles            %llu\n",
                static_cast<unsigned long long>(rs.cycles));
    std::printf("IPC               %.4f\n", rs.ipc);
    std::printf("DRAM txns         %llu (data %llu/%llu, ecc %llu/%llu)\n",
                static_cast<unsigned long long>(rs.dramTotalTxns),
                static_cast<unsigned long long>(rs.dramDataReads),
                static_cast<unsigned long long>(rs.dramDataWrites),
                static_cast<unsigned long long>(rs.dramEccReads),
                static_cast<unsigned long long>(rs.dramEccWrites));
    std::printf("row-buffer hits   %.1f%%\n", 100.0 * rs.rowHitRate);
    std::printf("MRC coverage      %.1f%%\n", 100.0 * rs.mrcCoverage());
    std::printf("decodes           clean %llu, corrected %llu, DUE %llu,"
                " tag-mismatch %llu\n",
                static_cast<unsigned long long>(rs.decodeClean),
                static_cast<unsigned long long>(rs.decodeCorrected),
                static_cast<unsigned long long>(rs.decodeUncorrectable),
                static_cast<unsigned long long>(rs.decodeTagMismatch));
    for (const std::string &warning : rs.warnings)
        std::printf("WARNING           %s\n", warning.c_str());

    if (const telemetry::Profiler *prof = gpu.telemetry().profiler()) {
        const auto hot = prof->hottestRows();
        if (!hot.empty()) {
            std::printf("hottest row       0x%llx (%llu accesses)\n",
                        static_cast<unsigned long long>(hot[0].key),
                        static_cast<unsigned long long>(hot[0].count));
        }
    }

    if (want_energy) {
        const EnergyBreakdown e = computeEnergy(rs.all);
        std::printf("energy            %.1f uJ total "
                    "(dram %.1f, sram %.1f, codec %.1f)\n",
                    e.totalNj() / 1000.0, e.dramNj() / 1000.0,
                    (e.l1Nj + e.l2Nj + e.mrcNj) / 1000.0,
                    e.codecNj / 1000.0);
    }

    const AuditResult audit = gpu.auditMemory();
    std::printf("memory audit      %llu sectors, %llu SDC, %llu DUE\n",
                static_cast<unsigned long long>(audit.sectors),
                static_cast<unsigned long long>(audit.silentCorruptions),
                static_cast<unsigned long long>(audit.uncorrectable));

    if (!csv_path.empty()) {
        std::ofstream csv(csv_path);
        csv << "stat,value\n";
        for (const auto &[name, value] : rs.all)
            csv << name << ',' << value << '\n';
        std::printf("wrote %s\n", csv_path.c_str());
    }

    if (!epochs_csv_path.empty()) {
        std::ofstream out = cli::openOutput(epochs_csv_path);
        out << gpu.sampler()->renderCsv();
        std::printf("wrote %s (%zu epochs)\n", epochs_csv_path.c_str(),
                    gpu.sampler()->epochs().size());
    }

    if (!trace_json_path.empty()) {
        std::ofstream out = cli::openOutput(trace_json_path);
        const telemetry::FlightRecorder *fr = gpu.telemetry().recorder();
        const auto records =
            fr ? fr->snapshot() : std::vector<telemetry::FlightRecord>{};
        const std::uint64_t dropped = fr ? fr->dropped() : 0;
        telemetry::writeLifecycleJson(out, records, dropped);
        std::printf("wrote %s (from %zu records, %llu dropped)\n",
                    trace_json_path.c_str(), records.size(),
                    static_cast<unsigned long long>(dropped));
    }

    if (!flight_path.empty()) {
        std::ofstream out = cli::openOutput(
            flight_path, std::ios::binary | std::ios::trunc);
        const telemetry::FlightRecorder *fr = gpu.telemetry().recorder();
        if (fr)
            fr->writeBinary(out);
        std::printf("wrote %s (%zu records, %llu dropped)\n",
                    flight_path.c_str(), fr ? fr->size() : 0,
                    static_cast<unsigned long long>(fr ? fr->dropped()
                                                       : 0));
    }

    if (!report_json_path.empty()) {
        std::ofstream out = cli::openOutput(report_json_path);
        telemetry::RunManifest manifest;
        manifest.tool = "cachecraft_sim";
        manifest.workload = trace.name;
        manifest.workloadSeed = wparams.seed;
        manifest.wallSeconds = wall_seconds;
        telemetry::writeRunReport(out, manifest, gpu.config(), rs,
                                  gpu.statsRegistry(), gpu.sampler(),
                                  gpu.telemetry().profiler(),
                                  gpu.telemetry().recorder(),
                                  gpu.telemetry().reuse());
        std::printf("wrote %s\n", report_json_path.c_str());
    }

    if (!host_profile_path.empty()) {
        std::ofstream out = cli::openOutput(host_profile_path);
        telemetry::HostProfileArtifact artifact;
        artifact.snapshot = telemetry::HostProfiler::snapshot();
        artifact.tool = "cachecraft_sim";
        // The profiled window spans system construction through the
        // memory audit — the same region the zones cover, so the
        // exclusive-time sum is comparable to this wall clock.
        artifact.wallNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - prof_start)
                .count());
        artifact.config.emplace_back("workload", trace.name);
        artifact.config.emplace_back("summary", config.summary());
        JsonWriter w(out);
        telemetry::writeHostProfileJson(w, artifact);
        out << '\n';
        std::printf("wrote %s\n", host_profile_path.c_str());
    }
    return 0;
}
