/**
 * @file
 * cachecraft_hostprof — the host-performance observatory CLI.
 *
 * Profiles where the *simulator's own* wall-clock and memory go, per
 * subsystem: runs one workload (or a whole campaign) with the host
 * zone profiler forced on and renders the merged zone tree as a
 * console breakdown, a diffable JSON artifact, Brendan-Gregg folded
 * stacks, and a self-contained flamegraph SVG.
 *
 *   cachecraft_hostprof --workload gemm --scheme cachecraft
 *   cachecraft_hostprof --workload random --json prof.json --svg f.svg
 *   cachecraft_hostprof --workload random --shards 4
 *   cachecraft_hostprof --campaign bench/campaigns/ci_smoke.json \
 *       --out /tmp/prof_tree --jobs 2
 *
 * Single-run mode asserts nothing but measures everything: the JSON
 * manifest carries wall_ns and sum_exclusive_ns side by side, which is
 * how the CI hostprof-smoke job checks that attributed time covers
 * >=90% of the measured wall clock. Campaign mode writes the normal
 * report tree plus hostprof.{json,folded,svg} next to the campaign
 * manifest (zone times there sum CPU time across workers, so they can
 * legitimately exceed wall clock with --jobs > 1).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "core/cachecraft.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/report.hpp"

#include "cli.hpp"

using namespace cachecraft;

namespace {

/** The run-point knobs this tool exposes as flags. */
constexpr std::string_view kKnobs[] = {
    "workload", "footprint_mib", "warps",  "mem_insts", "seed",
    "scheme",   "codec",         "sms",    "l2_kib",    "mrc_kib"};

void
usage()
{
    std::printf(
        "cachecraft_hostprof — host wall-clock zones, hardware "
        "counters,\nand memory telemetry of the simulator itself\n"
        "\n"
        "single-run mode (built-in kernels):\n"
        "%s%s"
        "  --shards N          engine worker threads (default 1; also\n"
        "                      applies to every campaign point)\n"
        "\n"
        "campaign mode:\n"
        "  --campaign FILE     profile a whole campaign spec instead\n"
        "  --out DIR           campaign output tree (required with\n"
        "                      --campaign); hostprof.{json,folded,svg}\n"
        "                      land next to campaign_manifest.json\n"
        "  --jobs N            campaign worker threads (default 1 so\n"
        "                      zone times stay comparable to wall)\n"
        "\n"
        "output:\n"
        "  --json FILE         write the profile document\n"
        "                      (schema cachecraft.hostprof/1;\n"
        "                      diffable via cachecraft_diff)\n"
        "  --folded FILE       write folded stacks (flamegraph.pl\n"
        "                      compatible: \"host;a;b <ns>\" lines)\n"
        "  --svg FILE          write a self-contained flamegraph SVG\n"
        "  --no-counters       skip perf_event hardware counters\n"
        "  --quiet             suppress the console tree\n",
        cli::toolKnobHelp(kKnobs, KnobGroup::kWorkload).c_str(),
        cli::toolKnobHelp(kKnobs, KnobGroup::kSystem).c_str());
}

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

void
writeArtifactFiles(const telemetry::HostProfileArtifact &artifact,
                   const std::string &json_path,
                   const std::string &folded_path,
                   const std::string &svg_path,
                   const std::string &title, bool quiet)
{
    if (!json_path.empty()) {
        std::ostringstream os;
        JsonWriter w(os);
        telemetry::writeHostProfileJson(w, artifact);
        os << '\n';
        std::ofstream out = cli::openOutput(json_path);
        out << os.str();
        if (!quiet)
            std::printf("wrote %s\n", json_path.c_str());
    }
    if (!folded_path.empty()) {
        std::ofstream out = cli::openOutput(folded_path);
        out << telemetry::renderHostFolded(artifact.snapshot);
        if (!quiet)
            std::printf("wrote %s\n", folded_path.c_str());
    }
    if (!svg_path.empty()) {
        std::ofstream out = cli::openOutput(svg_path);
        out << telemetry::renderHostFlameSvg(artifact.snapshot, title);
        if (!quiet)
            std::printf("wrote %s\n", svg_path.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ToolPoint point;
    const SystemConfig &config = point.config;
    std::string campaign_path;
    std::string out_dir;
    unsigned jobs = 1;
    unsigned shards = 1;
    std::string json_path;
    std::string folded_path;
    std::string svg_path;
    bool counters = true;
    bool quiet = false;

    cli::Args args("cachecraft_hostprof", 1, argc, argv);
    while (args.next()) {
        const std::string flag = args.arg();
        if (args.knob(point.target(), kKnobs))
            continue;
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--campaign") {
            campaign_path = args.value();
        } else if (flag == "--out") {
            out_dir = args.value();
        } else if (flag == "--jobs") {
            jobs = static_cast<unsigned>(args.count(true, cli::kMaxUnsigned));
        } else if (flag == "--shards") {
            shards =
                static_cast<unsigned>(args.count(true, cli::kMaxUnsigned));
        } else if (flag == "--json") {
            json_path = args.value();
        } else if (flag == "--folded") {
            folded_path = args.value();
        } else if (flag == "--svg") {
            svg_path = args.value();
        } else if (flag == "--no-counters") {
            counters = false;
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            usage();
            args.fail("unknown flag: " + flag);
        }
    }

    if (!telemetry::kTraceCompiledIn) {
        std::fprintf(stderr,
                     "cachecraft_hostprof: tracing was compiled out "
                     "(CACHECRAFT_DISABLE_TRACING); nothing to profile\n");
        return 2;
    }

    telemetry::HostProfileOptions popts;
    popts.counters = counters;

    telemetry::HostProfileArtifact artifact;
    artifact.tool = "cachecraft_hostprof";
    std::string title;
    int exit_code = 0;

    if (!campaign_path.empty()) {
        if (out_dir.empty())
            fatal("--campaign needs --out DIR");
        const auto text = cli::readFile(campaign_path);
        if (!text)
            fatal("cannot read " + campaign_path);
        std::string error;
        const auto spec = campaign::parseCampaignSpec(*text, &error);
        if (!spec)
            fatal("bad campaign spec: " + error);

        campaign::RunnerOptions ropts;
        ropts.outDir = out_dir;
        ropts.jobs = jobs;
        ropts.shards = shards;
        ropts.progress = quiet ? nullptr : stderr;

        telemetry::HostProfiler::retain(popts);
        const auto start = std::chrono::steady_clock::now();
        const campaign::CampaignResult result =
            campaign::runCampaign(*spec, ropts);
        artifact.wallNs = elapsedNs(start);
        telemetry::HostProfiler::release();

        artifact.config.emplace_back("campaign", spec->name);
        artifact.config.emplace_back("spec_hash", spec->specHash);
        title = "hostprof: campaign " + spec->name;
        if (json_path.empty())
            json_path = out_dir + "/hostprof.json";
        if (folded_path.empty())
            folded_path = out_dir + "/hostprof.folded";
        if (svg_path.empty())
            svg_path = out_dir + "/hostprof.svg";
        // Mirror cachecraft_sweep: failed/timed-out points surface in
        // the exit code, after the profile artifacts are written.
        if (result.countWithStatus(campaign::PointStatus::kOk) !=
            spec->points.size())
            exit_code = 1;
    } else {
        telemetry::HostProfiler::retain(popts);
        const auto start = std::chrono::steady_clock::now();
        {
            const KernelTrace trace =
                makeWorkload(point.workload, point.params);
            cli::requireInstructions(trace);
            GpuSystem gpu(config);
            gpu.setShards(shards);
            gpu.run(trace);
            gpu.auditMemory();
        }
        telemetry::HostProfiler::sampleMemory();
        artifact.wallNs = elapsedNs(start);
        telemetry::HostProfiler::release();

        artifact.config.emplace_back("workload",
                                     toString(point.workload));
        artifact.config.emplace_back("scheme",
                                     toString(config.scheme));
        artifact.config.emplace_back("summary", config.summary());
        title = strCat("hostprof: ", toString(point.workload), " / ",
                       toString(config.scheme));
    }

    artifact.config.emplace_back("shards", std::to_string(shards));
    artifact.snapshot = telemetry::HostProfiler::snapshot();

    if (!quiet) {
        std::printf("%s\n",
                    telemetry::renderHostTree(artifact.snapshot).c_str());
        const std::uint64_t sum =
            telemetry::hostSumExclusiveNs(artifact.snapshot.root);
        std::printf("attributed %.2fms of %.2fms wall (%.1f%%)\n",
                    static_cast<double>(sum) / 1e6,
                    static_cast<double>(artifact.wallNs) / 1e6,
                    artifact.wallNs > 0
                        ? 100.0 * static_cast<double>(sum) /
                              static_cast<double>(artifact.wallNs)
                        : 0.0);
    }

    writeArtifactFiles(artifact, json_path, folded_path, svg_path,
                       title, quiet);
    return exit_code;
}
