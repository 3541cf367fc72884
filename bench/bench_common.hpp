/**
 * @file
 * Shared helpers for the experiment harnesses (one binary per
 * figure/table of the reproduction plan in DESIGN.md §4).
 *
 * Every harness prints (a) the paper-style aligned table and (b) the
 * same data as CSV, so EXPERIMENTS.md can quote either.
 */

#ifndef CACHECRAFT_BENCH_BENCH_COMMON_HPP
#define CACHECRAFT_BENCH_BENCH_COMMON_HPP

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "core/cachecraft.hpp"

namespace cachecraft::bench {

/** Workload sizing used across the experiments: large enough that
 *  the 4 MiB L2 misses substantially, small enough that the full
 *  suite runs in minutes. */
inline WorkloadParams
defaultWorkloadParams()
{
    WorkloadParams p;
    p.footprintBytes = 4 * 1024 * 1024;
    p.numWarps = 256;
    p.memInstsPerWarp = 48;
    p.seed = 7;
    return p;
}

/** Baseline system configuration for a given scheme. */
inline SystemConfig
configFor(SchemeKind scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    return cfg;
}

/** Run one (config, workload) point on a fresh system. */
inline RunStats
runPoint(const SystemConfig &cfg, WorkloadKind kind,
         const WorkloadParams &params)
{
    GpuSystem gpu(cfg);
    return gpu.run(makeWorkload(kind, params));
}

/** Slug a table title into a filename stem: [a-z0-9_] only. */
inline std::string
artifactStem(const std::string &title)
{
    std::string stem;
    for (char ch : title) {
        if (std::isalnum(static_cast<unsigned char>(ch)))
            stem += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        else if (!stem.empty() && stem.back() != '_')
            stem += '_';
    }
    while (!stem.empty() && stem.back() == '_')
        stem.pop_back();
    return stem.empty() ? std::string("table") : stem;
}

/**
 * Print a table in both text and CSV form. When the environment
 * variable CACHECRAFT_REPORT_DIR names a directory, also drop a
 * machine-readable JSON artifact there (<slugged-title>.json) so CI
 * and sweep scripts can collect results without scraping stdout.
 */
inline void
emit(const ResultTable &table)
{
    std::printf("%s\n", table.renderText().c_str());
    std::printf("--- CSV ---\n%s\n", table.renderCsv().c_str());

    if (const char *dir = std::getenv("CACHECRAFT_REPORT_DIR")) {
        const std::string path =
            std::string(dir) + "/" + artifactStem(table.title()) + ".json";
        std::ofstream out(path);
        if (!out) {
            warn(strCat("cannot write report artifact: ", path));
            return;
        }
        out << table.renderJson() << '\n';
        std::printf("[report] wrote %s\n", path.c_str());
    }
}

} // namespace cachecraft::bench

#endif // CACHECRAFT_BENCH_BENCH_COMMON_HPP
