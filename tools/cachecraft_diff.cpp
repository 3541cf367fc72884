/**
 * @file
 * cachecraft_diff — compare two JSON artifacts (run reports, bench
 * tables, perf-smoke dumps) or two CACHECRAFT_REPORT_DIR trees, print
 * a per-metric delta table, and exit non-zero on regression. This is
 * the tool behind the CI perf gate.
 *
 *   cachecraft_diff BENCH_baseline.json new.json --tol 0.02
 *   cachecraft_diff old_reports/ new_reports/ --json delta.json
 *   cachecraft_diff a.json b.json --tol-metric results.cycles=0.005
 *
 * Exit codes: 0 = within tolerance, 1 = regression (metric beyond
 * tolerance or metric sets differ), 2 = usage/parse/schema error.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "telemetry/diff.hpp"
#include "telemetry/report_set.hpp"

#include "cli.hpp"

using namespace cachecraft;
namespace fs = std::filesystem;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_diff — per-metric comparison of two JSON artifacts\n"
        "\n"
        "  cachecraft_diff BEFORE AFTER [options]\n"
        "\n"
        "BEFORE and AFTER are either two JSON files or two directories\n"
        "(e.g. CACHECRAFT_REPORT_DIR trees or cachecraft_sweep output\n"
        "trees); directories are walked recursively and compared\n"
        "pairwise by sorted tree-relative path.\n"
        "\n"
        "options:\n"
        "  --tol R             default relative tolerance (default 0:\n"
        "                      any change fails)\n"
        "  --tol-metric P=R    tolerance R for metrics with path\n"
        "                      prefix P (repeatable; longest prefix\n"
        "                      wins), e.g. results.cycles=0.01\n"
        "  --ignore PREFIX     drop metrics with this path prefix\n"
        "                      (repeatable; \"manifest.\" is always\n"
        "                      ignored — wall time and build id are\n"
        "                      expected to differ)\n"
        "  --all               show unchanged metrics in the table too\n"
        "  --json FILE         also write the delta as JSON\n"
        "\n"
        "exit codes: 0 ok, 1 regression, 2 usage/parse/schema error\n");
}

/** Parse one artifact file; exits 2 on I/O, syntax, or schema error. */
JsonValue
loadArtifact(const cli::Args &args, const std::string &path)
{
    const auto text = cli::readFile(path);
    if (!text)
        args.fail("cannot read " + path);
    std::string error;
    auto doc = jsonParse(*text, &error);
    if (!doc)
        args.fail(path + ": " + error);
    if (!telemetry::checkSchemaVersion(*doc, path, &error))
        args.fail(error);
    return std::move(*doc);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    telemetry::DiffTolerances tol;
    std::vector<std::string> ignore = {"manifest."};
    std::string json_out;
    bool changed_only = true;

    cli::Args args("cachecraft_diff", 2, argc, argv);
    while (args.next()) {
        const std::string flag = args.arg();
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--tol") {
            tol.defaultRel = args.decimal(false);
        } else if (flag == "--tol-metric") {
            const std::string spec = args.value();
            const std::size_t eq = spec.rfind('=');
            const auto rel = eq == std::string::npos
                                 ? std::nullopt
                                 : parseDecimal(spec.substr(eq + 1));
            if (eq == 0 || !rel)
                args.fail("--tol-metric wants PREFIX=TOL (TOL a "
                          "non-negative number), got " + spec);
            tol.perPrefix.emplace_back(spec.substr(0, eq), *rel);
        } else if (flag == "--ignore") {
            ignore.push_back(args.value());
        } else if (flag == "--all") {
            changed_only = false;
        } else if (flag == "--json") {
            json_out = args.value();
        } else if (!flag.empty() && flag[0] == '-') {
            args.fail("unknown flag " + flag);
        } else {
            positional.push_back(flag);
        }
    }

    if (positional.size() != 2) {
        usage();
        return 2;
    }
    const std::string &before_path = positional[0];
    const std::string &after_path = positional[1];

    const bool dir_mode = fs::is_directory(before_path);
    if (dir_mode != fs::is_directory(after_path))
        args.fail(before_path + " and " + after_path +
                  " must both be files or both be directories");

    // Directory mode folds each per-file comparison into one combined
    // result by prefixing metric paths with the tree-relative file
    // path. Listing is recursive and '/'-separated on every platform,
    // so nested trees (e.g. a cachecraft_sweep output with its
    // reports/ subdirectory) compare file by file in a stable order.
    telemetry::DiffResult result;
    if (dir_mode) {
        const auto before_files =
            telemetry::listJsonFilesRecursive(before_path);
        const auto after_files =
            telemetry::listJsonFilesRecursive(after_path);
        for (const std::string &name : before_files) {
            const bool matched =
                std::find(after_files.begin(), after_files.end(), name) !=
                after_files.end();
            if (!matched) {
                result.onlyBefore.push_back(name);
                continue;
            }
            const JsonValue before =
                loadArtifact(args, (fs::path(before_path) / name).string());
            const JsonValue after =
                loadArtifact(args, (fs::path(after_path) / name).string());
            telemetry::DiffResult one =
                telemetry::diffReports(before, after, tol, ignore);
            for (telemetry::DiffEntry &e : one.entries) {
                e.metric = name + ":" + e.metric;
                result.entries.push_back(std::move(e));
            }
            for (const std::string &m : one.onlyBefore)
                result.onlyBefore.push_back(name + ":" + m);
            for (const std::string &m : one.onlyAfter)
                result.onlyAfter.push_back(name + ":" + m);
        }
        for (const std::string &name : after_files) {
            if (std::find(before_files.begin(), before_files.end(),
                          name) == before_files.end())
                result.onlyAfter.push_back(name);
        }
    } else {
        const JsonValue before = loadArtifact(args, before_path);
        const JsonValue after = loadArtifact(args, after_path);
        result = telemetry::diffReports(before, after, tol, ignore);
    }

    std::printf("%s", telemetry::renderMarkdown(result, changed_only)
                          .c_str());

    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out)
            args.fail("cannot write " + json_out);
        out << telemetry::renderDiffJson(result);
    }

    return result.regression() ? 1 : 0;
}
