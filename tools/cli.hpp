/**
 * @file
 * Command-line plumbing shared by the tools: walking argv, strict
 * numeric flag values, and knob flags routed through the knob table
 * (core/knobs.hpp). Every bad value ends the tool with a one-line
 * message and the usage exit code its --help documents.
 */

#ifndef CACHECRAFT_TOOLS_CLI_HPP
#define CACHECRAFT_TOOLS_CLI_HPP

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <string_view>

#include "common/log.hpp"
#include "core/knobs.hpp"
#include "gpu/kernel_trace.hpp"

namespace cachecraft::cli {

inline constexpr std::uint64_t kMaxUnsigned =
    std::numeric_limits<unsigned>::max();

/**
 * The run point cachecraft_sim, _hostprof and _curves start from: the
 * default system running a streaming kernel over an 8 MiB footprint,
 * 256 warps, 48 memory instructions per warp.
 */
struct ToolPoint
{
    SystemConfig config;
    WorkloadKind workload = WorkloadKind::kStreaming;
    WorkloadParams params;

    ToolPoint()
    {
        params.footprintBytes = 8 * 1024 * 1024;
        params.numWarps = 256;
        params.memInstsPerWarp = 48;
    }

    KnobTarget target() { return {config, workload, params}; }
};

/** knobHelp() with a fresh ToolPoint's defaults. */
inline std::string
toolKnobHelp(std::span<const std::string_view> names, KnobGroup group)
{
    ToolPoint defaults;
    return knobHelp(names, group, defaults.target());
}

/** One tool's argv, walked flag by flag. */
class Args
{
  public:
    /** @p usage_exit is the tool's exit code for a bad command line. */
    Args(const char *tool, int usage_exit, int argc, char **argv)
        : tool_(tool), usageExit_(usage_exit), argc_(argc), argv_(argv)
    {
    }

    /** Step to the next argument; false once argv is exhausted. */
    bool
    next()
    {
        const bool more = ++index_ < argc_;
        arg_ = more ? argv_[index_] : "";
        return more;
    }

    const std::string &arg() const { return arg_; }

    /** The current flag's value: the next argument. */
    std::string
    value()
    {
        if (index_ + 1 >= argc_)
            fail("flag " + arg_ + " needs a value");
        return argv_[++index_];
    }

    /** value() as a strict whole number, > 0 when @p positive, and
     *  at most @p max. */
    std::uint64_t
    count(bool positive,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
    {
        const std::string flag = arg_;
        const std::string text = value();
        const bool digits =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        const auto n = parseCount(text);
        if (!digits || (positive && n == 0u))
            fail("flag " + flag + (positive ? " wants a positive integer"
                                            : " wants a non-negative "
                                              "integer"));
        if (!n || *n > max)
            fail(strCat("flag ", flag, " wants at most ", max));
        return *n;
    }

    /** value() as a strict decimal, > 0 when @p positive (else >= 0). */
    double
    decimal(bool positive)
    {
        const std::string flag = arg_;
        const auto x = parseDecimal(value());
        if (!x || (positive && *x <= 0.0))
            fail("flag " + flag + (positive ? " wants a positive number"
                                            : " wants a non-negative "
                                              "number"));
        return *x;
    }

    /**
     * Apply the current flag if it is the CLI spelling of one of the
     * knobs @p names; false when it is not.
     */
    bool
    knob(KnobTarget target, std::span<const std::string_view> names)
    {
        for (std::string_view name : names) {
            const Knob *k = findKnob(name);
            if (k == nullptr || k->flag != arg_)
                continue;
            const std::string flag = arg_;
            const std::string text =
                k->flagValue.empty() ? value() : k->flagValue;
            std::string error;
            if (!applyKnobText(target, k->name, text, &error))
                fail("flag " + flag + " " + error);
            return true;
        }
        return false;
    }

    /** Print "<tool>: @p message" and exit with the usage code. */
    [[noreturn]] void
    fail(const std::string &message) const
    {
        std::fprintf(stderr, "%s: %s\n", tool_, message.c_str());
        std::exit(usageExit_);
    }

  private:
    const char *tool_;
    int usageExit_;
    int argc_;
    char **argv_;
    int index_ = 0;
    std::string arg_;
};

/** End the tool when @p trace is empty: a kernel with no instructions
 *  would "succeed" with a zero-cycle report. */
inline void
requireInstructions(const KernelTrace &trace)
{
    if (trace.totalInsts() == 0)
        fatal("the workload has no instructions to simulate (footprint "
              "or warp count too small for this kernel?)");
}

/** The whole of file @p path, or nullopt when it cannot be read. */
inline std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** @p path opened for writing; fatal() when it cannot be. */
inline std::ofstream
openOutput(const std::string &path,
           std::ios::openmode mode = std::ios::out)
{
    std::ofstream out(path, mode);
    if (!out)
        fatal("cannot write " + path);
    return out;
}

} // namespace cachecraft::cli

#endif // CACHECRAFT_TOOLS_CLI_HPP
