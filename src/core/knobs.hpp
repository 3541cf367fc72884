/**
 * @file
 * The run-point knob table: every knob a campaign spec or a tool's
 * command line can set, declared once.
 *
 * A run point is a SystemConfig plus a workload kind and its sizing
 * (WorkloadParams). Each knob is one table entry holding its spec name
 * ("chunk_granularity"), its CLI spelling ("--no-r1", which sets it to
 * false), its value type and range, its one diagnostic, and how to
 * read and write it. Campaign specs hand knobs JSON values and the
 * tools hand them flag text; both go through the same entry, so the
 * two surfaces cannot drift on names, ranges or wording.
 *
 * Text values map onto JSON ones: "true"/"false" are booleans, a
 * whole unsigned decimal is a number, anything else is a string
 * (which a boolean knob refuses as "wants a boolean or non-negative
 * integer"). Wrong-kind and below-range values get the knob's
 * diagnostic, values above its range "wants at most N", and unknown
 * names (of a scheme, codec or workload) `unknown scheme "bogus"`.
 */

#ifndef CACHECRAFT_CORE_KNOBS_HPP
#define CACHECRAFT_CORE_KNOBS_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "workloads/workloads.hpp"

namespace cachecraft {

class JsonValue;

/** What knobs write: one run point's system, kernel and sizing. */
struct KnobTarget
{
    SystemConfig &config;
    WorkloadKind &workload;
    WorkloadParams &params;
};

/** Which part of a run point a knob sets. */
enum class KnobGroup : std::uint8_t { kWorkload, kSystem, kTelemetry };

/** A knob's value type: kCount is a whole number in [min, max], kName
 *  one of a fixed set of names. */
enum class KnobType : std::uint8_t { kBool, kCount, kName };

/** A validated knob value, as the setter receives it. */
struct KnobValue
{
    bool flag = false;
    std::uint64_t count = 0;
    std::string_view name;
};

/** One run-point knob. */
struct Knob
{
    std::string name; //!< spec name, e.g. "sms"
    KnobGroup group = KnobGroup::kSystem;
    KnobType type = KnobType::kBool;
    /** CLI spelling, e.g. "--sms"; empty for a spec-only knob. */
    std::string flag;
    /** The value a valueless flag sets ("false" for --no-r1); empty
     *  when the flag takes a value. */
    std::string flagValue;
    std::string metavar; //!< --help value placeholder, e.g. "N"
    std::string help;
    std::uint64_t min = 0; //!< kCount range, in the knob's unit
    std::uint64_t max = 0;
    std::vector<std::string> choices; //!< kName: the accepted names
    /** The one diagnostic for a bad value (kName: its prefix). */
    std::string diagnostic;
    /** Write a validated value. */
    std::function<void(KnobTarget, const KnobValue &)> set;
    /** The knob's current value in text form ("true", "16", "gemm"). */
    std::function<std::string(KnobTarget)> get;
};

/** Every knob, sorted by name. */
const std::vector<Knob> &knobTable();

/** The knob named @p name, or nullptr. */
const Knob *findKnob(std::string_view name);

/** Sorted names of every knob, or of those in @p group. */
std::vector<std::string>
knobNames(std::optional<KnobGroup> group = std::nullopt);

/**
 * Set knob @p name to a JSON @p value. On a bad value returns false
 * with the diagnostic in @p error and leaves @p target untouched. An
 * unknown name fails with "unknown knob", or "unknown telemetry knob"
 * (etc.) when the lookup is limited to @p group.
 */
bool applyKnob(KnobTarget target, std::string_view name,
               const JsonValue &value, std::string *error,
               std::optional<KnobGroup> group = std::nullopt);

/** applyKnob() from CLI text (see the file comment). */
bool applyKnobText(KnobTarget target, std::string_view name,
                   std::string_view text, std::string *error,
                   std::optional<KnobGroup> group = std::nullopt);

/**
 * --help lines for the knobs among @p names that belong to @p group,
 * in the order given, with defaults read from @p defaults.
 */
std::string knobHelp(std::span<const std::string_view> names,
                     KnobGroup group, KnobTarget defaults);

/**
 * A strict unsigned decimal: all of @p text is digits (no sign, space
 * or prefix) and the value fits 64 bits.
 */
std::optional<std::uint64_t> parseCount(std::string_view text);

/**
 * A strict non-negative decimal: digits with at most one '.', no sign
 * or exponent, and a finite value.
 */
std::optional<double> parseDecimal(std::string_view text);

} // namespace cachecraft

#endif // CACHECRAFT_CORE_KNOBS_HPP
