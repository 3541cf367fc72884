#include "core/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "common/json.hpp"
#include "common/log.hpp"
#include "telemetry/flight_recorder.hpp"

namespace cachecraft {

namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
/** The largest count a JSON number holds exactly. */
constexpr std::uint64_t kMaxExact = std::uint64_t{1} << 53;

using K = KnobTarget;

telemetry::TelemetryOptions &
tel(K t)
{
    return t.config.telemetry;
}

std::string
boolText(bool b)
{
    return b ? "true" : "false";
}

Knob
entry(const char *name, KnobGroup group, KnobType type, const char *flag,
      std::string help)
{
    Knob knob;
    knob.name = name;
    knob.group = group;
    knob.type = type;
    knob.flag = flag;
    knob.help = std::move(help);
    return knob;
}

/** A boolean knob over the field @p field refers to; its flag (if
 *  any) sets @p flag_value. */
template <typename Field>
Knob
boolKnob(const char *name, KnobGroup group, const char *flag,
         const char *flag_value, const char *help, Field field)
{
    Knob knob = entry(name, group, KnobType::kBool, flag, help);
    knob.flagValue = flag_value;
    knob.diagnostic = "wants a boolean";
    knob.set = [field](K t, const KnobValue &v) { field(t) = v.flag; };
    knob.get = [field](K t) { return boolText(field(t)); };
    return knob;
}

/**
 * A count knob over the field @p field refers to, holding the count
 * times @p unit. Values run from @p min to @p max, or by default to
 * the largest count whose scaled value still fits the field.
 */
template <typename Field>
Knob
countKnob(const char *name, KnobGroup group, const char *flag,
          std::string help, std::uint64_t min, const char *diagnostic,
          Field field, std::uint64_t unit = 1, std::uint64_t max = 0)
{
    using T = std::remove_cvref_t<decltype(field(std::declval<K>()))>;
    Knob knob = entry(name, group, KnobType::kCount, flag, std::move(help));
    knob.metavar = "N";
    knob.min = min;
    knob.max = max != 0 ? max : std::numeric_limits<T>::max() / unit;
    knob.diagnostic = diagnostic;
    knob.set = [field, unit](K t, const KnobValue &v) {
        field(t) = static_cast<T>(v.count * unit);
    };
    knob.get = [field, unit](K t) { return std::to_string(field(t) / unit); };
    return knob;
}

/** A knob naming one of @p all (by toString) into @p field. */
template <typename Kind, typename Field>
Knob
nameKnob(const char *name, KnobGroup group, const char *flag,
         const char *metavar, const char *help, const std::vector<Kind> &all,
         std::optional<Kind> (*parse)(std::string_view), Field field)
{
    Knob knob = entry(name, group, KnobType::kName, flag, help);
    knob.metavar = metavar;
    for (Kind kind : all)
        knob.choices.emplace_back(toString(kind));
    knob.diagnostic = strCat("unknown ", name);
    knob.set = [field, parse](K t, const KnobValue &v) {
        field(t) = *parse(v.name);
    };
    knob.get = [field](K t) -> std::string { return toString(field(t)); };
    return knob;
}

/** @p knob, also switching on the gate @p gate refers to. */
template <typename Gate>
Knob
implies(Knob knob, Gate gate)
{
    knob.set = [set = knob.set, gate](K t, const KnobValue &v) {
        gate(t) = true;
        set(t, v);
    };
    return knob;
}

std::vector<Knob>
buildTable()
{
    using G = KnobGroup;
    constexpr std::uint64_t kKiB = 1024;
    constexpr std::uint64_t kMiB = 1024 * 1024;
    // Size bounds, far past any modelled GPU, so that a typo is a clean
    // error instead of an allocation failure. The footprint's trace is
    // the largest allocation they admit: a streaming kernel holds ~8 B
    // of trace per byte of data, ~8 GiB at the 1 GiB bound.
    constexpr std::uint64_t kMaxFootprintMib = 1024;
    constexpr std::uint64_t kMaxSms = 1024;
    constexpr std::uint64_t kMaxCacheKib = 64 * 1024; //!< per slice
    constexpr std::uint64_t kMaxReuseAssoc = 4096;
    Knob gto = entry("gto", G::kSystem, KnobType::kBool, "--gto",
                     "greedy-then-oldest warp scheduling");
    gto.flagValue = "true";
    gto.diagnostic = "wants a boolean";
    gto.set = [](K t, const KnobValue &v) {
        t.config.sm.scheduler =
            v.flag ? WarpSched::kGto : WarpSched::kRoundRobin;
    };
    gto.get = [](K t) {
        return boolText(t.config.sm.scheduler == WarpSched::kGto);
    };

    std::vector<Knob> table = {
        // The kernel and its sizing.
        nameKnob("workload", G::kWorkload, "--workload", "NAME",
                 "built-in kernel:", allWorkloads(), parseWorkload,
                 [](K t) -> auto & { return t.workload; }),
        countKnob("footprint_mib", G::kWorkload, "--footprint-mib",
                  "array footprint in MiB", 1,
                  "must be positive (a whole number of MiB)",
                  [](K t) -> auto & { return t.params.footprintBytes; },
                  kMiB, kMaxFootprintMib),
        countKnob("warps", G::kWorkload, "--warps", "total warps", 1,
                  "must be positive (a whole number of warps)",
                  [](K t) -> auto & { return t.params.numWarps; }),
        countKnob("mem_insts", G::kWorkload, "--mem-insts",
                  "memory instructions per warp (irregular kernels)", 1,
                  "must be positive (a whole number of instructions)",
                  [](K t) -> auto & { return t.params.memInstsPerWarp; }),
        countKnob("seed", G::kWorkload, "--seed", "workload seed", 0,
                  "wants a non-negative integer",
                  [](K t) -> auto & { return t.params.seed; }),

        // The simulated machine.
        nameKnob("scheme", G::kSystem, "--scheme", "S",
                 "protection scheme:", allSchemes(), parseScheme,
                 [](K t) -> auto & { return t.config.scheme; }),
        nameKnob("codec", G::kSystem, "--codec", "C", "ECC codec:",
                 ecc::allCodecs(), ecc::parseCodec,
                 [](K t) -> auto & { return t.config.codec; }),
        countKnob("sms", G::kSystem, "--sms", "SM count", 1,
                  "must be positive (a whole number of SMs)",
                  [](K t) -> auto & { return t.config.numSms; }, 1,
                  kMaxSms),
        countKnob("l2_kib", G::kSystem, "--l2-kib", "L2 KiB per slice", 1,
                  "must be positive (a whole number of KiB)",
                  [](K t) -> auto & { return t.config.l2.cache.sizeBytes; },
                  kKiB, kMaxCacheKib),
        countKnob("mrc_kib", G::kSystem, "--mrc-kib", "MRC KiB per slice",
                  1, "must be positive (a whole number of KiB)",
                  [](K t) -> auto & { return t.config.mrc.sizeBytes; },
                  kKiB, kMaxCacheKib),
        boolKnob("chunk_granularity", G::kSystem, "--no-r1", "false",
                 "disable R1, chunk-granularity metadata reconstruction",
                 [](K t) -> auto & { return t.config.mrc.chunkGranularity; }),
        boolKnob("writeback_mrc", G::kSystem, "--no-r2", "false",
                 "disable R2, the write-back MRC",
                 [](K t) -> auto & { return t.config.mrc.writebackMrc; }),
        boolKnob("co_located_layout", G::kSystem, "--no-r3", "false",
                 "disable R3, the co-located inline-ECC layout",
                 [](K t) -> auto & { return t.config.coLocatedLayout; }),
        gto,
        boolKnob("l2_whole_line", G::kSystem, "--l2-whole-line", "true",
                 "fetch the whole 128 B line on an L2 miss",
                 [](K t) -> auto & { return t.config.l2.fetchWholeLine; }),
        countKnob("system_seed", G::kSystem, "",
                  "seed of the randomized hardware structures", 0,
                  "wants a non-negative integer",
                  [](K t) -> auto & { return t.config.seed; }),

        // Observability. The interval and bound knobs imply their gate.
        countKnob("sample_interval", G::kTelemetry, "--sample-interval",
                  "sample stat deltas every N cycles", 1,
                  "wants a positive cycle interval",
                  [](K t) -> auto & { return tel(t).sampleInterval; },
                  1, kMaxExact),
        boolKnob("profile", G::kTelemetry, "--profile", "true",
                 "enable the resource profiler (occupancy, hot rows; "
                 "adds a \"profile\" report section)",
                 [](K t) -> auto & { return tel(t).profileEnabled; }),
        implies(countKnob("profile_interval", G::kTelemetry,
                          "--profile-interval",
                          "poll occupancy gauges every N cycles (implies "
                          "--profile)",
                          1, "wants a positive cycle interval",
                          [](K t) -> auto & { return tel(t).profileInterval; },
                          1, kMaxExact),
                [](K t) -> auto & { return tel(t).profileEnabled; }),
        boolKnob("flight_recorder", G::kTelemetry, "", "",
                 "enable the binary flight recorder",
                 [](K t) -> auto & { return tel(t).flightRecorderEnabled; }),
        countKnob("flight_capacity", G::kTelemetry, "--flight-capacity",
                  strCat("flight ring size in records, at most ",
                         telemetry::kMaxFlightCapacity),
                  1, "wants a positive record capacity",
                  [](K t) -> auto & { return tel(t).flightCapacity; },
                  1, telemetry::kMaxFlightCapacity),
        boolKnob("reuse_profile", G::kTelemetry, "--reuse-profile", "true",
                 "enable one-pass reuse-distance profiling of the L2 and "
                 "MRC access streams (miss-ratio curves, residency "
                 "heatmaps, locality attribution; adds a \"curves\" "
                 "report section; see also cachecraft_curves)",
                 [](K t) -> auto & { return tel(t).reuseProfileEnabled; }),
        implies(countKnob("reuse_max_assoc", G::kTelemetry,
                          "--reuse-max-assoc",
                          "curve bound: miss-ratio points at 1..N ways "
                          "(implies --reuse-profile)",
                          1, "wants a positive associativity",
                          [](K t) -> auto & { return tel(t).reuseMaxAssoc; },
                          1, kMaxReuseAssoc),
                [](K t) -> auto & { return tel(t).reuseProfileEnabled; }),
        boolKnob("host_profile", G::kTelemetry, "", "",
                 "enable the host wall-clock zone profiler",
                 [](K t) -> auto & { return tel(t).hostProfileEnabled; }),
    };
    std::sort(table.begin(), table.end(),
              [](const Knob &a, const Knob &b) { return a.name < b.name; });
    return table;
}

/** A value before a knob judges it (see the file comment). */
struct Token
{
    enum class Kind : std::uint8_t { kBool, kCount, kOther };
    Kind kind = Kind::kOther;
    bool flag = false;
    std::uint64_t count = kMaxU64;
    bool huge = false; //!< a whole number too large for 64 bits
    std::string text;  //!< as written, for names and diagnostics
};

Token
fromJson(const JsonValue &v)
{
    Token token;
    if (v.isBool()) {
        token.kind = Token::Kind::kBool;
        token.flag = v.asBool();
        token.text = boolText(token.flag);
    } else if (v.isString()) {
        token.text = v.asString();
    } else if (!v.isNumber()) {
        token.text = "?";
    } else if (const double n = v.asNumber(); n >= 0 && n == std::floor(n)) {
        token.kind = Token::Kind::kCount;
        token.huge = n >= 0x1p64;
        if (!token.huge)
            token.count = static_cast<std::uint64_t>(n);
        token.text = token.huge ? jsonNumber(n) : std::to_string(token.count);
    } else {
        token.text = jsonNumber(n);
    }
    return token;
}

Token
fromText(std::string_view text)
{
    Token token;
    token.text = std::string(text);
    if (text == "true" || text == "false") {
        token.kind = Token::Kind::kBool;
        token.flag = text == "true";
    } else if (!text.empty() &&
               text.find_first_not_of("0123456789") == text.npos) {
        const auto count = parseCount(text);
        token.kind = Token::Kind::kCount;
        token.huge = !count;
        token.count = count.value_or(kMaxU64);
    }
    return token;
}

bool
fail(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

bool
apply(const Knob &knob, KnobTarget target, const Token &token,
      std::string *error)
{
    KnobValue value;
    switch (knob.type) {
      case KnobType::kBool:
        if (token.kind != Token::Kind::kBool)
            return fail(error, knob.diagnostic);
        value.flag = token.flag;
        break;
      case KnobType::kCount:
        if (token.kind != Token::Kind::kCount || token.count < knob.min)
            return fail(error, knob.diagnostic);
        if (token.huge || token.count > knob.max)
            return fail(error, strCat("wants at most ", knob.max));
        value.count = token.count;
        break;
      case KnobType::kName:
        if (std::find(knob.choices.begin(), knob.choices.end(),
                      token.text) == knob.choices.end())
            return fail(error, strCat(knob.diagnostic, " \"", token.text,
                                      "\""));
        value.name = token.text;
        break;
    }
    knob.set(target, value);
    return true;
}

const Knob *
lookup(std::string_view name, std::optional<KnobGroup> group,
       std::string *error)
{
    const Knob *knob = findKnob(name);
    if (knob != nullptr && (!group || knob->group == *group))
        return knob;
    static const char *const kGroupNames[] = {"workload", "system",
                                              "telemetry"};
    fail(error, group ? strCat("unknown ",
                               kGroupNames[static_cast<int>(*group)],
                               " knob")
                      : std::string("unknown knob"));
    return nullptr;
}

/** Greedy word wrap of @p text into lines of at most @p width. */
std::vector<std::string>
wrap(const std::string &text, std::size_t width)
{
    std::vector<std::string> lines(1);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = std::min(text.find(' ', pos), text.size());
        const std::string word = text.substr(pos, end - pos);
        if (!lines.back().empty() &&
            lines.back().size() + 1 + word.size() > width)
            lines.emplace_back();
        if (!lines.back().empty())
            lines.back() += ' ';
        lines.back() += word;
        pos = end + 1;
    }
    return lines;
}

} // namespace

const std::vector<Knob> &
knobTable()
{
    static const std::vector<Knob> table = buildTable();
    return table;
}

const Knob *
findKnob(std::string_view name)
{
    for (const Knob &knob : knobTable()) {
        if (knob.name == name)
            return &knob;
    }
    return nullptr;
}

std::vector<std::string>
knobNames(std::optional<KnobGroup> group)
{
    std::vector<std::string> names;
    for (const Knob &knob : knobTable()) {
        if (!group || knob.group == *group)
            names.push_back(knob.name);
    }
    return names;
}

bool
applyKnob(KnobTarget target, std::string_view name, const JsonValue &value,
          std::string *error, std::optional<KnobGroup> group)
{
    const Knob *knob = lookup(name, group, error);
    return knob != nullptr && apply(*knob, target, fromJson(value), error);
}

bool
applyKnobText(KnobTarget target, std::string_view name,
              std::string_view text, std::string *error,
              std::optional<KnobGroup> group)
{
    const Knob *knob = lookup(name, group, error);
    if (knob == nullptr)
        return false;
    const Token token = fromText(text);
    // Text that is neither a boolean nor a number names nothing a
    // boolean knob could take.
    if (knob->type == KnobType::kBool && token.kind == Token::Kind::kOther)
        return fail(error, "wants a boolean or non-negative integer");
    return apply(*knob, target, token, error);
}

std::string
knobHelp(std::span<const std::string_view> names, KnobGroup group,
         KnobTarget defaults)
{
    std::string out;
    for (std::string_view name : names) {
        const Knob *knob = findKnob(name);
        if (knob == nullptr || knob->group != group || knob->flag.empty())
            continue;
        std::string text = knob->help;
        if (knob->type == KnobType::kName) {
            for (std::size_t i = 0; i < knob->choices.size(); ++i)
                text += (i == 0 ? " " : " | ") + knob->choices[i];
        }
        if (knob->flagValue.empty()) {
            const std::string value = knob->get(defaults);
            const auto count = parseCount(value);
            const bool off = knob->type == KnobType::kCount &&
                             (!count || *count < knob->min);
            text += off ? " (default: off)" : " (default " + value + ")";
        }
        std::string spelling = knob->flag;
        if (!knob->metavar.empty())
            spelling += " " + knob->metavar;
        char column[32];
        std::snprintf(column, sizeof column, "  %-19s ", spelling.c_str());
        std::string indent = column;
        for (const std::string &line : wrap(text, 56)) {
            out += indent + line + "\n";
            indent.assign(22, ' ');
        }
    }
    return out;
}

std::optional<std::uint64_t>
parseCount(std::string_view text)
{
    // from_chars takes no sign, space or prefix for an unsigned value.
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

std::optional<double>
parseDecimal(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, value, std::chars_format::fixed);
    if (text.find_first_not_of("0123456789.") != std::string_view::npos ||
        ec != std::errc() || ptr != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

} // namespace cachecraft
