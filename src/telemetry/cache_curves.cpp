#include "telemetry/cache_curves.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/log.hpp"

namespace cachecraft::telemetry {

namespace {

/** Fixed-pattern float for SVG coordinates (byte-stable output). */
std::string
fmt(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

void
writeCurveArray(JsonWriter &w, const std::vector<CurvePoint> &points)
{
    w.beginArray();
    for (const CurvePoint &p : points) {
        w.beginObject();
        w.key("ways").value(std::uint64_t{p.ways});
        w.key("capacity_bytes").value(p.capacityBytes);
        w.key("misses").value(p.misses);
        w.key("miss_ratio").value(p.missRatio);
        w.endObject();
    }
    w.endArray();
}

void
writeMatrix(JsonWriter &w,
            const std::vector<std::vector<std::uint64_t>> &columns)
{
    w.beginArray();
    for (const std::vector<std::uint64_t> &col : columns) {
        w.beginArray();
        for (std::uint64_t v : col)
            w.value(v);
        w.endArray();
    }
    w.endArray();
}

} // namespace

std::string
fmtCapacity(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        std::snprintf(buf, sizeof buf, "%llu MiB",
                      static_cast<unsigned long long>(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof buf, "%llu KiB",
                      static_cast<unsigned long long>(bytes >> 10));
    else
        std::snprintf(buf, sizeof buf, "%llu B",
                      static_cast<unsigned long long>(bytes));
    return buf;
}


std::vector<CurvePoint>
missRatioCurve(const CacheReuseMonitor &monitor)
{
    const ReuseGeometry &g = monitor.geometry();
    const std::uint64_t accesses = monitor.accesses();
    std::vector<CurvePoint> points;
    points.reserve(monitor.options().maxAssoc);
    for (unsigned ways = 1; ways <= monitor.options().maxAssoc; ++ways) {
        CurvePoint p;
        p.ways = ways;
        p.capacityBytes = static_cast<std::uint64_t>(g.numSets) * ways *
                          g.lineBytes;
        p.misses = monitor.missesAtWays(ways);
        p.missRatio = accesses > 0 ? static_cast<double>(p.misses) /
                                         static_cast<double>(accesses)
                                   : 0.0;
        points.push_back(p);
    }
    return points;
}

std::uint64_t
bruteForceLruMisses(const CacheReuseMonitor &monitor, unsigned ways)
{
    if (!monitor.options().retainStream)
        fatal("bruteForceLruMisses needs a retained stream "
              "(ReuseOptions::retainStream)");
    if (ways == 0)
        fatal("bruteForceLruMisses: zero ways");
    const ReuseGeometry &g = monitor.geometry();
    // One MRU-first recency list per set; allocate on miss, truncate
    // at the associativity. Deliberately naive — this is the oracle.
    std::vector<std::vector<Addr>> sets(g.numSets);
    std::uint64_t misses = 0;
    for (Addr line : monitor.retainedStream()) {
        const std::size_t set = static_cast<std::size_t>(
            (line / g.lineBytes) & (g.numSets - 1));
        std::vector<Addr> &stack = sets[set];
        const auto it = std::find(stack.begin(), stack.end(), line);
        if (it == stack.end()) {
            ++misses;
            stack.insert(stack.begin(), line);
            if (stack.size() > ways)
                stack.resize(ways);
        } else {
            stack.erase(it);
            stack.insert(stack.begin(), line);
        }
    }
    return misses;
}

std::vector<KindCurve>
aggregateByKind(const ReuseProfiler &profiler)
{
    std::vector<KindCurve> kinds;
    std::vector<bool> mixed; // parallel: geometry disagreed, unsummable
    for (const auto &m : profiler.monitors()) {
        auto it = std::find_if(kinds.begin(), kinds.end(),
                               [&](const KindCurve &k) {
                                   return k.kind == m->kind();
                               });
        if (it == kinds.end()) {
            KindCurve k;
            k.kind = m->kind();
            k.geometry = m->geometry();
            k.points = missRatioCurve(*m);
            for (CurvePoint &p : k.points) {
                p.misses = 0;
                p.missRatio = 0.0;
            }
            kinds.push_back(std::move(k));
            mixed.push_back(false);
            it = kinds.end() - 1;
        }
        const std::size_t ki =
            static_cast<std::size_t>(it - kinds.begin());
        if (it->geometry.numSets != m->geometry().numSets ||
            it->geometry.lineBytes != m->geometry().lineBytes) {
            // Mixed geometry within a kind: slices cannot be summed.
            mixed[ki] = true;
            continue;
        }
        ++it->caches;
        it->accesses += m->accesses();
        it->coldMisses += m->coldMisses();
        for (std::size_t i = 0; i < it->points.size(); ++i)
            it->points[i].misses += m->missesAtWays(it->points[i].ways);
    }
    std::vector<KindCurve> out;
    for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
        KindCurve &k = kinds[ki];
        if (mixed[ki] || k.caches == 0)
            continue;
        for (CurvePoint &p : k.points)
            p.missRatio = k.accesses > 0
                              ? static_cast<double>(p.misses) /
                                    static_cast<double>(k.accesses)
                              : 0.0;
        out.push_back(std::move(k));
    }
    return out;
}

void
writeCurvesJson(JsonWriter &w, const ReuseProfiler &profiler)
{
    const ReuseOptions &opts = profiler.options();
    w.beginObject();
    w.key("options").beginObject();
    w.key("max_assoc").value(std::uint64_t{opts.maxAssoc});
    w.key("set_groups").value(std::uint64_t{opts.setGroups});
    w.key("epoch_accesses").value(opts.epochAccesses);
    w.key("retain_stream").value(opts.retainStream);
    w.endObject();

    w.key("caches").beginArray();
    for (const auto &m : profiler.monitors()) {
        const ReuseGeometry &g = m->geometry();
        w.beginObject();
        w.key("name").value(m->name());
        w.key("kind").value(m->kind());
        w.key("num_sets").value(std::uint64_t{g.numSets});
        w.key("ways").value(std::uint64_t{g.numWays});
        w.key("line_bytes").value(std::uint64_t{g.lineBytes});
        w.key("sectors_per_line").value(std::uint64_t{g.sectorsPerLine});
        w.key("accesses").value(m->accesses());
        w.key("cold_misses").value(m->coldMisses());
        w.key("curve");
        writeCurveArray(w, missRatioCurve(*m));

        w.key("heatmap").beginObject();
        w.key("sets_per_group").value(std::uint64_t{m->setsPerGroup()});
        w.key("groups").value(std::uint64_t{m->numGroups()});
        w.key("epoch_accesses").value(m->epochLength());
        // Outer index = epoch (column), inner = set group (row).
        w.key("accesses");
        writeMatrix(w, m->accessColumns());
        w.key("occupancy");
        writeMatrix(w, m->occupancyColumns());
        w.endObject();

        // sector_locality[k] = lines that served exactly k distinct
        // sectors during one residency; for the MRC each sector is one
        // protection chunk's check field, so this is the co-residency
        // distribution the paper's locality argument rests on.
        w.key("sector_locality").beginArray();
        for (std::uint64_t count : m->sectorsServedHistogram())
            w.value(count);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("kinds").beginArray();
    for (const KindCurve &k : aggregateByKind(profiler)) {
        w.beginObject();
        w.key("kind").value(k.kind);
        w.key("caches").value(std::uint64_t{k.caches});
        w.key("num_sets").value(std::uint64_t{k.geometry.numSets});
        w.key("line_bytes").value(std::uint64_t{k.geometry.lineBytes});
        w.key("accesses").value(k.accesses);
        w.key("cold_misses").value(k.coldMisses);
        w.key("curve");
        writeCurveArray(w, k.points);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
renderCurvesSvg(const ReuseProfiler &profiler)
{
    const std::vector<KindCurve> kinds = aggregateByKind(profiler);
    const double width = 640.0;
    const double height = 360.0;
    const double left = 56.0;
    const double right = 16.0;
    const double top = 24.0;
    const double bottom = 44.0;
    const double plot_w = width - left - right;
    const double plot_h = height - top - bottom;

    double min_cap = 0.0;
    double max_cap = 0.0;
    for (const KindCurve &k : kinds) {
        for (const CurvePoint &p : k.points) {
            const double c = static_cast<double>(p.capacityBytes);
            if (min_cap == 0.0 || c < min_cap)
                min_cap = c;
            max_cap = std::max(max_cap, c);
        }
    }

    static constexpr const char *kColors[] = {"#2a78d6", "#eb6834",
                                              "#1baf7a", "#eda100"};
    std::ostringstream os;
    os << "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 "
       << fmt(width, 0) << " " << fmt(height, 0)
       << "\" font-family=\"sans-serif\" font-size=\"11\">\n"
       << "<rect width=\"" << fmt(width, 0) << "\" height=\""
       << fmt(height, 0) << "\" fill=\"#fcfcfb\"/>\n"
       << "<text x=\"" << fmt(left, 0) << "\" y=\"15\" font-size=\"13\""
          " fill=\"#0b0b0b\">Miss ratio vs capacity (one-pass reuse"
          " profile)</text>\n";

    if (kinds.empty() || max_cap <= 0.0) {
        os << "<text x=\"" << fmt(width / 2.0, 0) << "\" y=\""
           << fmt(height / 2.0, 0)
           << "\" text-anchor=\"middle\" fill=\"#898781\">no profiled"
              " accesses</text>\n</svg>\n";
        return os.str();
    }

    const double lmin = std::log2(min_cap);
    const double lmax = std::log2(std::max(max_cap, min_cap * 2.0));
    auto xOf = [&](double cap) {
        return left + plot_w * (std::log2(cap) - lmin) / (lmax - lmin);
    };
    auto yOf = [&](double ratio) { return top + plot_h * (1.0 - ratio); };

    // Horizontal grid at 0/25/50/75/100% miss ratio.
    for (int pct = 0; pct <= 100; pct += 25) {
        const double y = yOf(pct / 100.0);
        os << "<line x1=\"" << fmt(left, 1) << "\" y1=\"" << fmt(y, 1)
           << "\" x2=\"" << fmt(left + plot_w, 1) << "\" y2=\""
           << fmt(y, 1) << "\" stroke=\"#e1e0d9\"/>\n"
           << "<text x=\"" << fmt(left - 6.0, 1) << "\" y=\""
           << fmt(y + 4.0, 1)
           << "\" text-anchor=\"end\" fill=\"#52514e\">" << pct
           << "%</text>\n";
    }
    // Vertical ticks at power-of-two capacities.
    for (double lc = std::ceil(lmin); lc <= lmax; lc += 1.0) {
        const double x = left + plot_w * (lc - lmin) / (lmax - lmin);
        const auto cap = static_cast<std::uint64_t>(
            std::llround(std::exp2(lc)));
        os << "<line x1=\"" << fmt(x, 1) << "\" y1=\"" << fmt(top, 1)
           << "\" x2=\"" << fmt(x, 1) << "\" y2=\""
           << fmt(top + plot_h, 1) << "\" stroke=\"#e1e0d9\"/>\n"
           << "<text x=\"" << fmt(x, 1) << "\" y=\""
           << fmt(top + plot_h + 14.0, 1)
           << "\" text-anchor=\"middle\" fill=\"#52514e\">"
           << fmtCapacity(cap) << "</text>\n";
    }

    std::size_t ci = 0;
    for (const KindCurve &k : kinds) {
        const char *color = kColors[ci % std::size(kColors)];
        os << "<polyline fill=\"none\" stroke=\"" << color
           << "\" stroke-width=\"2\" points=\"";
        bool first = true;
        for (const CurvePoint &p : k.points) {
            os << (first ? "" : " ")
               << fmt(xOf(static_cast<double>(p.capacityBytes)), 1)
               << "," << fmt(yOf(p.missRatio), 1);
            first = false;
        }
        os << "\"/>\n<text x=\"" << fmt(left + 8.0 + 90.0 * ci, 1)
           << "\" y=\"" << fmt(height - 6.0, 1) << "\" fill=\"" << color
           << "\">" << k.kind << " (" << k.caches << " slice"
           << (k.caches == 1 ? "" : "s") << ")</text>\n";
        ++ci;
    }
    os << "</svg>\n";
    return os.str();
}

} // namespace cachecraft::telemetry
