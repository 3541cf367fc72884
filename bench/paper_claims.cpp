/**
 * @file
 * paper_claims — the stand-in evaluation of EXPERIMENTS.md (E1–E6,
 * E12) as one executable check over a report tree.
 *
 *   for s in e1_headline e5_mrc e5_l2 e6_ablation; do
 *       cachecraft_sweep bench/campaigns/$s.json --out runs/claims/$s
 *   done
 *   paper_claims runs/claims
 *
 * Every run report under the root is indexed by its campaign name,
 * workload and the knobs the experiments vary (scheme, L2 and MRC
 * size, R1/R2/R3), so the directory layout does not matter. The tool
 * prints each experiment's table (through bench_common's emit, so
 * CACHECRAFT_REPORT_DIR still collects them as JSON) and then checks
 * the shape EXPERIMENTS.md claims for it.
 *
 * Every column comes from a report's `results` section except four,
 * which only the `stats` registry holds: E2's ecc-rmw-rd, E3's
 * dirty-evictions, and E12/E12b's energy (computeEnergy over the
 * counters). The registry is read after the end-of-run flush of dirty
 * lines, while `results` is snapshotted before it, so on kernels that
 * write those columns include the flush's traffic.
 *
 * Exit codes: 0 every claim holds, 1 some claim fails (each one is
 * named), 2 usage error, or a point the claims need is missing from
 * the tree or its report carries warnings.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stats/energy.hpp"
#include "telemetry/report_set.hpp"

using namespace cachecraft;
using namespace cachecraft::bench;
using telemetry::numberAt;
using telemetry::stringAt;

namespace {

/** The five kernels of the E5 sweeps. */
const std::vector<WorkloadKind> kSweepKernels = {
    WorkloadKind::kStreaming, WorkloadKind::kStencil2D,
    WorkloadKind::kTranspose, WorkloadKind::kRandomAccess,
    WorkloadKind::kSpmv};

/** A needed point is absent from the tree, or its run was truncated. */
struct MissingPoint : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** One run point, as the experiments address it. Unset knobs take
 *  the SystemConfig defaults, which is what the specs leave them at. */
struct Point
{
    std::string campaign;
    WorkloadKind workload = WorkloadKind::kStreaming;
    SchemeKind scheme = SchemeKind::kCacheCraft;
    std::size_t l2Kib = SystemConfig{}.l2.cache.sizeBytes / 1024;
    std::size_t mrcKib = SystemConfig{}.mrc.sizeBytes / 1024;
    bool r1 = SystemConfig{}.mrc.chunkGranularity;
    bool r2 = SystemConfig{}.mrc.writebackMrc;
    bool r3 = SystemConfig{}.coLocatedLayout;
};

/** Index key and description of a point ("e5_mrc/gemm/cachecraft
 *  l2_kib=512 ..."). */
std::string
describe(const std::string &campaign, const std::string &workload,
         const std::string &scheme, double l2_kib, double mrc_kib, bool r1,
         bool r2, bool r3)
{
    return strCat(campaign, "/", workload, "/", scheme, " l2_kib=", l2_kib,
                  " mrc_kib=", mrc_kib, " chunk_granularity=", r1,
                  " writeback_mrc=", r2, " co_located_layout=", r3);
}

bool
boolAt(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->isBool() && v->asBool();
}

/** The run reports of one tree, indexed by point. */
class Tree
{
  public:
    explicit Tree(const telemetry::ReportSet &set)
    {
        for (const telemetry::LoadedReport &r : set.runs) {
            const JsonValue *manifest = r.doc.find("manifest");
            const JsonValue *config = r.doc.find("config");
            if (manifest == nullptr || config == nullptr ||
                r.doc.find("results") == nullptr)
                continue;
            runs_.emplace(
                describe(stringAt(*manifest, "campaign"),
                         stringAt(*manifest, "workload"),
                         stringAt(*config, "scheme"),
                         numberAt(*config, "l2_bytes_per_slice") / 1024,
                         numberAt(*config, "mrc_bytes_per_slice") / 1024,
                         boolAt(*config, "mrc_chunk_granularity"),
                         boolAt(*config, "mrc_writeback"),
                         boolAt(*config, "co_located_layout")),
                &r.doc);
        }
    }

    /** The report of @p p; throws MissingPoint. */
    const JsonValue &
    run(const Point &p) const
    {
        const std::string key =
            describe(p.campaign, toString(p.workload), toString(p.scheme),
                     static_cast<double>(p.l2Kib),
                     static_cast<double>(p.mrcKib), p.r1, p.r2, p.r3);
        const auto it = runs_.find(key);
        if (it == runs_.end())
            throw MissingPoint("no run report for " + key);
        const JsonValue *warnings = it->second->find("warnings");
        if (warnings != nullptr && warnings->isArray() &&
            !warnings->asArray().empty())
            throw MissingPoint("the run of " + key + " carries warnings");
        return *it->second;
    }

    /** results.@p key of @p p's report. */
    double
    result(const Point &p, std::string_view key) const
    {
        return numberAt(*run(p).find("results"), key);
    }

    double cycles(const Point &p) const { return result(p, "cycles"); }

    /** Every counter and scalar of @p p's stats registry, by name. */
    std::map<std::string, double>
    flatStats(const Point &p) const
    {
        std::map<std::string, double> all;
        const JsonValue *stats = run(p).find("stats");
        for (const char *section : {"counters", "scalars"}) {
            const JsonValue *s = stats ? stats->find(section) : nullptr;
            if (s == nullptr || !s->isObject())
                continue;
            for (const auto &[name, v] : s->asObject()) {
                if (v.isNumber())
                    all.emplace(name, v.asNumber());
            }
        }
        return all;
    }

    /** Sum of the protection-scheme counters named "*@p suffix"
     *  (one per L2 slice). */
    double
    schemeCounter(const Point &p, const std::string &suffix) const
    {
        double sum = 0.0;
        for (const auto &[name, v] : flatStats(p)) {
            if (name.starts_with("protect.") && name.ends_with(suffix))
                sum += v;
        }
        return sum;
    }

  private:
    std::map<std::string, const JsonValue *> runs_;
};

/** One verdict line per claim, printed after the tables. */
struct Claims
{
    std::vector<std::string> lines;
    std::size_t failed = 0;

    /** Record claim @p name; @p broken lists its counterexamples
     *  (empty: the claim holds). */
    void
    check(const std::string &name, const std::string &broken)
    {
        lines.push_back(broken.empty() ? "ok    " + name
                                       : "FAIL  " + name + ":" + broken);
        failed += !broken.empty();
    }
};

Point
e1(WorkloadKind kind, SchemeKind scheme)
{
    return {.campaign = "e1_headline", .workload = kind, .scheme = scheme};
}

/** Normalized values of one workload × scheme table, per scheme in
 *  workload order; the last entry of each is the GMEAN. */
using SchemeColumns = std::map<SchemeKind, std::vector<double>>;

/**
 * Print the workload × scheme table @p title of @p value normalized to
 * each workload's No-ECC value (No-ECC over it when @p inverse, for
 * cycles), with a GMEAN row.
 */
template <typename Value>
SchemeColumns
schemeTable(const std::string &title, Value value, bool inverse)
{
    ResultTable table(title);
    table.setHeader({"workload", "no-ecc", "inline-naive", "ecc-cache",
                     "cachecraft"});
    SchemeColumns columns;
    for (WorkloadKind kind : allWorkloads()) {
        std::vector<std::string> row{toString(kind)};
        const double base = value(kind, SchemeKind::kNone);
        for (SchemeKind scheme : allSchemes()) {
            const double v = value(kind, scheme);
            columns[scheme].push_back(inverse ? base / v : v / base);
            row.push_back(ResultTable::num(columns[scheme].back()));
        }
        table.addRow(row);
    }
    std::vector<std::string> gmean_row{"GMEAN"};
    for (SchemeKind scheme : allSchemes()) {
        const double g = geomean(columns[scheme]);
        columns[scheme].push_back(g);
        gmean_row.push_back(ResultTable::num(g));
    }
    table.addRow(gmean_row);
    emit(table);
    return columns;
}

/** The rows of @p columns (workloads, then "GMEAN") on which
 *  @p holds(at) is false; at(scheme) reads the row's value. */
template <typename Pred>
std::string
failingRows(const SchemeColumns &columns, Pred holds)
{
    std::string broken;
    const std::vector<WorkloadKind> kinds = allWorkloads();
    for (std::size_t i = 0; i <= kinds.size(); ++i) {
        const auto at = [&](SchemeKind s) { return columns.at(s)[i]; };
        if (!holds(at))
            broken += strCat(" ", i < kinds.size() ? toString(kinds[i])
                                                   : "GMEAN");
    }
    return broken;
}

/** E1: normalized performance per scheme, and its ordering. */
void
headline(const Tree &tree, Claims &claims)
{
    const SchemeColumns perf = schemeTable(
        "E1: Performance normalized to No-ECC (higher is better)",
        [&](WorkloadKind kind, SchemeKind scheme) {
            return tree.cycles(e1(kind, scheme));
        },
        /* inverse= */ true);

    const double naive = perf.at(SchemeKind::kInlineNaive).back();
    const double craft = perf.at(SchemeKind::kCacheCraft).back();
    const double recovered = (craft - naive) / (1.0 - naive);
    std::printf("CacheCraft speedup over inline-naive ECC: %.2fx\n",
                craft / naive);
    std::printf("CacheCraft speedup over prior ECC cache:  %.2fx\n",
                craft / perf.at(SchemeKind::kEccCache).back());
    std::printf("Inline-ECC loss recovered by CacheCraft:  %.0f%%\n\n",
                100.0 * recovered);

    // Normalized performance is No-ECC's cycles over the scheme's.
    claims.check("E1: cycles no-ECC <= CacheCraft < ECC-cache < "
                 "inline-naive on every kernel",
                 failingRows(perf, [](auto at) {
                     return at(SchemeKind::kInlineNaive) <
                                at(SchemeKind::kEccCache) &&
                            at(SchemeKind::kEccCache) <
                                at(SchemeKind::kCacheCraft) &&
                            at(SchemeKind::kCacheCraft) <=
                                at(SchemeKind::kNone);
                 }));
    claims.check("E1: CacheCraft recovers at least half of inline-naive's "
                 "GMEAN loss",
                 recovered >= 0.5 ? "" : strCat(" ", recovered));
}

/** E2: DRAM transactions per kilo-instruction, and the schemes'
 *  traffic identities. */
void
traffic(const Tree &tree, Claims &claims)
{
    ResultTable table("E2: DRAM transactions per kilo-instruction");
    table.setHeader({"workload", "scheme", "data-rd", "data-wr", "ecc-rd",
                     "ecc-rmw-rd", "ecc-wr", "total", "ecc-overhead%"});

    std::string naive_broken;
    for (WorkloadKind kind : allWorkloads()) {
        for (SchemeKind scheme : allSchemes()) {
            const Point p = e1(kind, scheme);
            const double kilo_insts = tree.result(p, "instructions") / 1000.0;
            const double data_rd = tree.result(p, "dram_data_reads");
            const double data_wr = tree.result(p, "dram_data_writes");
            const double ecc_rd = tree.result(p, "dram_ecc_reads");
            const double ecc_wr = tree.result(p, "dram_ecc_writes");
            const double data = data_rd + data_wr;
            const double ecc = ecc_rd + ecc_wr;
            table.addRow(
                {toString(kind), toString(scheme),
                 ResultTable::num(data_rd / kilo_insts, 1),
                 ResultTable::num(data_wr / kilo_insts, 1),
                 ResultTable::num(ecc_rd / kilo_insts, 1),
                 ResultTable::num(
                     tree.schemeCounter(p, ".ecc_rmw_reads") / kilo_insts,
                     1),
                 ResultTable::num(ecc_wr / kilo_insts, 1),
                 ResultTable::num(
                     tree.result(p, "dram_total_txns") / kilo_insts, 1),
                 ResultTable::num(data > 0 ? 100.0 * ecc / data : 0.0, 1)});
            if (scheme == SchemeKind::kInlineNaive &&
                (ecc_rd != data_rd + data_wr || ecc_wr != data_wr))
                naive_broken += strCat(" ", toString(kind));
        }
    }
    emit(table);

    const Point streaming = e1(WorkloadKind::kStreaming,
                               SchemeKind::kCacheCraft);
    const double ecc_rd = tree.result(streaming, "dram_ecc_reads");
    const double data_rd = tree.result(streaming, "dram_data_reads");
    claims.check("E2: inline-naive reads metadata once per data read and "
                 "write, and writes it once per data write",
                 naive_broken);
    claims.check("E2: CacheCraft on streaming reads one metadata chunk per "
                 "8 data sectors",
                 ecc_rd * 8 == data_rd
                     ? ""
                     : strCat(" ", ecc_rd, " x 8 != ", data_rd));
}

/** E3: MRC hit rate, coverage and amortization. */
void
mrcBehaviour(const Tree &tree, Claims &claims)
{
    ResultTable table("E3: MRC behaviour (CacheCraft vs ECC cache)");
    table.setHeader({"workload", "scheme", "mrc-hit%", "coverage%",
                     "amortization(rd/eccrd)", "dirty-evictions"});

    std::map<WorkloadKind, double> coverage;
    for (WorkloadKind kind : allWorkloads()) {
        for (SchemeKind scheme :
             {SchemeKind::kEccCache, SchemeKind::kCacheCraft}) {
            const Point p = e1(kind, scheme);
            const double ecc_rd = tree.result(p, "dram_ecc_reads");
            const double amort =
                ecc_rd ? tree.result(p, "dram_data_reads") / ecc_rd : 0.0;
            table.addRow(
                {toString(kind), toString(scheme),
                 ResultTable::num(100.0 * tree.result(p, "mrc_hit_rate"), 1),
                 ResultTable::num(100.0 * tree.result(p, "mrc_coverage"), 1),
                 ResultTable::num(amort, 2),
                 ResultTable::num(
                     tree.schemeCounter(p, ".mrc_dirty_evictions"), 0)});
            if (scheme == SchemeKind::kCacheCraft)
                coverage[kind] = tree.result(p, "mrc_coverage");
        }
    }
    emit(table);

    std::string lowest;
    for (const auto &[kind, cov] : coverage) {
        if (kind != WorkloadKind::kRandomAccess &&
            cov <= coverage[WorkloadKind::kRandomAccess])
            lowest += strCat(" ", toString(kind), " ", cov);
    }
    std::string local;
    for (WorkloadKind kind :
         {WorkloadKind::kStreaming, WorkloadKind::kStencil2D}) {
        if (coverage[kind] < 0.85)
            local += strCat(" ", toString(kind), " ", coverage[kind]);
    }
    const Point streaming = e1(WorkloadKind::kStreaming,
                               SchemeKind::kCacheCraft);
    const double amort = tree.result(streaming, "dram_data_reads") /
                         tree.result(streaming, "dram_ecc_reads");
    claims.check("E3: CacheCraft's MRC coverage is lowest on random", lowest);
    claims.check("E3: CacheCraft's MRC coverage is at least 0.85 on "
                 "streaming and stencil2d",
                 local);
    claims.check("E3: CacheCraft amortizes exactly 8 data reads per "
                 "metadata read on streaming",
                 amort == 8.0 ? "" : strCat(" ", amort));
}

/** The E6 point with R1, R2 and R3 set from bits 0, 1 and 2. */
Point
e6(WorkloadKind kind, unsigned mask)
{
    return {.campaign = "e6_ablation",
            .workload = kind,
            .r1 = (mask & 1) != 0,
            .r2 = (mask & 2) != 0,
            .r3 = (mask & 4) != 0};
}

/** E4: the R3 layout study, read from E6's R1+R2 rows. */
void
rowLocality(const Tree &tree, Claims &claims)
{
    ResultTable table(
        "E4: Row-buffer locality, segregated vs co-located layout");
    table.setHeader({"workload", "rowhit:no-ecc", "rowhit:segregated",
                     "rowhit:co-located", "cycles:segregated",
                     "cycles:co-located", "co-located speedup"});

    std::map<WorkloadKind, double> speedup;
    for (WorkloadKind kind : allWorkloads()) {
        const Point none = e1(kind, SchemeKind::kNone);
        const Point seg = e6(kind, 1 | 2);
        const Point co = e6(kind, 1 | 2 | 4);
        speedup[kind] = tree.cycles(seg) / tree.cycles(co);
        table.addRow(
            {toString(kind),
             ResultTable::num(tree.result(none, "row_hit_rate"), 3),
             ResultTable::num(tree.result(seg, "row_hit_rate"), 3),
             ResultTable::num(tree.result(co, "row_hit_rate"), 3),
             ResultTable::num(tree.cycles(seg), 0),
             ResultTable::num(tree.cycles(co), 0),
             ResultTable::num(speedup[kind], 3)});
    }
    emit(table);

    std::string wins;
    for (WorkloadKind kind : {WorkloadKind::kRandomAccess,
                              WorkloadKind::kSpmv, WorkloadKind::kGemmTiled}) {
        if (!(speedup[kind] > 1.0))
            wins += strCat(" ", toString(kind), " ", speedup[kind]);
    }
    const double transpose = speedup[WorkloadKind::kTranspose];
    claims.check("E4: co-location speeds up random, spmv and gemm", wins);
    claims.check("E4: co-location slows transpose (documented deviation)",
                 transpose < 1.0 ? "" : strCat(" ", transpose));
}

/** GMEAN over the E5 kernels of @p baseline's cycles over @p point's,
 *  each a function of the kernel. */
template <typename BaselineOf, typename PointOf>
double
sweepGmean(const Tree &tree, BaselineOf baseline, PointOf point)
{
    std::vector<double> normalized;
    for (WorkloadKind kind : kSweepKernels)
        normalized.push_back(tree.cycles(baseline(kind)) /
                             tree.cycles(point(kind)));
    return geomean(normalized);
}

/** E5: GMEAN normalized performance vs MRC and L2 capacity. */
void
sensitivity(const Tree &tree, Claims &claims)
{
    ResultTable mrc_table(
        "E5a: GMEAN normalized perf vs MRC size per slice (CacheCraft)");
    mrc_table.setHeader({"mrc-size", "gmean-norm-perf"});
    const std::vector<std::size_t> mrc_kibs = {1, 2, 4, 8, 16, 32, 64};
    std::vector<double> by_mrc;
    for (std::size_t kib : mrc_kibs) {
        by_mrc.push_back(sweepGmean(
            tree,
            [](WorkloadKind kind) { return e1(kind, SchemeKind::kNone); },
            [kib](WorkloadKind kind) {
                return Point{
                    .campaign = "e5_mrc", .workload = kind, .mrcKib = kib};
            }));
        mrc_table.addRow({std::to_string(kib) + " KiB",
                          ResultTable::num(by_mrc.back())});
    }
    emit(mrc_table);

    ResultTable l2_table("E5b: GMEAN normalized perf vs L2 size (all schemes)");
    l2_table.setHeader({"l2-total", "inline-naive", "ecc-cache",
                        "cachecraft"});
    const unsigned slices = SystemConfig{}.dram.numChannels;
    std::string band;
    std::string beats;
    for (std::size_t mib : {1, 2, 4, 8}) {
        std::vector<std::string> row{std::to_string(mib) + " MiB"};
        std::map<SchemeKind, double> gmean;
        const auto at = [mib, slices](WorkloadKind kind, SchemeKind scheme) {
            return Point{.campaign = "e5_l2",
                         .workload = kind,
                         .scheme = scheme,
                         .l2Kib = mib * 1024 / slices};
        };
        for (SchemeKind scheme :
             {SchemeKind::kInlineNaive, SchemeKind::kEccCache,
              SchemeKind::kCacheCraft}) {
            gmean[scheme] = sweepGmean(
                tree,
                [&](WorkloadKind kind) { return at(kind, SchemeKind::kNone); },
                [&](WorkloadKind kind) { return at(kind, scheme); });
            row.push_back(ResultTable::num(gmean[scheme]));
        }
        l2_table.addRow(row);
        const double craft = gmean[SchemeKind::kCacheCraft];
        if (craft < 0.82 || craft > 0.85)
            band += strCat(" ", mib, " MiB ", craft);
        if (!(craft > gmean[SchemeKind::kEccCache] &&
              craft > gmean[SchemeKind::kInlineNaive]))
            beats += strCat(" ", mib, " MiB");
    }
    emit(l2_table);

    std::size_t knee = 0;
    for (std::size_t i = 1; i + 1 < by_mrc.size(); ++i) {
        if (by_mrc[i + 1] - by_mrc[i] > by_mrc[knee + 1] - by_mrc[knee])
            knee = i;
    }
    const std::size_t best =
        std::max_element(by_mrc.begin(), by_mrc.end()) - by_mrc.begin();
    claims.check("E5a: the largest gain between adjacent MRC sizes is "
                 "8 -> 16 KiB",
                 mrc_kibs[knee] == 8
                     ? ""
                     : strCat(" ", mrc_kibs[knee], " -> ",
                              mrc_kibs[knee + 1], " KiB"));
    claims.check("E5a: 64 KiB is the best MRC size",
                 mrc_kibs[best] == 64
                     ? ""
                     : strCat(" ", mrc_kibs[best], " KiB is"));
    claims.check("E5b: CacheCraft's GMEAN stays within [0.82, 0.85] at "
                 "every L2 size",
                 band);
    claims.check("E5b: CacheCraft beats ECC-cache and inline-naive at every "
                 "L2 size",
                 beats);
}

/** "R1+R3" for a mask of R1 (bit 0), R2 (bit 1) and R3 (bit 2). */
std::string
variantName(unsigned mask)
{
    std::string name;
    for (unsigned bit = 0; bit < 3; ++bit) {
        if (mask & (1u << bit))
            name += strCat(name.empty() ? "" : "+", "R", bit + 1);
    }
    return name.empty() ? "none" : name;
}

/** E6: every subset of R1/R2/R3, and monotone stacking. */
void
ablation(const Tree &tree, Claims &claims)
{
    ResultTable table(
        "E6: Ablation of CacheCraft mechanisms (GMEAN over suite)");
    table.setHeader({"variant", "gmean-norm-perf", "ecc-txns/kinst"});

    std::map<unsigned, double> gmean;
    for (unsigned mask : {0u, 1u, 2u, 4u, 3u, 5u, 6u, 7u}) {
        std::vector<double> normalized;
        double ecc_txns = 0.0;
        double kinsts = 0.0;
        for (WorkloadKind kind : allWorkloads()) {
            const Point p = e6(kind, mask);
            normalized.push_back(tree.cycles(e1(kind, SchemeKind::kNone)) /
                                 tree.cycles(p));
            ecc_txns += tree.result(p, "dram_ecc_reads") +
                        tree.result(p, "dram_ecc_writes");
            kinsts += tree.result(p, "instructions") / 1000.0;
        }
        gmean[mask] = geomean(normalized);
        const std::string label = mask == 0   ? "none (MRC only)"
                                  : mask == 7 ? "R1+R2+R3 (full)"
                                              : variantName(mask);
        table.addRow({label, ResultTable::num(gmean[mask]),
                      ResultTable::num(ecc_txns / kinsts, 1)});
    }
    emit(table);

    std::string broken;
    for (const auto &[mask, g] : gmean) {
        for (unsigned bit : {1u, 2u, 4u}) {
            if (!(mask & bit) && !(gmean[mask | bit] > g))
                broken += strCat(" ", variantName(mask), " -> ",
                                 variantName(mask | bit), " (", g, " -> ",
                                 gmean[mask | bit], ")");
        }
    }
    claims.check("E6: adding any one of R1, R2, R3 to any subset raises "
                 "GMEAN",
                 broken);
}

/** E12: DRAM energy per scheme, and CacheCraft's breakdown. */
void
energy(const Tree &tree, Claims &claims)
{
    const SchemeColumns dram = schemeTable(
        "E12: DRAM energy normalized to No-ECC",
        [&](WorkloadKind kind, SchemeKind scheme) {
            return computeEnergy(tree.flatStats(e1(kind, scheme))).dramNj();
        },
        /* inverse= */ false);

    ResultTable breakdown(
        "E12b: Energy breakdown, CacheCraft on streaming (nJ)");
    breakdown.setHeader({"component", "energy-nJ", "share%"});
    const EnergyBreakdown e = computeEnergy(tree.flatStats(
        e1(WorkloadKind::kStreaming, SchemeKind::kCacheCraft)));
    const auto add = [&](const char *name, double nj) {
        breakdown.addRow({name, ResultTable::num(nj, 0),
                          ResultTable::num(100.0 * nj / e.totalNj(), 1)});
    };
    add("dram activate", e.dramActivateNj);
    add("dram read", e.dramReadNj);
    add("dram write", e.dramWriteNj);
    add("l1", e.l1Nj);
    add("l2", e.l2Nj);
    add("mrc", e.mrcNj);
    add("codec", e.codecNj);
    add("crossbar", e.xbarNj);
    add("TOTAL", e.totalNj());
    emit(breakdown);

    claims.check("E12: DRAM energy inline-naive > ECC-cache > CacheCraft on "
                 "every kernel and on GMEAN",
                 failingRows(dram, [](auto at) {
                     return at(SchemeKind::kCacheCraft) <
                                at(SchemeKind::kEccCache) &&
                            at(SchemeKind::kEccCache) <
                                at(SchemeKind::kInlineNaive);
                 }));
}

void
usage()
{
    std::printf(
        "paper_claims — print EXPERIMENTS.md's E1-E6/E12 tables from a\n"
        "report tree and check the shape each experiment claims\n"
        "\n"
        "  paper_claims ROOT\n"
        "\n"
        "ROOT holds cachecraft_sweep trees of bench/campaigns/\n"
        "e1_headline.json, e5_mrc.json, e5_l2.json and e6_ablation.json\n"
        "(any layout; points are found by campaign name and knobs).\n"
        "\n"
        "exit codes: 0 every claim holds, 1 some claim fails,\n"
        "            2 usage error or a needed point missing/failed\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && (std::string(argv[1]) == "--help" ||
                      std::string(argv[1]) == "-h")) {
        usage();
        return 0;
    }
    if (argc != 2 || argv[1][0] == '-') {
        usage();
        return 2;
    }

    const telemetry::ReportSet set = telemetry::loadReportTree(argv[1]);
    for (const std::string &error : set.errors)
        std::fprintf(stderr, "paper_claims: warning: %s\n", error.c_str());
    const Tree tree(set);

    Claims claims;
    try {
        headline(tree, claims);
        traffic(tree, claims);
        mrcBehaviour(tree, claims);
        rowLocality(tree, claims);
        sensitivity(tree, claims);
        ablation(tree, claims);
        energy(tree, claims);
    } catch (const MissingPoint &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "paper_claims: %s: %s\n", argv[1], e.what());
        return 2;
    }
    std::printf("== Claims ==\n");
    for (const std::string &line : claims.lines)
        std::printf("%s\n", line.c_str());
    std::printf("paper_claims: %zu of %zu claims hold\n",
                claims.lines.size() - claims.failed, claims.lines.size());
    return claims.failed == 0 ? 0 : 1;
}
