/**
 * @file
 * Quickstart: build a default CacheCraft-protected GPU, run one
 * kernel, and print the numbers that matter.
 *
 *   $ ./quickstart [workload]
 *
 * where workload is one of: streaming strided stencil2d gemm
 * transpose reduction histogram random spmv (default: streaming).
 */

#include <cstdio>

#include "core/cachecraft.hpp"

using namespace cachecraft;

int
main(int argc, char **argv)
{
    // 1. Pick a workload.
    WorkloadKind kind = WorkloadKind::kStreaming;
    if (argc > 1) {
        const auto parsed = parseWorkload(argv[1]);
        if (!parsed) {
            std::fprintf(stderr, "unknown workload '%s'\n", argv[1]);
            return 1;
        }
        kind = *parsed;
    }
    WorkloadParams wparams;
    wparams.footprintBytes = 8 * 1024 * 1024;
    wparams.numWarps = 256;
    const KernelTrace trace = makeWorkload(kind, wparams);

    // 2. Configure the system. The defaults are a mid-size GDDR6 GPU
    //    protected by CacheCraft (R1+R2+R3) over SEC-DED inline ECC.
    SystemConfig config;
    config.scheme = SchemeKind::kCacheCraft;
    config.codec = ecc::CodecKind::kSecDed;
    std::printf("--- configuration ---\n%s\n",
                config.describe().c_str());

    // 3. Run.
    GpuSystem gpu(config);
    const RunStats stats = gpu.run(trace);

    // 4. Report.
    std::printf("--- results: %s ---\n", trace.name.c_str());
    std::printf("cycles                 %llu\n",
                static_cast<unsigned long long>(stats.cycles));
    std::printf("instructions           %llu (IPC %.3f)\n",
                static_cast<unsigned long long>(stats.instructions),
                stats.ipc);
    std::printf("DRAM transactions      %llu\n",
                static_cast<unsigned long long>(stats.dramTotalTxns));
    std::printf("  data  rd/wr          %llu / %llu\n",
                static_cast<unsigned long long>(stats.dramDataReads),
                static_cast<unsigned long long>(stats.dramDataWrites));
    std::printf("  ecc   rd/wr          %llu / %llu\n",
                static_cast<unsigned long long>(stats.dramEccReads),
                static_cast<unsigned long long>(stats.dramEccWrites));
    std::printf("row-buffer hit rate    %.1f%%\n",
                100.0 * stats.rowHitRate);
    std::printf("MRC coverage           %.1f%%\n",
                100.0 * stats.mrcCoverage());

    // 5. Verify memory integrity end-to-end (golden comparison).
    const AuditResult audit = gpu.auditMemory();
    std::printf("memory audit           %llu sectors, %llu SDC\n",
                static_cast<unsigned long long>(audit.sectors),
                static_cast<unsigned long long>(
                    audit.silentCorruptions));
    return audit.silentCorruptions == 0 ? 0 : 1;
}
