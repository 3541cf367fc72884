#include "gpu/coalescer.hpp"

#include <algorithm>

namespace cachecraft {

std::vector<SectorRequest>
coalesce(const WarpInst &inst)
{
    std::vector<SectorRequest> out;
    out.reserve(4);
    for (Addr lane : inst.lanes) {
        const Addr sector = sectorBase(lane);
        const bool seen = std::any_of(
            out.begin(), out.end(),
            [sector](const SectorRequest &r) {
                return r.sectorAddr == sector;
            });
        if (!seen)
            out.push_back(SectorRequest{sector, inst.isWrite});
    }
    return out;
}

} // namespace cachecraft
