#include "gpu/sm_core.hpp"

#include "common/log.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace cachecraft {

SmCore::SmCore(std::string name, SmId id, const SmParams &params,
               EventQueue &events, L2ReadFn l2_read, L2WriteFn l2_write,
               TagFn tag_of, StatRegistry *stats,
               telemetry::Telemetry *telemetry)
    : name_(std::move(name)), id_(id), params_(params), events_(events),
      l2Read_(std::move(l2_read)), l2Write_(std::move(l2_write)),
      tagOf_(std::move(tag_of)), telemetry_(telemetry),
      l1_(name_ + ".l1", params.l1, stats),
      l1Mshrs_(name_ + ".l1mshr", params.l1MshrEntries, stats)
{
    if (stats) {
        stats->registerCounter(name_ + ".insts", &statInsts);
        stats->registerCounter(name_ + ".mem_insts", &statMemInsts);
        stats->registerCounter(name_ + ".store_insts", &statStoreInsts);
        stats->registerCounter(name_ + ".sectors", &statSectorsAccessed);
        stats->registerCounter(name_ + ".l1_stall_retries",
                               &statL1StallRetries);
        stats->registerHistogram(name_ + ".mem_latency", &statMemLatency);
    }
}

void
SmCore::addWarp(const std::vector<WarpInst> *insts)
{
    WarpState state;
    state.insts = insts;
    warps_.push_back(state);
}

void
SmCore::start()
{
    for (std::size_t w = 0; w < warps_.size(); ++w) {
        if (warps_[w].insts->empty())
            ++warpsDone_;
        else
            makeReady(w);
    }
}

const char *
toString(WarpSched sched)
{
    switch (sched) {
      case WarpSched::kRoundRobin:
        return "round-robin";
      case WarpSched::kGto:
        return "gto";
    }
    return "unknown";
}

void
SmCore::makeReady(std::size_t w, bool greedy)
{
    if (greedy && params_.scheduler == WarpSched::kGto)
        readyQueue_.push_front(w);
    else
        readyQueue_.push_back(w);
    scheduleIssue();
}

void
SmCore::scheduleIssue()
{
    if (issueScheduled_ || readyQueue_.empty())
        return;
    issueScheduled_ = true;
    const Cycle when = std::max(events_.now(), nextIssueAt_);
    events_.schedule(when, [this] { issueNext(); });
}

void
SmCore::issueNext()
{
    issueScheduled_ = false;
    if (readyQueue_.empty())
        return;
    const std::size_t w = readyQueue_.front();
    readyQueue_.pop_front();
    nextIssueAt_ = events_.now() + 1;

    WarpState &warp = warps_[w];
    const WarpInst &inst = (*warp.insts)[warp.pc];

    if (!inst.isMem) {
        // Pure compute: the warp is busy for the stated latency.
        const Cycle busy = std::max<Cycle>(1, inst.computeCycles);
        events_.scheduleAfter(busy, [this, w] { retire(w); });
    } else if (inst.computeCycles > 0) {
        events_.scheduleAfter(inst.computeCycles,
                              [this, w] { startMemory(w); });
    } else {
        startMemory(w);
    }
    scheduleIssue();
}

void
SmCore::startMemory(std::size_t w)
{
    WarpState &warp = warps_[w];
    const WarpInst &inst = (*warp.insts)[warp.pc];
    const bool active = telemetry_ && telemetry_->active();
    warp.traceId = active ? telemetry_->newId() : 0;
    const auto sectors = coalesce(inst);
    if (telemetry_ && !sectors.empty()) {
        if (auto *fr = telemetry_->recorder())
            fr->record(telemetry::RecordKind::kCoalesce, warp.traceId,
                       events_.now(), sectors.front().sectorAddr,
                       static_cast<std::uint32_t>(sectors.size()));
    }
    if (sectors.empty()) {
        retire(w);
        return;
    }

    const ecc::MemTag tag =
        inst.tagOverride >= 0
            ? static_cast<ecc::MemTag>(inst.tagOverride)
            : tagOf_(sectors.front().sectorAddr);

    warp.pendingSectors = static_cast<unsigned>(sectors.size());
    warp.memIssuedAt = events_.now();
    statSectorsAccessed.inc(sectors.size());
    for (const SectorRequest &req : sectors) {
        // Each coalesced sector gets its own lifecycle id; the flight
        // record ties it back to the warp instruction (low id bits).
        const std::uint64_t sid = active ? telemetry_->newId() : 0;
        if (telemetry_) {
            if (auto *fr = telemetry_->recorder())
                fr->record(telemetry::RecordKind::kRequestStart, sid,
                           events_.now(), req.sectorAddr,
                           static_cast<std::uint32_t>(warp.traceId),
                           0,
                           req.isWrite ? telemetry::kFlagWrite : 0);
        }
        issueSector(w, req, tag, sid);
    }
}

void
SmCore::issueSector(std::size_t w, SectorRequest req, ecc::MemTag tag,
                    std::uint64_t id)
{
    telemetry::FlightRecorder *fr =
        telemetry_ ? telemetry_->recorder() : nullptr;
    if (req.isWrite) {
        // Write-through, no write-allocate: update L1 state if the
        // sector is resident (keeping it coherent), always send the
        // store to L2, and complete immediately (posted).
        const auto probe = l1_.probe(req.sectorAddr);
        if (probe.sectorHit)
            l1_.access(req.sectorAddr, /* is_write= */ false);
        l2Write_(req.sectorAddr, tag);
        sectorDone(w, id);
        return;
    }

    const auto result = l1_.access(req.sectorAddr, /* is_write= */ false);
    if (result.sectorHit) {
        if (fr)
            fr->record(telemetry::RecordKind::kL1Hit, id, events_.now(),
                       req.sectorAddr,
                       static_cast<std::uint32_t>(params_.l1HitLatency),
                       0, telemetry::kFlagHit);
        events_.scheduleAfter(params_.l1HitLatency,
                              [this, w, id] { sectorDone(w, id); });
        return;
    }

    using Outcome = MshrFile::AllocOutcome;
    const Outcome outcome = l1Mshrs_.allocate(req.sectorAddr, 1, 0);
    switch (outcome) {
      case Outcome::kMergedExisting:
      case Outcome::kMergedNewSector:
        if (fr)
            fr->record(telemetry::RecordKind::kL1MshrMerge, id,
                       events_.now(), req.sectorAddr);
        waiting_[req.sectorAddr].push_back(
            [this, w, id] { sectorDone(w, id); });
        return;
      case Outcome::kFull:
        // Park until an MSHR frees (no polling).
        statL1StallRetries.inc();
        if (fr)
            fr->record(telemetry::RecordKind::kL1MshrBlocked, id,
                       events_.now(), req.sectorAddr);
        blocked_.push_back(BlockedSector{w, req, tag, id});
        return;
      case Outcome::kNewEntry:
        break;
    }

    waiting_[req.sectorAddr].push_back(
        [this, w, id] { sectorDone(w, id); });
    l2Read_(
        req.sectorAddr, tag,
        [this, addr = req.sectorAddr] {
            // Fill the L1 (write-through L1 lines are never dirty, so
            // the eviction needs no writeback).
            const SectorMask bit =
                static_cast<SectorMask>(1u << sectorInLine(addr));
            l1_.fill(addr, bit, 0);
            l1Mshrs_.release(addr);
            auto node = waiting_.extract(addr);
            if (!node.empty()) {
                for (auto &waiter : node.mapped())
                    waiter();
            }
            // Re-admit parked sectors while MSHR slots remain.
            // Admitting just one would lose a wakeup: if it hits in
            // the L1 (its line arrived with this fill), it consumes
            // the admission without allocating an MSHR, and — were
            // this the last outstanding fetch — the rest of the queue
            // would starve with an empty event queue (deadlock found
            // by cachecraft_fuzz).
            while (!blocked_.empty() &&
                   l1Mshrs_.size() < l1Mshrs_.capacity()) {
                const BlockedSector blocked = blocked_.front();
                blocked_.pop_front();
                if (telemetry_) {
                    if (auto *rec = telemetry_->recorder())
                        rec->record(telemetry::RecordKind::kL1MshrAdmit,
                                    blocked.id, events_.now(),
                                    blocked.req.sectorAddr);
                }
                issueSector(blocked.warp, blocked.req, blocked.tag,
                            blocked.id);
            }
        },
        id);
}

void
SmCore::sectorDone(std::size_t w, std::uint64_t id)
{
    WarpState &warp = warps_[w];
    if (telemetry_ && id != 0) {
        if (auto *fr = telemetry_->recorder())
            fr->record(telemetry::RecordKind::kComplete, id,
                       events_.now());
    }
    if (--warp.pendingSectors > 0)
        return;
    statMemLatency.sample(events_.now() - warp.memIssuedAt);
    retire(w, /* was_memory= */ true);
}

void
SmCore::retire(std::size_t w, bool was_memory)
{
    WarpState &warp = warps_[w];
    const WarpInst &inst = (*warp.insts)[warp.pc];
    statInsts.inc();
    if (inst.isMem) {
        statMemInsts.inc();
        if (inst.isWrite)
            statStoreInsts.inc();
    }
    warp.pc++;
    if (warp.pc >= warp.insts->size()) {
        ++warpsDone_;
        return;
    }
    // GTO: a warp that just did cheap compute stays greedy; one that
    // returned from a memory stall yields to older ready warps.
    makeReady(w, /* greedy= */ !was_memory);
}

} // namespace cachecraft
