#include "protect/mrc_scheme.hpp"

#include <memory>

#include "common/log.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/reuse_dist.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

namespace {

CacheParams
mrcParams(const MrcOptions &options, std::uint64_t seed)
{
    CacheParams params;
    params.sizeBytes = options.sizeBytes;
    params.assoc = options.assoc;
    params.lineBytes = kEccChunkBytes; // one ECC chunk per line
    params.sectorBytes = ecc::kCheckBytesPerSector;
    params.repl = ReplPolicyKind::kLru;
    params.seed = seed;
    return params;
}

} // namespace

MrcScheme::MrcScheme(const SchemeContext &ctx, const MrcOptions &options,
                     bool cachecraft)
    : ProtectionScheme(ctx), options_(options), cachecraft_(cachecraft),
      mrc_(ctx.name + ".mrc", mrcParams(options, ctx.channel + 1),
           ctx.stats)
{
    if (ctx_.telemetry) {
        if (auto *rp = ctx_.telemetry->reuse()) {
            telemetry::ReuseGeometry geom;
            geom.numSets = mrc_.numSets();
            geom.numWays = mrc_.numWays();
            geom.lineBytes = mrc_.params().lineBytes;
            geom.sectorsPerLine = mrc_.sectorsPerLine();
            mrc_.setObserver(rp->attach(mrc_.name(), "mrc", geom));
        }
    }
}

Addr
MrcScheme::mrcAddr(Addr logical) const
{
    // Index by *channel-local* chunk id: this slice only ever sees
    // every numChannels-th chunk of the global space, so indexing by
    // the global id would leave most MRC sets unused (and is not how
    // a per-partition structure would be wired).
    const Addr local = ctx_.map->channelLocalOf(logical);
    const Addr chunk = chunkBase(local);
    return chunk / kSectorsPerChunk +
           sectorInChunk(local) * kCheckBytes;
}

Addr
MrcScheme::chunkLogicalOf(Addr mrc_line_addr) const
{
    return ctx_.map->globalOf(ctx_.channel,
                              mrc_line_addr * kSectorsPerChunk);
}

void
MrcScheme::handleEviction(const std::optional<Eviction> &ev)
{
    if (!ev)
        return;
    stats.mrcEvictions.inc();
    if (ev->dirtyMask)
        writeOutDirtyChunk(*ev);
}

void
MrcScheme::writeOutDirtyChunk(const Eviction &ev)
{
    stats.mrcDirtyEvictions.inc();
    const Addr chunk_logical = chunkLogicalOf(ev.lineAddr);

    // Functional: publish the reconstructed (current) check fields to
    // DRAM storage — only the dirty ones, so injected ECC faults in
    // untouched fields survive.
    syncChunkToStorage(chunk_logical, ev.dirtyMask);

    // Timing: a fully resident chunk writes out as one transaction
    // (the reconstruction win); a partial chunk needs a deferred RMW.
    const SectorMask full = static_cast<SectorMask>(
        (1u << kSectorsPerChunk) - 1);
    if (ev.validMask == full) {
        issueEccTxn(chunk_logical, /* is_write= */ true, nullptr);
    } else {
        stats.eccRmwReads.inc();
        issueEccTxn(chunk_logical, /* is_write= */ false,
                    [this, chunk_logical] {
                        issueEccTxn(chunk_logical, /* is_write= */ true,
                                    nullptr);
                    });
    }
}

void
MrcScheme::withCheckField(Addr logical, WakeFn fn,
                          std::uint64_t trace_id)
{
    const auto probe = mrc_.access(mrcAddr(logical),
                                   /* is_write= */ false);
    if (ctx_.telemetry && trace_id != 0) {
        // The probe record carries the chunk's MRC line address and
        // this slice's index so the analyzer can pair a miss with the
        // kMrcFill that resolves it (every slice has the same lines).
        if (auto *fr = ctx_.telemetry->recorder())
            fr->record(telemetry::RecordKind::kMrcProbe, trace_id,
                       ctx_.events->now(),
                       alignDown(mrcAddr(logical), kEccChunkBytes), 0,
                       static_cast<std::uint16_t>(ctx_.channel),
                       probe.sectorHit ? telemetry::kFlagHit : 0);
    }
    if (probe.sectorHit) {
        stats.mrcHits.inc();
        fn(true);
        return;
    }
    stats.mrcMisses.inc();
    if (ctx_.telemetry) {
        if (auto *prof = ctx_.telemetry->profiler()) {
            // The access is blocked from here until the chunk fetch
            // makes the field resident.
            const Cycle start = ctx_.events->now();
            const std::uint32_t inner =
                ctx_.arenas->parkedWakes.acquire(std::move(fn));
            fn = [this, prof, start, inner](bool resident) {
                prof->chargeStall(telemetry::StallReason::kMrcProbeBlock,
                                  start, ctx_.events->now());
                WakeFn parked =
                    std::move(ctx_.arenas->parkedWakes[inner]);
                ctx_.arenas->parkedWakes.release(inner);
                parked(resident);
            };
        }
    }
    fetchChunk(logical, std::move(fn), trace_id);
}

void
MrcScheme::fetchChunk(Addr logical, WakeFn fn, std::uint64_t trace_id)
{
    CC_HOST_ZONE("protect.fetch_chunk");
    const Addr line = alignDown(mrcAddr(logical), kEccChunkBytes);
    auto it = pendingFetch_.find(line);
    if (it != pendingFetch_.end()) {
        // A fetch of this chunk is already in flight; piggyback.
        stats.mrcFetchMerges.inc();
        it->second.push_back(std::move(fn));
        return;
    }
    std::vector<WakeFn> waiters;
    waiters.push_back(std::move(fn));
    pendingFetch_.emplace(line, std::move(waiters));

    issueEccTxn(
        logical, /* is_write= */ false,
        [this, logical, line, trace_id] {
            // The fill record is keyed by (slice, MRC line): every
            // miss probe of this chunk (merged waiters included)
            // resolves against it, whatever its own lifecycle id.
            if (ctx_.telemetry) {
                if (auto *fr = ctx_.telemetry->recorder())
                    fr->record(telemetry::RecordKind::kMrcFill,
                               trace_id, ctx_.events->now(), line, 0,
                               static_cast<std::uint16_t>(ctx_.channel));
            }
            // R1: reconstruct the whole chunk on chip; otherwise
            // retain only the 4 B field that was actually needed.
            const SectorMask mask =
                options_.chunkGranularity
                    ? static_cast<SectorMask>((1u << kSectorsPerChunk) -
                                              1)
                    : static_cast<SectorMask>(
                          1u << sectorInChunk(logical));
            handleEviction(mrc_.fill(mrcAddr(logical), mask, 0));

            auto node = pendingFetch_.extract(line);
            if (node.empty())
                return;
            for (auto &waiter : node.mapped())
                waiter(false);
        },
        trace_id);
}

void
MrcScheme::readSector(Addr logical, ecc::MemTag tag, FetchCallback done,
                      std::uint64_t trace_id)
{
    CC_HOST_ZONE("protect.read_sector");
    // Data txn and check-field probe join in the read arena; the last
    // arrival decodes and completes.
    const std::uint32_t handle =
        acquireRead(std::move(done), logical, tag, trace_id,
                    /* fanin= */ 2);
    issueDataTxn(logical, /* is_write= */ false,
                 [this, handle] { joinRead(handle); }, trace_id);
    withCheckField(
        logical,
        [this, handle](bool resident) {
            // A resident field is the on-chip reconstructed copy
            // (shadow bytes); a fetched field is whatever DRAM held,
            // faults included.
            if (resident) {
                readSlot(handle).fromShadow = true;
#if defined(CACHECRAFT_VERIFY_ENABLED)
                if (verify::Listener *l = verify::activeListener()) {
                    const PendingRead &slot = readSlot(handle);
                    const ecc::SectorCheck chk =
                        readShadowCheck(slot.logical);
                    l->onMrcResidentCheck(
                        slot.logical,
                        static_cast<std::uint8_t>(slot.tagBits),
                        chk.data());
                }
#endif
            }
            joinRead(handle);
        },
        trace_id);
}

void
MrcScheme::writeSector(Addr logical, const ecc::SectorData &data,
                       ecc::MemTag tag)
{
    CC_HOST_ZONE("protect.write_sector");
    // Functional state first: data to DRAM, fresh check field to the
    // shadow (the on-chip reconstructed value).
    CACHECRAFT_VERIFY_HOOK(onWriteSector(logical, data.data(), tag));
    ctx_.dram->writeBytes(ctx_.channel, dataPhys(logical),
                          std::span<const std::uint8_t>(data));
    const ecc::SectorCheck check = ctx_.codec->encode(data, tag);
    if (!options_.plantStaleMetaBug)
        writeShadowCheck(logical, check);

    issueDataTxn(logical, /* is_write= */ true, nullptr);

    const Addr maddr = mrcAddr(logical);
    const auto probe = mrc_.access(maddr, /* is_write= */ true);

    if (options_.writebackMrc) {
        // R2: coalesce in the MRC; no metadata transaction now.
        if (probe.sectorHit) {
            stats.mrcHits.inc();
        } else {
            stats.mrcMisses.inc();
            const SectorMask bit =
                static_cast<SectorMask>(1u << sectorInChunk(logical));
            // Allocate and mark our field dirty *now* — the on-chip
            // reconstructed value must be flushable at any instant.
            handleEviction(mrc_.fill(maddr, bit, bit));
            if (options_.fetchOnWriteMiss) {
                // Reconstruct the rest of the chunk while this
                // sector's data row is open; the fill ORs the valid
                // mask and preserves dirty bits, so the later
                // eviction is a single full-chunk write, not an RMW.
                fetchChunk(logical, WakeFn([](bool) {}));
            }
        }
        // Eager writeout: a fully dirty chunk is completely
        // reconstructed on chip — flush it while the data row its
        // last writeback opened is still hot.
        const SectorMask full = static_cast<SectorMask>(
            (1u << kSectorsPerChunk) - 1);
        if (options_.eagerWriteout &&
            mrc_.dirtySectors(maddr) == full) {
            stats.mrcEagerWriteouts.inc();
            const Addr chunk_logical = chunkLogicalOf(
                alignDown(mrcAddr(logical), kEccChunkBytes));
            syncChunkToStorage(chunk_logical, full);
            issueEccTxn(chunk_logical, /* is_write= */ true, nullptr);
            mrc_.cleanSectors(maddr, full);
        }
        return;
    }

    // Write-through (prior-art ECC cache): the check field must reach
    // DRAM now. A resident chunk skips the RMW read; a miss pays it.
    publishCheckToStorage(logical, check);
    if (probe.sectorHit) {
        stats.mrcHits.inc();
        issueEccTxn(logical, /* is_write= */ true, nullptr);
        return;
    }
    stats.mrcMisses.inc();
    stats.eccRmwReads.inc();
    issueEccTxn(logical, /* is_write= */ false, [this, logical] {
        issueEccTxn(logical, /* is_write= */ true, nullptr);
    });
    // Retain the chunk for future reads (read-caching benefit).
    const SectorMask mask =
        options_.chunkGranularity
            ? static_cast<SectorMask>((1u << kSectorsPerChunk) - 1)
            : static_cast<SectorMask>(1u << sectorInChunk(logical));
    handleEviction(mrc_.fill(maddr, mask, 0));
}

void
MrcScheme::flush()
{
    std::vector<Eviction> dirty;
    mrc_.forEachLine([&dirty](Addr line, SectorMask valid,
                              SectorMask dirty_mask) {
        if (dirty_mask) {
            Eviction ev;
            ev.lineAddr = line;
            ev.validMask = valid;
            ev.dirtyMask = dirty_mask;
            dirty.push_back(ev);
        }
    });
    for (const Eviction &ev : dirty) {
        writeOutDirtyChunk(ev);
        mrc_.cleanSectors(ev.lineAddr, ev.dirtyMask);
    }
}

} // namespace cachecraft
