#include "delta/delta_log.h"

#include <cstring>

#include "delta/frame_format.h"
#include "psan/psan.h"
#include "psan/psan_storage.h"
#include "storage/sealed.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pccheck {

using delta_wire::RawChunkRef;
using delta_wire::RawFrameHeader;

static_assert(sizeof(RawFrameHeader) == DeltaLog::kFrameAlign);

namespace {

/**
 * The one frame walk: yield each frame of the chain on (@p base_counter,
 * @p base_iteration) to @p visit(frame, payload) until it returns false
 * or the chain ends: at a torn or unreadable header (an unsealed frame,
 * an old epoch's garbage), a frame out of sequence, on another base,
 * not newer than its predecessor (an older timeline after salvage) or
 * too big for the region; or just after a frame with !payload_ok.
 */
template <typename Visit>
void
walk_chain(const StorageDevice& device, const DeltaRegion& region,
           std::uint64_t base_counter, std::uint64_t base_iteration,
           Visit&& visit)
{
    if (region.bytes == 0) {
        return;
    }
    PCCHECK_CHECK(range_fits(region.offset, region.bytes, device.size()));
    std::uint64_t last_iteration = base_iteration;
    std::vector<std::uint8_t> payload;
    for (Bytes head = 0, seq = 1;
         head + sizeof(RawFrameHeader) <= region.bytes; ++seq) {
        const auto hdr = read_sealed<RawFrameHeader>(
            device, region.offset + head, region.bytes - head);
        if (!hdr.has_value() || hdr->seq != seq ||
            hdr->base_counter != base_counter ||
            hdr->iteration <= last_iteration) {
            break;
        }
        payload.resize(hdr->payload_len);
        const bool payload_ok =
            (payload.empty() ||
             device
                 .read(region.offset + head + sizeof(RawFrameHeader),
                       payload.data(), payload.size())
                 .ok()) &&
            crc32c(payload.data(), payload.size()) == hdr->payload_crc;
        const DeltaFrameScanEntry frame{
            head,
            DeltaFrameInfo{hdr->seq, hdr->base_counter, hdr->iteration,
                           hdr->chunk_count, hdr->payload_len},
            payload_ok};
        if (!visit(frame, payload) || !payload_ok) {
            break;
        }
        last_iteration = hdr->iteration;
        head += align_up(sizeof(RawFrameHeader) + hdr->payload_len,
                         DeltaLog::kFrameAlign);
    }
}

}  // namespace

DeltaReplayStats
delta_replay(const StorageDevice& device, const DeltaRegion& region,
             std::uint64_t base_counter, std::uint64_t base_iteration,
             std::uint8_t* image, Bytes image_len,
             const DeltaReplayObserver& observer)
{
    DeltaReplayStats stats;
    stats.iteration = base_iteration;
    std::vector<RawChunkRef> refs;
    walk_chain(device, region, base_counter, base_iteration,
               [&](const DeltaFrameScanEntry& frame,
                   const std::vector<std::uint8_t>& payload) {
        if (!frame.payload_ok) {
            return false;  // sealed header over a torn payload
        }
        // A frame applies whole or not at all: every chunk ref must lie
        // inside the image, and the refs' data must fill the payload
        // exactly, as encode_frame lays it out.
        const Bytes refs_len =
            Bytes{frame.info.chunk_count} * sizeof(RawChunkRef);
        refs.resize(frame.info.chunk_count);
        if (refs_len > 0) {  // empty frames carry no refs (UBSan: the
                             // source pointer must not be null)
            std::memcpy(refs.data(), payload.data(), refs_len);
        }
        Bytes data_off = refs_len;
        for (const RawChunkRef& ref : refs) {
            if (!range_fits(ref.offset, ref.len, image_len) ||
                !range_fits(data_off, ref.len, payload.size())) {
                return false;
            }
            data_off += ref.len;
        }
        if (data_off != payload.size()) {
            return false;
        }
        data_off = refs_len;
        for (const RawChunkRef& ref : refs) {
            std::memcpy(image + ref.offset, payload.data() + data_off,
                        ref.len);
            data_off += ref.len;
            stats.bytes_applied += ref.len;
        }
        ++stats.frames_applied;
        stats.last_seq = frame.info.seq;
        stats.iteration = frame.info.iteration;
        return !observer || observer(frame.info);
    });
    return stats;
}

std::vector<DeltaFrameScanEntry>
delta_scan(const StorageDevice& device, const DeltaRegion& region,
           std::uint64_t base_counter, std::uint64_t base_iteration)
{
    std::vector<DeltaFrameScanEntry> entries;
    walk_chain(device, region, base_counter, base_iteration,
               [&entries](const DeltaFrameScanEntry& frame,
                          const std::vector<std::uint8_t>&) {
        entries.push_back(frame);
        return true;
    });
    return entries;
}

StorageStatus
delta_truncate(StorageDevice& device, const DeltaRegion& region,
               Bytes frame_offset)
{
    PCCHECK_CHECK(frame_offset + sizeof(RawFrameHeader) <= region.bytes);
    const Bytes device_off = region.offset + frame_offset;
    if (auto* psan = dynamic_cast<PsanStorage*>(&device)) {
        // Lift V3 before the write: killing the header is not a lost
        // update — the frame (and the tail behind it) is unreachable.
        psan->on_delta_truncate(device_off);
    }
    const std::uint8_t dead[sizeof(RawFrameHeader)] = {};
    return write_durably(device, device_off, dead, sizeof(dead));
}

DeltaLog::DeltaLog(StorageDevice& device, const DeltaRegion& region)
    : device_(&device), psan_(dynamic_cast<PsanStorage*>(&device)),
      region_(region)
{
    PCCHECK_CHECK(region.bytes >= kFrameAlign);
    PCCHECK_CHECK_MSG(region.offset + region.bytes <= device.size(),
                      "delta region past end of device");
}

Bytes
DeltaLog::frame_bytes(std::uint32_t chunk_count, Bytes data_bytes)
{
    return align_up(sizeof(RawFrameHeader) +
                        static_cast<Bytes>(chunk_count) *
                            sizeof(RawChunkRef) +
                        data_bytes,
                    kFrameAlign);
}

Bytes
DeltaLog::free_bytes() const
{
    MutexLock lock(mu_);
    return region_.bytes - head_;
}

std::uint64_t
DeltaLog::epoch_base() const
{
    MutexLock lock(mu_);
    return epoch_base_;
}

std::uint64_t
DeltaLog::last_sealed_seq() const
{
    MutexLock lock(mu_);
    return next_seq_ - 1;
}

std::uint64_t
DeltaLog::frames_appended() const
{
    MutexLock lock(mu_);
    return frames_appended_;
}

std::uint64_t
DeltaLog::last_iteration() const
{
    MutexLock lock(mu_);
    return last_iteration_;
}

void
DeltaLog::set_op_probe(std::function<StorageStatus()> probe)
{
    MutexLock lock(mu_);
    op_probe_ = std::move(probe);
}

void
DeltaLog::reset_epoch(std::uint64_t base_counter,
                      std::uint64_t base_iteration)
{
    MutexLock lock(mu_);
    // An in-flight append's I/O snapshot (head, seq) must not be
    // yanked out from under it — wait out the turnstile first.
    while (appending_) {
        append_cv_.wait(mu_);
    }
    PCCHECK_CHECK_MSG(!epoch_open_ || base_counter > epoch_base_,
                      "epoch reset must move to a newer checkpoint");
    head_ = 0;
    next_seq_ = 1;
    epoch_base_ = base_counter;
    last_iteration_ = base_iteration;
    epoch_open_ = true;
    if (psan_ != nullptr) {
        // GC: the old epoch's sealed frames are unreachable from the
        // new base, so overwriting them is no longer a lost update.
        psan_->on_epoch_reset();
    }
}

StorageStatus
DeltaLog::seal_frame(Bytes device_off, const void* header, Bytes len)
{
    return write_durably(*device_, device_off, header, len);
}

PCCHECK_HOT_PATH StorageStatus
DeltaLog::append(std::uint64_t iteration,
                 const std::vector<DeltaChunk>& chunks,
                 const std::uint8_t* data)
{
    psan::ScopeLabel psan_label("delta_log.append");
    const Bytes payload_len = delta_wire::payload_bytes(chunks);
    const Bytes total =
        align_up(sizeof(RawFrameHeader) + payload_len, kFrameAlign);

    // Appender turnstile: validate and claim under mu_, then run the
    // frame I/O outside it so readers (free_bytes, the GC's epoch
    // checks) never block behind a device fence. The contract says one
    // writer (the training thread), but serializing here is free and
    // keeps the head/seq snapshot coherent even if that changes.
    Bytes head = 0;
    std::uint64_t seq = 0;
    std::uint64_t base = 0;
    {
        MutexLock lock(mu_);
        while (appending_) {
            append_cv_.wait(mu_);
        }
        PCCHECK_CHECK_MSG(epoch_open_,
                          "append before the first epoch reset");
        PCCHECK_CHECK_MSG(iteration > last_iteration_,
                          "delta iteration must be monotonic: "
                              << iteration << " <= " << last_iteration_);
        if (op_probe_) {
            const StorageStatus injected = op_probe_();
            if (!injected.ok()) {
                return injected;
            }
        }
        PCCHECK_CHECK_MSG(total <= region_.bytes - head_,
                          "delta log full: need "
                              << total << " have "
                              << (region_.bytes - head_));
        head = head_;
        seq = next_seq_;
        base = epoch_base_;
        appending_ = true;
    }

    // pccheck-tidy: disable=hot-path-alloc -- scratch grows to the
    // high-water frame size once, then every append reuses it.
    payload_.resize(payload_len);
    const std::vector<std::uint8_t>& payload = payload_;
    const RawFrameHeader hdr = delta_wire::encode_frame(
        seq, base, iteration, chunks, data, payload_.data());

    const Bytes frame_off = region_.offset + head;
    // Pre-seal phase, one persist + fence covering all of it: durably
    // invalidate this slot's (possibly stale) header and the successor
    // header slot, and land the payload bytes. A reopened device can
    // carry a sealed chain from a previous process based on this same
    // checkpoint counter — its tail diverges from this run's timeline
    // at this frame, so both the header position being written and the
    // one after it must be dead on media before the seal makes this
    // frame reachable. Replay then can never cross from the new chain
    // into the stale one, whichever side of the seal a crash lands on.
    const bool truncate_next =
        head + total + kFrameAlign <= region_.bytes;
    const std::uint8_t dead[sizeof(RawFrameHeader)] = {};
    StorageStatus status = device_->write(frame_off, dead, sizeof(dead));
    if (status.ok() && !payload.empty()) {
        status = device_->write(frame_off + sizeof(RawFrameHeader),
                                payload.data(), payload.size());
    }
    if (status.ok() && truncate_next) {
        status = device_->write(frame_off + total, dead, sizeof(dead));
    }
    if (status.ok()) {
        status = device_->persist(
            frame_off, truncate_next ? total + kFrameAlign : total);
    }
    if (status.ok()) {
        status = device_->fence();
    }
    if (status.ok()) {
        if (psan_ != nullptr) {
            // V1: the payload (and dead headers) must be durable
            // before the seal below makes the frame reachable.
            psan_->on_seal_begin(
                frame_off, truncate_next ? total + kFrameAlign : total);
        }
        // payload-durable: the pre-seal fence above ordered the chunk
        // bytes (and both dead headers) ahead of this seal.
        status = seal_frame(frame_off, &hdr, sizeof(hdr));
    }
    if (status.ok() && psan_ != nullptr) {
        // V2 on the sealed header, then protect the frame against
        // overwrite until the next epoch reset (V3).
        psan_->on_seal_durable(frame_off, total);
    }

    MutexLock lock(mu_);
    appending_ = false;
    if (status.ok()) {
        head_ += total;
        ++next_seq_;
        ++frames_appended_;
        last_iteration_ = iteration;
    }
    // On error head_/next_seq_ are unchanged: the caller may retry
    // this same append.
    append_cv_.notify_all();
    return status;
}

}  // namespace pccheck
