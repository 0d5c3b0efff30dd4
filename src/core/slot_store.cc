#include "core/slot_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "psan/psan.h"
#include "psan/psan_storage.h"
#include "storage/sealed.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pccheck {
namespace {

constexpr std::uint32_t kVersion = 2;
constexpr Bytes kHeaderOffset = 0;
constexpr Bytes kRecordBase = 64;
constexpr Bytes kRecordStride = 64;
/** The header's second copy, in the line after the pointer records. */
constexpr Bytes kBackupHeaderOffset = kRecordBase + 2 * kRecordStride;
constexpr Bytes kDataAlign = 4096;

/** Raw on-device header (64 bytes, sealed; storage/sealed.h). */
struct DeviceHeader {
    /** "PCCHEK01" */
    static constexpr std::uint64_t kMagic = 0x50434348454B3031ULL;
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t slot_count;
    std::uint64_t slot_size;
    std::uint64_t data_offset;
    /** Delta-log region (docs/DELTA_LOG.md); delta_len 0 = none. */
    std::uint64_t delta_offset;
    std::uint64_t delta_len;
    /** Quarantined-slot bitmap (bit i = slot i corrupt). */
    std::uint64_t quarantine_bits;
    std::uint8_t pad[4];
    std::uint32_t crc;

    /** @p room is the device size: the slot arena and the delta
     *  region must lie inside it, checked without overflow. */
    bool fits(Bytes room) const
    {
        if (version != kVersion || slot_count < 2 || slot_size == 0 ||
            data_offset != kDataAlign || room < kDataAlign ||
            slot_size > room - kDataAlign ||
            align_up(slot_size, kDataAlign) >
                (room - kDataAlign) / slot_count) {
            return false;  // the slots would run past the device end
        }
        const Bytes slots_end =
            kDataAlign + align_up(slot_size, kDataAlign) * slot_count;
        return delta_len == 0 ||
               (delta_offset >= slots_end &&
                range_fits(delta_offset, delta_len, room));
    }
};
static_assert(sizeof(DeviceHeader) == 64);

/** Raw on-device pointer record (64 bytes, sealed). */
struct RawRecord {
    std::uint64_t counter;
    std::uint32_t slot;
    std::uint32_t data_crc;
    std::uint64_t data_len;
    std::uint64_t iteration;
    std::uint8_t pad[28];
    std::uint32_t crc;

    /** @p room is the slot size. */
    bool fits(Bytes room) const { return data_len <= room; }
};
static_assert(sizeof(RawRecord) == 64);

}  // namespace

SlotStore::SlotStore(StorageDevice& device, std::uint32_t slot_count,
                     Bytes slot_size, Bytes delta_offset, Bytes delta_bytes,
                     std::uint64_t quarantine_bits)
    : device_(&device), psan_(dynamic_cast<PsanStorage*>(&device)),
      slot_count_(slot_count), slot_size_(slot_size),
      data_offset_(kDataAlign), delta_offset_(delta_offset),
      delta_bytes_(delta_bytes),
      publish_(std::make_shared<PublishState>()),
      quarantine_(std::make_shared<QuarantineState>(quarantine_bits))
{
}

Bytes
SlotStore::required_size(std::uint32_t slot_count, Bytes slot_size,
                         Bytes delta_log_bytes)
{
    return kDataAlign +
           static_cast<Bytes>(slot_count) * align_up(slot_size, kDataAlign) +
           align_up(delta_log_bytes, kDataAlign);
}

Bytes
SlotStore::record_offset(int index)
{
    return kRecordBase + static_cast<Bytes>(index) * kRecordStride;
}

SlotStore
SlotStore::format(StorageDevice& device, std::uint32_t slot_count,
                  Bytes slot_size, Bytes delta_log_bytes)
{
    PCCHECK_CHECK(slot_count >= 2);  // N >= 1 concurrent + 1 guaranteed
    PCCHECK_CHECK(slot_size > 0);
    const Bytes needed =
        required_size(slot_count, slot_size, delta_log_bytes);
    if (device.size() < needed) {
        fatal("SlotStore: device too small: " + format_bytes(device.size()) +
              " < " + format_bytes(needed));
    }
    const Bytes delta_bytes = align_up(delta_log_bytes, kDataAlign);
    const Bytes delta_offset =
        delta_bytes > 0 ? required_size(slot_count, slot_size) : 0;
    psan::ScopeLabel psan_label("slot_store.format");
    if (auto* psan = dynamic_cast<PsanStorage*>(&device)) {
        // Reformat discards all previous content: drop the sanitizer's
        // checkpoint/frame protection before overwriting it.
        psan->on_format();
    }
    // Formatting is a setup path: a device that cannot even hold its
    // header is unusable, so errors escalate instead of retrying.
    // Invalidate both pointer records, then write the header pair with
    // an empty quarantine; its first fence orders the records too.
    RawRecord dead{};
    seal(dead);
    dead.crc = ~dead.crc;  // deliberately bad
    PCCHECK_MUST(device.write(record_offset(0), &dead, sizeof(dead)));
    PCCHECK_MUST(device.write(record_offset(1), &dead, sizeof(dead)));
    PCCHECK_MUST(device.persist(record_offset(0), 2 * kRecordStride));
    SlotStore store(device, slot_count, slot_size, delta_offset,
                    delta_bytes, /*quarantine_bits=*/0);
    PCCHECK_MUST(store.write_quarantine_bits(0));
    if (delta_bytes > 0) {
        // Kill any previous delta chain: zero the first frame header
        // so replay of the fresh layout stops immediately.
        const std::uint8_t dead_frame[64] = {};
        PCCHECK_MUST(write_durably(device, delta_offset, dead_frame,
                                   sizeof(dead_frame)));
    }
    return store;
}

SlotStore
SlotStore::open(StorageDevice& device)
{
    // Every header update lands on the primary copy first, so the
    // backup is never the newer one: the first copy that decodes wins.
    for (const Bytes offset : {kHeaderOffset, kBackupHeaderOffset}) {
        const auto header =
            read_sealed<DeviceHeader>(device, offset, device.size());
        if (header.has_value()) {
            return SlotStore(device, header->slot_count, header->slot_size,
                             header->delta_len > 0 ? header->delta_offset
                                                   : 0,
                             header->delta_len, header->quarantine_bits);
        }
    }
    fatal("SlotStore: no valid header copy (device not formatted, both "
          "copies corrupt, or geometry inconsistent with device size)");
}

Bytes
SlotStore::slot_offset(std::uint32_t slot) const
{
    PCCHECK_CHECK_MSG(slot < slot_count_, "slot " << slot << " out of range");
    return data_offset_ +
           static_cast<Bytes>(slot) * align_up(slot_size_, kDataAlign);
}

StorageStatus
SlotStore::write_slot(std::uint32_t slot, Bytes offset, const void* src,
                      Bytes len)
{
    PCCHECK_CHECK_MSG(range_fits(offset, len, slot_size_),
                      "slot write overflow off=" << offset << " len=" << len);
    return device_->write(slot_offset(slot) + offset, src, len);
}

StorageStatus
SlotStore::persist_slot_range(std::uint32_t slot, Bytes offset, Bytes len)
{
    PCCHECK_CHECK(range_fits(offset, len, slot_size_));
    return device_->persist(slot_offset(slot) + offset, len);
}

StorageStatus
SlotStore::read_slot(std::uint32_t slot, Bytes offset, void* dst,
                     Bytes len) const
{
    PCCHECK_CHECK(range_fits(offset, len, slot_size_));
    return device_->read(slot_offset(slot) + offset, dst, len);
}

StorageStatus
SlotStore::publish_pointer(const CheckpointPointer& ptr)
{
    PCCHECK_CHECK(ptr.slot < slot_count_);
    PCCHECK_CHECK(ptr.data_len <= slot_size_);
    // Serialize with concurrent commit winners: two in-flight
    // publishes with counters of equal parity target the SAME record,
    // and a delayed older publish must not overwrite a newer durable
    // record whose predecessor slot has already been recycled.
    //
    // Writer turnstile: the claim (and the staleness drop) happens
    // under mu, but the record's write+persist+fence runs OUTSIDE it,
    // so last_published readers never block behind device I/O. A
    // publish that slept through a newer writer's completion re-checks
    // staleness after every wait and is dropped exactly as before.
    {
        MutexLock lock(publish_->mu);
        while (publish_->writing) {
            publish_->cv.wait(publish_->mu);
        }
        if (publish_->any && ptr.counter < publish_->last_counter) {
            return StorageStatus::success();
        }
        publish_->writing = true;
    }
    psan::ScopeLabel psan_label("slot_store.publish");
    if (psan_ != nullptr) {
        // V1: the slot data this record makes reachable must already
        // be durable (persisted and, on PMEM, fenced) before the
        // record can claim it.
        psan_->on_publish_begin(ptr.counter, slot_offset(ptr.slot),
                                ptr.data_len);
    }
    RawRecord rec{};
    rec.counter = ptr.counter;
    rec.slot = ptr.slot;
    rec.data_crc = ptr.data_crc;
    rec.data_len = ptr.data_len;
    rec.iteration = ptr.iteration;
    seal(rec);
    const Bytes off = record_offset(static_cast<int>(ptr.counter % 2));
    const StorageStatus status =
        write_durably(*device_, off, &rec, sizeof(rec));
    if (status.ok() && psan_ != nullptr) {
        // V2 on the record lines themselves, then move lost-update
        // protection to this checkpoint's payload.
        psan_->on_publish_durable(ptr.counter, off, sizeof(rec),
                                  slot_offset(ptr.slot), ptr.data_len);
    }
    MutexLock lock(publish_->mu);
    publish_->writing = false;
    if (status.ok()) {
        publish_->any = true;
        publish_->last_counter = ptr.counter;
        publish_->last_ptr = ptr;
    }
    // On error last_counter is left alone so a retry of this very
    // publish is not dropped as stale. The previous record is
    // untouched on media (tearing the new record's slot is handled by
    // recovery's checksum fallback).
    publish_->cv.notify_all();
    return status;
}

std::optional<CheckpointPointer>
SlotStore::last_published() const
{
    MutexLock lock(publish_->mu);
    if (!publish_->any) {
        return std::nullopt;
    }
    return publish_->last_ptr;
}

std::vector<CheckpointPointer>
SlotStore::candidate_pointers(bool include_quarantined) const
{
    std::vector<CheckpointPointer> candidates;
    for (int index = 0; index < 2; ++index) {
        const auto rec = read_sealed<RawRecord>(
            *device_, record_offset(index), slot_size_);
        if (!rec.has_value() || rec->slot >= slot_count_) {
            continue;  // unreadable, torn, never written, or out of range
        }
        if (!include_quarantined && is_quarantined(rec->slot)) {
            continue;  // known-corrupt payload awaiting repair
        }
        candidates.push_back(CheckpointPointer{
            rec->counter, rec->slot, rec->data_len, rec->iteration,
            rec->data_crc});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const CheckpointPointer& a, const CheckpointPointer& b) {
                  return a.counter > b.counter;
              });
    return candidates;
}

std::optional<CheckpointPointer>
SlotStore::recover_pointer(bool validate_data) const
{
    for (const CheckpointPointer& ptr : candidate_pointers()) {
        // data_crc == 0 marks "checksum disabled" (PCcheckConfig::
        // compute_crc = false); skip the data validation then.
        if (!validate_data || ptr.data_crc == 0) {
            return ptr;
        }
        std::vector<std::uint8_t> data(ptr.data_len);
        if (read_slot(ptr.slot, 0, data.data(), ptr.data_len).ok() &&
            crc32c(data.data(), data.size()) == ptr.data_crc) {
            return ptr;
        }
        // Unreadable payload, or a slot recycled under this stale
        // record: fall back to the older record.
    }
    return std::nullopt;
}

StorageStatus
SlotStore::write_quarantine_bits(std::uint64_t bits)
{
    DeviceHeader header{};
    header.version = kVersion;
    header.slot_count = slot_count_;
    header.slot_size = slot_size_;
    header.data_offset = kDataAlign;
    header.delta_offset = delta_offset_;
    header.delta_len = delta_bytes_;
    header.quarantine_bits = bits;
    seal(header);
    StorageStatus status =
        write_durably(*device_, kHeaderOffset, &header, sizeof(header));
    if (status.ok()) {
        status = write_durably(*device_, kBackupHeaderOffset, &header,
                               sizeof(header));
    }
    return status;
}

StorageStatus
SlotStore::quarantine_slot(std::uint32_t slot)
{
    PCCHECK_CHECK_MSG(slot < slot_count_,
                      "quarantine: slot " << slot << " out of range");
    if (slot >= 64) {
        return StorageStatus::permanent_error("slot_store.quarantine_width");
    }
    psan::ScopeLabel psan_label("slot_store.quarantine");
    // Writer turnstile (see QuarantineState): the new bitmap value is
    // computed and claimed under mu, but its write+persist+fence runs
    // outside the lock so commit-path is_quarantined checks never
    // stall behind quarantine I/O. Waiters recompute against the
    // committed bits after every wake, so concurrent writers never
    // lose each other's updates.
    std::uint64_t bits = 0;
    bool need_write = false;
    {
        MutexLock lock(quarantine_->mu);
        while (quarantine_->writing) {
            quarantine_->cv.wait(quarantine_->mu);
        }
        bits = quarantine_->bits | (1ull << slot);
        need_write = bits != quarantine_->bits;
        if (need_write) {
            quarantine_->writing = true;
        }
    }
    if (need_write) {
        const StorageStatus status = write_quarantine_bits(bits);
        MutexLock lock(quarantine_->mu);
        quarantine_->writing = false;
        quarantine_->cv.notify_all();
        if (!status.ok()) {
            // Not durable: keep the cached set unchanged so callers
            // can retry; the slot stays eligible until then.
            return status;
        }
        quarantine_->bits = bits;
    }
    if (psan_ != nullptr) {
        psan_->on_quarantine(slot_offset(slot), slot_size_);
    }
    return StorageStatus::success();
}

StorageStatus
SlotStore::release_quarantine(std::uint32_t slot)
{
    PCCHECK_CHECK_MSG(slot < slot_count_,
                      "release_quarantine: slot " << slot << " out of range");
    if (slot >= 64) {
        return StorageStatus::permanent_error("slot_store.quarantine_width");
    }
    psan::ScopeLabel psan_label("slot_store.release_quarantine");
    // Same writer turnstile as quarantine_slot: claim under mu, run
    // the bitmap I/O outside it.
    std::uint64_t bits = 0;
    {
        MutexLock lock(quarantine_->mu);
        while (quarantine_->writing) {
            quarantine_->cv.wait(quarantine_->mu);
        }
        bits = quarantine_->bits & ~(1ull << slot);
        if (bits == quarantine_->bits) {
            return StorageStatus::success();
        }
        quarantine_->writing = true;
    }
    const StorageStatus status = write_quarantine_bits(bits);
    MutexLock lock(quarantine_->mu);
    quarantine_->writing = false;
    quarantine_->cv.notify_all();
    if (status.ok()) {
        quarantine_->bits = bits;
    }
    return status;
}

bool
SlotStore::is_quarantined(std::uint32_t slot) const
{
    if (slot >= 64) {
        return false;
    }
    MutexLock lock(quarantine_->mu);
    return (quarantine_->bits & (1ull << slot)) != 0;
}

std::vector<std::uint32_t>
SlotStore::quarantined_slots() const
{
    std::vector<std::uint32_t> slots;
    MutexLock lock(quarantine_->mu);
    for (std::uint32_t slot = 0; slot < slot_count_ && slot < 64; ++slot) {
        if ((quarantine_->bits & (1ull << slot)) != 0) {
            slots.push_back(slot);
        }
    }
    return slots;
}

StorageStatus
SlotStore::invalidate_record(std::uint64_t counter)
{
    const Bytes off = record_offset(static_cast<int>(counter % 2));
    RawRecord rec{};
    StorageStatus status = device_->read(off, &rec, sizeof(rec));
    if (!status.ok()) {
        return status;
    }
    if (!unseal<RawRecord>(&rec, slot_size_).has_value() ||
        rec.counter != counter) {
        // Already torn, or a different publish owns this parity slot:
        // nothing stale left to retire.
        return StorageStatus::success();
    }
    psan::ScopeLabel psan_label("slot_store.invalidate_record");
    rec.crc = ~rec.crc;  // deliberately bad
    return write_durably(*device_, off, &rec, sizeof(rec));
}

StorageStatus
SlotStore::repair_slot(std::uint32_t slot, const void* src, Bytes len)
{
    PCCHECK_CHECK_MSG(len <= slot_size_,
                      "repair overflow len=" << len);
    psan::ScopeLabel psan_label("slot_store.repair");
    // Full persist contract: the salvaged bytes must be durable before
    // anyone trusts the slot again (release_quarantine / publish).
    const StorageStatus status =
        write_durably(*device_, slot_offset(slot), src, len);
    if (status.ok() && psan_ != nullptr) {
        psan_->on_repair_durable(slot_offset(slot), len);
    }
    return status;
}

}  // namespace pccheck
