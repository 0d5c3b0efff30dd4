#ifndef PCCHECK_CORE_SLOT_STORE_H_
#define PCCHECK_CORE_SLOT_STORE_H_

/**
 * @file
 * On-device checkpoint layout and the persistent CHECK_ADDR pointer.
 *
 * A storage device is formatted as:
 *
 *   page 0: [ DeviceHeader | PointerRecord[2] | DeviceHeader copy | 0… ]
 *   then:   [ slot 0 | ... | slot N | delta ]
 *
 * giving N+1 slots of slot_size bytes each — §3.2: "(N+1)·m to allow N
 * concurrent checkpoints and guarantee at least one valid checkpoint
 * at any time" — optionally followed by the delta-log region of the
 * incremental checkpoint tier (docs/DELTA_LOG.md). The header records
 * the slot geometry, the region's offset and length (zero length = no
 * delta region) and the quarantine bitmap. Header and records are
 * sealed records (storage/sealed.h). The header is kept twice: format
 * and every quarantine update make the primary durable, then the
 * backup, and open() takes the first copy that decodes.
 *
 * The persistent CHECK_ADDR is represented by TWO alternating
 * PointerRecords protected by record checksums (superblock-pair
 * technique): record (counter mod 2) is rewritten for each committed
 * checkpoint, so a crash that tears the in-flight record still leaves
 * the previous record intact, and the slot it references is only
 * recycled after the newer record is durable. Each record additionally
 * carries a CRC of the checkpoint data, letting recovery detect a slot
 * that was recycled under a stale record.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "storage/device.h"
#include "util/annotations.h"
#include "util/bytes.h"

namespace pccheck {

class PsanStorage;

/** Committed-checkpoint descriptor (what CHECK_ADDR points to). */
struct CheckpointPointer {
    std::uint64_t counter = 0;    ///< global checkpoint counter value
    std::uint32_t slot = 0;       ///< slot holding the data
    std::uint64_t data_len = 0;   ///< valid bytes within the slot
    std::uint64_t iteration = 0;  ///< training iteration of the state
    std::uint32_t data_crc = 0;   ///< CRC-32C of the slot data
};

/** Checkpoint slot arena + durable pointer records on one device. */
class SlotStore {
  public:
    /**
     * Format @p device with @p slot_count slots of @p slot_size bytes,
     * plus an optional delta-log region of @p delta_log_bytes.
     * Pre-existing content is discarded (including any previous delta
     * chain: the region's first frame header is invalidated).
     * @p device must outlive this.
     */
    static SlotStore format(StorageDevice& device, std::uint32_t slot_count,
                            Bytes slot_size, Bytes delta_log_bytes = 0);

    /**
     * Open an already formatted device (recovery path). Throws
     * FatalError if neither header copy decodes: missing, corrupt, or
     * naming a geometry the device cannot hold.
     *
     * The handle's quarantine cache starts from the header bitmap and
     * is shared only by copies of this handle, not by other open()s.
     * Every writer on @p device (a checkpointer, a scrubber) must
     * therefore use one handle and its copies. A RecoveryPlanner opens
     * its own, so one with quarantine or salvage on must be the only
     * writer on the device; read-only handles may coexist with any.
     */
    static SlotStore open(StorageDevice& device);

    std::uint32_t slot_count() const { return slot_count_; }
    Bytes slot_size() const { return slot_size_; }
    StorageDevice& device() { return *device_; }

    /**
     * The persistence sanitizer wrapping this store's device, or
     * nullptr when psan is off (detected at construction; see
     * docs/PSAN.md). Protocol sites use this to report publish/seal
     * ordering steps without paying anything in unsanitized builds.
     */
    PsanStorage* psan() const { return psan_; }

    /** Device offset of the delta-log region (0 when absent). */
    Bytes delta_offset() const { return delta_offset_; }
    /** Delta-log region capacity; 0 = device has no delta tier. */
    Bytes delta_bytes() const { return delta_bytes_; }

    /** Device offset of the first byte of @p slot. */
    Bytes slot_offset(std::uint32_t slot) const;

    /** Write @p len bytes into @p slot at @p offset (volatile). */
    StorageStatus write_slot(std::uint32_t slot, Bytes offset,
                             const void* src, Bytes len);

    /** Persist [offset, offset+len) of @p slot (no fence). */
    StorageStatus persist_slot_range(std::uint32_t slot, Bytes offset,
                                     Bytes len);

    /** Read @p len bytes of @p slot at @p offset. A failed read means
     *  the slot's media is unreadable — the caller decides between
     *  quarantine (recovery/scrub) and abort (protocol paths). */
    StorageStatus read_slot(std::uint32_t slot, Bytes offset, void* dst,
                            Bytes len) const;

    /**
     * Durably publish @p ptr as the latest checkpoint: writes the
     * alternating pointer record, persists it, and fences. The caller
     * must have already persisted (and fenced, on PMEM) the slot data.
     *
     * Thread-safe: concurrent commit winners are serialized, and a
     * publish that arrives after a higher-counter record is already
     * durable is dropped — its slot may have been recycled, so writing
     * it would point the record at data being overwritten. (A dropped
     * stale publish returns success: a newer record is durable.)
     *
     * On storage error nothing is considered published: last_counter
     * is not advanced, so the caller may retry this same publish.
     */
    StorageStatus publish_pointer(const CheckpointPointer& ptr);

    /**
     * Read back the newest valid pointer record, validating the
     * record checksum and, if @p validate_data, the data CRC against
     * the slot contents. Falls back to the older record when the
     * newer one is torn or its data does not verify.
     *
     * @return std::nullopt when no valid checkpoint exists.
     */
    std::optional<CheckpointPointer> recover_pointer(
        bool validate_data = true) const;

    /**
     * All syntactically valid pointer records, newest first, WITHOUT
     * reading the slot data. Callers that will read the data anyway
     * (recovery) validate the CRC themselves against the single read.
     * Records referencing a quarantined slot are skipped unless
     * @p include_quarantined — the scrubber passes true to learn the
     * descriptor (counter, length, CRC) the repair must restore.
     */
    std::vector<CheckpointPointer> candidate_pointers(
        bool include_quarantined = false) const;

    /**
     * The newest pointer THIS process durably published (nullopt
     * before the first successful publish). Unlike the advisory
     * in-memory CHECK_ADDR, this reflects only records whose
     * write+persist+fence completed — the signal the delta tier's
     * epoch GC gates on (docs/DELTA_LOG.md).
     */
    std::optional<CheckpointPointer> last_published() const;

    // ---- quarantine (latent-corruption containment) ----
    //
    // A slot whose data fails CRC or whose media is unreadable is
    // QUARANTINED: skipped by recovery, never handed out or recycled
    // by the commit protocol, until a repair write restores verified
    // bytes. The quarantine set is a bitmap persisted in both device
    // header copies (write+persist+fence each), so it survives restart
    // and a single corrupt copy, and every SlotStore opened on the
    // device agrees after reopen. Slots >= 64 cannot be quarantined
    // (bitmap width); quarantine_slot reports a permanent error for
    // them instead of silently succeeding.

    /** Durably mark @p slot corrupt. Idempotent. Lifts the psan
     *  lost-update protection on its payload so a salvage write is
     *  legal. */
    StorageStatus quarantine_slot(std::uint32_t slot);

    /** Durably return @p slot to service. Call only after its content
     *  has been re-verified (repair_slot + CRC readback). */
    StorageStatus release_quarantine(std::uint32_t slot);

    bool is_quarantined(std::uint32_t slot) const;

    /** Quarantined slot indices, ascending. */
    std::vector<std::uint32_t> quarantined_slots() const;

    /**
     * Salvage write: replace @p slot's payload with @p len verified
     * bytes from @p src under the full persist contract
     * (write→persist→fence), reporting durability to psan. Does NOT
     * release the quarantine — the caller re-reads and CRC-checks the
     * slot first, then calls release_quarantine().
     */
    StorageStatus repair_slot(std::uint32_t slot, const void* src,
                              Bytes len);

    /**
     * Durably invalidate the pointer record written for @p counter
     * (deliberately-bad record checksum, write→persist→fence), iff the
     * record parity slot still holds exactly that counter — a record
     * already torn or overwritten by a newer publish is left alone.
     * Recovery salvage uses this to retire a stale newer record whose
     * quarantined slot is about to be rewritten with an older image,
     * so no surviving record can point at bytes it does not describe.
     */
    StorageStatus invalidate_record(std::uint64_t counter);

    /** Bytes of device capacity this layout requires. */
    static Bytes required_size(std::uint32_t slot_count, Bytes slot_size,
                               Bytes delta_log_bytes = 0);

  private:
    SlotStore(StorageDevice& device, std::uint32_t slot_count,
              Bytes slot_size, Bytes delta_offset, Bytes delta_bytes,
              std::uint64_t quarantine_bits);

    static Bytes record_offset(int index);

    // Shared by copies of this SlotStore (which alias the same device):
    // serializes pointer-record writers and remembers the newest
    // published counter so stale publishes can be dropped. Writers are
    // serialized by the `writing` turnstile, NOT by holding mu across
    // the record's write+persist+fence — mu is only held for state
    // transitions, so commit-path readers (last_published) never wait
    // behind a device fence (docs/STATIC_ANALYSIS.md,
    // blocking-under-lock).
    struct PublishState {
        Mutex mu;
        CondVar cv;
        /** A writer's record I/O is in flight (claimed under mu,
         *  performed outside it). */
        bool writing PCCHECK_GUARDED_BY(mu) = false;
        std::uint64_t last_counter PCCHECK_GUARDED_BY(mu) = 0;
        bool any PCCHECK_GUARDED_BY(mu) = false;
        /** Full pointer of the newest durable publish (valid iff any). */
        CheckpointPointer last_ptr PCCHECK_GUARDED_BY(mu);
    };

    // In-memory cache of the durable quarantine bitmap, so membership
    // tests don't hit the device. Like PublishState it is shared by
    // copies of this SlotStore only (see open() for the one-writer
    // rule). Bitmap writers serialize through the `writing` turnstile
    // and run the header write+persist+fence outside mu, so
    // is_quarantined (on the commit winner's path) never blocks
    // behind quarantine I/O.
    struct QuarantineState {
        explicit QuarantineState(std::uint64_t header_bits)
            : bits(header_bits)
        {
        }
        mutable Mutex mu;
        CondVar cv;
        /** A writer's bitmap I/O is in flight (claimed under mu). */
        bool writing PCCHECK_GUARDED_BY(mu) = false;
        std::uint64_t bits PCCHECK_GUARDED_BY(mu);
    };

    /** Durably write both header copies, primary then backup, with
     *  @p bits as the quarantine bitmap. Past format, the caller must
     *  hold the quarantine writer turnstile (writing == true), NOT
     *  quarantine_->mu — the I/O runs outside the lock. */
    StorageStatus write_quarantine_bits(std::uint64_t bits);

    StorageDevice* device_;
    PsanStorage* psan_ = nullptr;
    std::uint32_t slot_count_;
    Bytes slot_size_;
    Bytes data_offset_;
    Bytes delta_offset_ = 0;
    Bytes delta_bytes_ = 0;
    std::shared_ptr<PublishState> publish_;
    std::shared_ptr<QuarantineState> quarantine_;
};

}  // namespace pccheck

#endif  // PCCHECK_CORE_SLOT_STORE_H_
