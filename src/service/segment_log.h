#ifndef PCCHECK_SERVICE_SEGMENT_LOG_H_
#define PCCHECK_SERVICE_SEGMENT_LOG_H_

/**
 * @file
 * Small-checkpoint coalescer: a ring of shared, CRC-framed segment
 * files into which many tiny tenants' checkpoints are batched
 * (docs/SERVICE.md §coalescing).
 *
 * Tiny tenants would waste a whole slot arena (N+1 slots, two pointer
 * records, a delta region) on kilobytes of state, and their per-
 * checkpoint fences would dominate the device. Instead the service
 * appends their checkpoints as records into segment files shared by
 * every coalesced tenant of a shard. One flusher thread per log
 * group-commits whatever records are queued under one fence pair, so
 * an appender never waits for another tenant's I/O.
 *
 * Segment layout (all offsets segment-relative, 64-byte aligned):
 *
 *   [ SegmentHeader (64 B) | record | record | ... | dead tail |
 *     manifest (sealed segments only) ]
 *   record := [ RecordHeader (64 B) | payload ]
 *
 * Batch append ordering (the same persist -> fence -> publish
 * discipline as the delta log's seal rule): the batch's payloads, the
 * records' headers EXCEPT the first, and a dead tail header are
 * written and persisted first; a fence orders them; only then is the
 * first record's header — the single word that links the whole batch
 * into the scan chain — written, persisted, and fenced. A crash
 * before the publish leaves the chain ending at the old dead header
 * and the batch invisible; a crash after preserves it whole. Crashes
 * therefore tear at batch granularity, never inside a record.
 *
 * Sealing a full segment writes the manifest (an index of every
 * record, so recovery of a sealed segment is one read instead of a
 * chain walk), persists and fences it, and only then publishes the
 * sealed header (enforced by pccheck_lint rule
 * segment-seal-fence-before-publish). Recycling a sealed segment for
 * reuse asks the reclaim gate for permission record-by-record — the
 * service refuses while a record is some tenant's newest durable
 * checkpoint. So that such a pinned record does not block the ring,
 * each segment reserves room for the pinned records of the segment
 * after it and copies them in (a normal batch append) just before it
 * seals; the recycle then needs no permission for the originals.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "storage/device.h"
#include "storage/sealed.h"
#include "util/annotations.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace pccheck {

namespace segment_wire {

/** Segment header magic ("PCSEGH.1"), bumped with layout changes. */
constexpr std::uint64_t kSegmentMagic = 0x5043534547480031ULL;
/** Record header magic ("PCSEGR.1"). */
constexpr std::uint64_t kRecordMagic = 0x5043534547520031ULL;

/** Raw on-device segment header (64 bytes, sealed; storage/sealed.h). */
struct RawSegmentHeader {
    static constexpr std::uint64_t kMagic = kSegmentMagic;
    std::uint64_t magic;
    std::uint64_t epoch;         ///< bumped on every recycle (starts 1)
    std::uint32_t index;         ///< position in the ring
    std::uint32_t sealed;        ///< 1 once the manifest is live
    std::uint64_t manifest_off;  ///< segment-relative; 0 when open
    std::uint32_t record_count;  ///< manifest entries (sealed only)
    std::uint32_t manifest_crc;  ///< CRC-32C of the manifest blob
    std::uint8_t pad[20];
    std::uint32_t crc;

    /** @p room is the segment size: the manifest must lie inside it. */
    bool fits(Bytes room) const;
};
static_assert(sizeof(RawSegmentHeader) == 64);

/** Raw on-device record header (64 bytes, sealed). */
struct RawRecordHeader {
    static constexpr std::uint64_t kMagic = kRecordMagic;
    std::uint64_t magic;
    std::uint64_t tenant;
    std::uint64_t counter;    ///< tenant-monotonic checkpoint counter
    std::uint64_t iteration;  ///< training iteration captured
    std::uint64_t data_len;   ///< payload bytes following the header
    std::uint32_t data_crc;   ///< CRC-32C of the payload
    std::uint8_t pad[16];
    std::uint32_t crc;

    /** @p room is the segment left from here: the payload must fit. */
    bool fits(Bytes room) const
    {
        return range_fits(sizeof(RawRecordHeader), data_len, room);
    }
};
static_assert(sizeof(RawRecordHeader) == 64);

/** One manifest entry of a sealed segment (48 bytes, sealed). */
struct RawManifestEntry {
    std::uint64_t tenant;
    std::uint64_t counter;
    std::uint64_t iteration;
    std::uint64_t record_off;  ///< segment-relative record header
    std::uint64_t data_len;
    std::uint32_t data_crc;
    std::uint32_t crc;

    /** @p room is the segment size: the record it indexes, header and
     *  payload, must lie after the segment header and inside it. */
    bool fits(Bytes room) const
    {
        return record_off >= sizeof(RawSegmentHeader) &&
               range_fits(record_off, sizeof(RawRecordHeader), room) &&
               range_fits(record_off + sizeof(RawRecordHeader), data_len,
                          room);
    }
};
static_assert(sizeof(RawManifestEntry) == 48);

inline bool RawSegmentHeader::fits(Bytes room) const
{
    return range_fits(manifest_off,
                      Bytes{record_count} * sizeof(RawManifestEntry), room);
}

}  // namespace segment_wire

/** Geometry of one shard's segment region. */
struct SegmentLogConfig {
    Bytes segment_bytes = kMiB;  ///< one segment file
    std::uint32_t segments = 8;  ///< ring length (>= 2)
};

/** One durable record surfaced by segment_scan (recovery view). */
struct SegmentRecordInfo {
    std::uint64_t tenant = 0;
    std::uint64_t counter = 0;
    std::uint64_t iteration = 0;
    Bytes record_offset = 0;  ///< region-relative record header
    Bytes data_len = 0;
    std::uint32_t data_crc = 0;
    std::uint32_t segment = 0;    ///< ring index it lives in
    bool sealed_segment = false;  ///< found via manifest vs chain walk
};

/**
 * Enumerate every durable coalesced record in the region: sealed
 * segments via their manifests, the open segment(s) via a chain walk
 * that stops at the first dead/torn header. Free function over a
 * const device so recovery can run it against a crash image.
 */
std::vector<SegmentRecordInfo> segment_scan(const StorageDevice& device,
                                            Bytes region_offset,
                                            const SegmentLogConfig& config);

/**
 * Read the payload of @p record into @p out (resized to data_len).
 * Returns false on a read error or a payload that fails the record's
 * CRC — the caller treats the candidate as lost and tries an older
 * one.
 */
bool segment_fetch(const StorageDevice& device, Bytes region_offset,
                   const SegmentRecordInfo& record,
                   std::vector<std::uint8_t>* out);

/** Lifetime counters of one SegmentLog. */
struct SegmentLogStats {
    std::uint64_t records = 0;   ///< records durably appended
    std::uint64_t flushes = 0;   ///< fence pairs paid (group commits)
    std::uint64_t seals = 0;     ///< segments sealed
    std::uint64_t recycles = 0;  ///< sealed segments reclaimed
    std::uint64_t rejects = 0;   ///< appends refused (no space / gate)
    std::uint64_t relocations = 0;  ///< pinned records copied forward
};

/**
 * One coalesced checkpoint queued for the flusher. The caller owns it:
 * the record and the payload it points at must stay alive and
 * unchanged from submit() until on_done runs. The log never copies or
 * frees it, so a caller that reuses one record queues without
 * allocating.
 */
struct SegmentRecord {
    std::uint64_t tenant = 0;
    std::uint64_t counter = 0;    ///< tenant-monotonic checkpoint counter
    std::uint64_t iteration = 0;  ///< training iteration captured
    const void* data = nullptr;
    Bytes data_len = 0;
    /** The verdict, set just before on_done runs. Ok means durable,
     *  with the durable hook already run; failure means the record
     *  was not appended (see SegmentLog::append). */
    StorageStatus result;
    /** Runs on the flusher thread once `result` is set. From that call
     *  on the record is the caller's again. Must not call back into
     *  the SegmentLog. */
    std::function<void()> on_done;
};

/**
 * The shared coalescer appender for one shard. Thread-safe: callers
 * queue records and one flusher thread, the only writer of the ring,
 * drains the queue in batches, each group-committed under a single
 * persist/fence pair. A caller never flushes another caller's
 * records.
 *
 * The flusher commits a batch rank by rank: each tenant's oldest
 * record first, then each one's next, and so on. A tenant's older
 * record thus becomes durable one commit before its newer one, not
 * with it, and a commit holds at most one record per tenant, so the
 * shard's other writes queue between two ranks instead of behind
 * both.
 */
class SegmentLog {
  public:
    /** Header size / record alignment granularity. */
    static constexpr Bytes kRecordAlign = 64;

    /**
     * Starts the flusher thread. Call format() and the setters below
     * before the first record is queued.
     * @param device formatted backing device (must outlive this)
     * @param region_offset device offset of the segment region
     * @param config ring geometry (validated against device size)
     */
    SegmentLog(StorageDevice& device, Bytes region_offset,
               const SegmentLogConfig& config);

    /** Flushes every queued record, then joins the flusher. */
    ~SegmentLog();

    SegmentLog(const SegmentLog&) = delete;
    SegmentLog& operator=(const SegmentLog&) = delete;

    /** Total region footprint of @p config. */
    static Bytes required_size(const SegmentLogConfig& config);

    /** Record footprint (header + payload, alignment-padded). */
    static Bytes record_bytes(Bytes data_len);

    /**
     * Initialize the ring: every segment gets an open header (epoch 1)
     * and a dead first record. Destroys existing contents.
     */
    StorageStatus format();

    /**
     * Queue @p record for the flusher and return at once. Its verdict
     * arrives through record->on_done, on the flusher thread. A
     * tenant's records are flushed, and get their verdicts, in the
     * order they were queued.
     */
    void submit(SegmentRecord* record) PCCHECK_EXCLUDES(mu_);

    /**
     * Durably append one coalesced checkpoint: submit() a record, then
     * block until its verdict. On success the record is durable and
     * the durable hook has run. Failure means the record was NOT
     * appended: no space the gate would free (transient — the tenant
     * skips this checkpoint) or device death (permanent).
     */
    StorageStatus append(std::uint64_t tenant, std::uint64_t counter,
                         std::uint64_t iteration, const void* data,
                         Bytes data_len);

    /**
     * Permission callback for recycling: return true when the record
     * (tenant, counter) is safe to destroy — i.e. the tenant has a
     * newer durable checkpoint elsewhere or no longer exists. Unset =
     * never recycle. Called on the flusher thread with no lock held;
     * must not call back into this SegmentLog.
     */
    void set_reclaim_gate(
        std::function<bool(std::uint64_t tenant, std::uint64_t counter)>
            gate);

    /**
     * Called on the flusher thread once per record, right after the
     * publish fence of the sub-batch that holds it and before any
     * later sub-batch is written, so the reclaim gate already sees it:
     * the record is durable — advance the tenant's watermark.
     */
    void set_durable_hook(
        std::function<void(std::uint64_t tenant, std::uint64_t counter,
                           std::uint64_t iteration)>
            hook);

    /**
     * Bandwidth pacer invoked by the flusher with each sub-batch's
     * total byte count before the device writes (the service wires
     * the shard's bandwidth throttle here). May block.
     */
    void set_pacer(std::function<void(Bytes)> pacer);

    SegmentLogStats stats() const;

  private:
    /** One record's bookkeeping while its segment is open (feeds the
     *  manifest at seal time). */
    struct LiveRecord {
        std::uint64_t tenant;
        std::uint64_t counter;
        std::uint64_t iteration;
        Bytes record_off;  ///< segment-relative
        Bytes data_len;
        std::uint32_t data_crc;
        /** A durable copy lives in a newer segment, so recycling this
         *  one needs no gate permission for it. */
        bool relocated = false;
    };

    Bytes segment_base(std::uint32_t index) const
    {
        return region_offset_ + Bytes{index} * config_.segment_bytes;
    }

    /** Flusher body: drain the queue in batches until the destructor
     *  stops it with the queue empty. */
    void run_flusher() PCCHECK_EXCLUDES(mu_);

    /** Persist one batch into the ring (flusher only, no locks held),
     *  delivering every record's verdict. */
    void flush_batch(const std::vector<SegmentRecord*>& batch)
        PCCHECK_EXCLUDES(mu_);

    /** Append records[first, last) (@p bytes of records in all) at the
     *  cursor as one sub-batch: pace, persist + fence, then publish and
     *  fence. The caller checked that they fit. */
    StorageStatus write_records(const std::vector<SegmentRecord*>& records,
                                std::size_t first, std::size_t last,
                                Bytes bytes);

    /** Count batch[first, last) in stats_, then hand each its verdict
     *  @p status. */
    void complete(const std::vector<SegmentRecord*>& batch,
                  std::size_t first, std::size_t last,
                  StorageStatus status) PCCHECK_EXCLUDES(mu_);

    /** Seal the active segment (flusher only): manifest + persist +
     *  fence, THEN the sealed header. */
    StorageStatus seal_active();

    /** Make the next ring segment writable (flusher only): recycle it
     *  if sealed and the gate allows every record not relocated. */
    StorageStatus advance_active();

    /** The gate's verdict on destroying @p record. */
    bool reclaimable(const LiveRecord& record) const;

    /** Records of the segment after the active one (flusher only). */
    std::vector<LiveRecord>& following()
    {
        return sealed_records_[(active_ + 1) % config_.segments];
    }

    /** Room the pending relocations take in the active segment. */
    Bytes relocation_bytes();

    /** Copy the pending relocations into the active segment. A record
     *  whose payload no longer reads back intact stays pinned. */
    StorageStatus relocate();

    /** Write + persist + fence an open/sealed segment header. Publish
     *  step — every preceding phase must already be fenced. */
    StorageStatus publish_segment_header(
        Bytes device_off, const segment_wire::RawSegmentHeader& hdr);

    StorageDevice* device_;
    const Bytes region_offset_;
    const SegmentLogConfig config_;

    mutable Mutex mu_;
    CondVar cv_;  ///< wakes the flusher: a record queued, or stopping_
    std::vector<SegmentRecord*> queue_ PCCHECK_GUARDED_BY(mu_);
    bool stopping_ PCCHECK_GUARDED_BY(mu_) = false;

    /** Flusher-owned from here to the hooks (format() writes them
     *  before the first record is queued). */
    std::vector<SegmentRecord*> batch_;  ///< swapped with queue_
    std::vector<SegmentRecord*> rank_;   ///< the rank being committed
    std::uint32_t active_ = 0;
    Bytes cursor_ = 0;  ///< segment-relative next record offset
    /** The active segment is sealed and only its advance is pending
     *  (a refused recycle): retry the advance, never the seal. */
    bool active_sealed_ = false;
    std::vector<LiveRecord> live_;  ///< records in the open segment
    /** Pending relocations: indexes into following() of the records
     *  the gate refused when this segment became active. */
    std::vector<std::size_t> relocate_;
    std::vector<std::uint64_t> epochs_;  ///< per-segment header epoch
    /** Manifest shadow of each sealed segment (recycling gate input). */
    std::vector<std::vector<LiveRecord>> sealed_records_;

    std::function<bool(std::uint64_t, std::uint64_t)> reclaim_gate_;
    std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>
        durable_hook_;
    std::function<void(Bytes)> pacer_;

    SegmentLogStats stats_ PCCHECK_GUARDED_BY(mu_);

    std::thread flusher_;  ///< last: starts once the rest is built
};

}  // namespace pccheck

#endif  // PCCHECK_SERVICE_SEGMENT_LOG_H_
