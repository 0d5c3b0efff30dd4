#ifndef PCCHECK_PSAN_PSAN_STORAGE_H_
#define PCCHECK_PSAN_PSAN_STORAGE_H_

/**
 * @file
 * PsanStorage: the persistence-sanitizer StorageDevice decorator.
 *
 * Shadows every storage line of the wrapped device with the
 * durability state machine
 *
 *   Clean → (write) → Dirty → (persist) → FlushPending → (fence) →
 *   Durable
 *
 * at the device's persistence granularity (64 B cache lines for the
 * PMEM kinds, 4 KiB pages for SSD — the same model CrashSimStorage
 * uses). On SSD/DRAM kinds persist() commits directly (Dirty →
 * Durable); a write re-dirties in any state. The shadow is a
 * coalesced-run interval map keyed by line, so per-op cost is
 * O(log runs + runs touched) — amortized O(1) for the protocol's
 * sequential range traffic.
 *
 * The commit/seal/publish sites (SlotStore, DeltaLog,
 * ConcurrentCommit, ReplicationEngine's watermark) report their
 * ordering-sensitive steps through the on_*() hooks below; the
 * decorator checks rules V1–V5 (see psan.h / docs/PSAN.md) and
 * reports violations to psan::Runtime with provenance.
 *
 * The orchestrator interposes this decorator automatically when
 * PCcheckConfig::psan is set (default: the PCCHECK_PSAN CMake option /
 * environment variable), so every existing test, sweep, and bench
 * runs under the sanitizer unchanged.
 *
 * Known limitation: CrashSimStorage::crash() mutates the device
 * beneath the wrapper, staling the shadow. The crash harnesses use
 * the non-mutating capture of storage/crash_capture.h, which is
 * invisible to the device interface and therefore safe; call
 * on_format() after any mutating reset.
 */

#include <functional>
#include <map>
#include <memory>

#include "psan/psan.h"
#include "storage/device.h"
#include "util/annotations.h"

namespace pccheck {

/** Sanitizing decorator around any StorageDevice. */
class PsanStorage final : public StorageDevice {
  public:
    /** Wrap @p inner without owning it (orchestrator interposition). */
    explicit PsanStorage(StorageDevice& inner);

    /** Wrap and own @p inner (decorator stacking in tests/tools). */
    explicit PsanStorage(std::unique_ptr<StorageDevice> inner);

    Bytes size() const override { return inner_->size(); }
    StorageStatus write(Bytes offset, const void* src, Bytes len) override;
    StorageStatus read(Bytes offset, void* dst, Bytes len) const override;
    StorageStatus persist(Bytes offset, Bytes len) override;
    StorageStatus fence() override;
    StorageKind kind() const override { return inner_->kind(); }
    void set_observe_hook(
        std::function<void(const StorageOp&)> hook) override
    {
        inner_->set_observe_hook(std::move(hook));
    }

    StorageDevice& inner() { return *inner_; }

    /** Persistence line granularity the shadow tracks. */
    Bytes line_size() const { return line_size_; }

    // ---- protocol hooks (commit/seal/publish sites) ----

    /**
     * A pointer-record publish for checkpoint @p counter is about to
     * be written; its reachable payload is [payload_off,
     * payload_off+payload_len). V1: every payload line must already
     * be Durable (or Clean — untouched pre-existing media content).
     */
    void on_publish_begin(std::uint64_t counter, Bytes payload_off,
                          Bytes payload_len);

    /**
     * The record write+persist+fence for @p counter reported success.
     * V2: the record lines themselves must now be Durable. On
     * success, V3 protection moves to this checkpoint's payload.
     */
    void on_publish_durable(std::uint64_t counter, Bytes record_off,
                            Bytes record_len, Bytes payload_off,
                            Bytes payload_len);

    /**
     * A delta-frame header seal is about to be written over the
     * pre-seal range [frame_off, frame_off+preseal_len) (payload +
     * dead headers). V1: no line of it may still be Dirty or
     * FlushPending.
     */
    void on_seal_begin(Bytes frame_off, Bytes preseal_len);

    /**
     * The frame header at @p frame_off sealed durably; the frame
     * occupies [frame_off, frame_off+frame_len). V2 on the header
     * line; on success the frame joins the V3-protected set until
     * the next epoch reset.
     */
    void on_seal_durable(Bytes frame_off, Bytes frame_len);

    /** Delta-log GC: sealed frames are no longer reachable. */
    void on_epoch_reset();

    /**
     * The scrubber is about to kill the sealed frame at @p frame_off
     * (dead-header truncation of a rotten chain tail). Lifts V3
     * protection for that frame and every later one — nothing at or
     * past a dead header is reachable to replay.
     */
    void on_delta_truncate(Bytes frame_off);

    /**
     * The replicated watermark is advancing to @p counter. V1
     * (early ack): the counter must not exceed the newest durably
     * published checkpoint.
     */
    void on_watermark_advance(std::uint64_t counter);

    /**
     * The slot payload [payload_off, payload_off+payload_len) was
     * quarantined (latent corruption detected by recovery or the
     * scrubber). Lifts V3 lost-update protection for the range so the
     * in-place salvage write is not reported as an overwrite of the
     * protected checkpoint; the repair site re-arms protection via
     * on_repair_durable().
     */
    void on_quarantine(Bytes payload_off, Bytes payload_len);

    /**
     * A repair write into [payload_off, payload_off+payload_len)
     * reported its persist→fence complete. V2: the range must now be
     * Durable. On success the range rejoins the V3-protected set.
     */
    void on_repair_durable(Bytes payload_off, Bytes payload_len);

    /** Device reformat: all protection and publish state resets. */
    void on_format();

    /** Newest durably published counter observed (0 before any). */
    std::uint64_t last_published_counter() const;

  private:
    /** Per-line durability states (docs/PSAN.md state machine). */
    enum class LineState : std::uint8_t {
        kClean = 0,  ///< untouched this run; media content is stable
        kDirty,      ///< written, persistence not initiated
        kFlushPending,  ///< persist initiated, fence outstanding
        kDurable,       ///< guaranteed on media
    };

    /** One coalesced run of same-state lines: [begin, end) lines. */
    struct Run {
        Bytes end = 0;
        LineState state = LineState::kClean;
    };

    Bytes line_of(Bytes offset) const { return offset / line_size_; }
    /** First line strictly past [offset, offset+len). */
    Bytes line_end_of(Bytes offset, Bytes len) const
    {
        return len == 0 ? line_of(offset) : line_of(offset + len - 1) + 1;
    }

    /** Set [first, last) lines to @p state (kClean = erase). */
    void set_lines(Bytes first, Bytes last, LineState state)
        PCCHECK_REQUIRES(mu_);
    /** Split any run straddling @p line so runs align to it. */
    void split_at(Bytes line) PCCHECK_REQUIRES(mu_);
    /** Merge @p it with its predecessor/successor when same-state. */
    void coalesce_around(std::map<Bytes, Run>::iterator it)
        PCCHECK_REQUIRES(mu_);
    /** Lines of [first, last) NOT in @p state. */
    std::uint64_t count_lines_not(Bytes first, Bytes last,
                                  LineState state) const
        PCCHECK_REQUIRES(mu_);
    /**
     * First line in [first, last) that is Dirty or FlushPending, or
     * kNoLine when the whole range is stable (Durable/Clean).
     */
    Bytes first_unstable(Bytes first, Bytes last) const
        PCCHECK_REQUIRES(mu_);
    bool any_flush_pending() const PCCHECK_REQUIRES(mu_);

    /** Byte-range overlap query against an interval set. */
    static bool ranges_overlap(const std::map<Bytes, Bytes>& set,
                               Bytes offset, Bytes len, Bytes* hit_begin,
                               Bytes* hit_end);

    void violation(psan::Rule rule, Bytes offset, Bytes len,
                   const std::string& message) const PCCHECK_REQUIRES(mu_);

    StorageDevice* inner_;
    std::unique_ptr<StorageDevice> owned_;
    StorageKind kind_;
    Bytes line_size_;
    bool fence_commits_;  ///< needs_fence(kind): persist → FlushPending

    mutable Mutex mu_;
    /** Shadow interval map: start line → run. kClean runs are absent. */
    std::map<Bytes, Run> runs_ PCCHECK_GUARDED_BY(mu_);
    /** V3-protected byte ranges: the live slot payload (replaced per
     *  publish) and sealed delta frames (cleared per epoch reset). */
    std::map<Bytes, Bytes> slot_protect_ PCCHECK_GUARDED_BY(mu_);
    std::map<Bytes, Bytes> delta_protect_ PCCHECK_GUARDED_BY(mu_);
    bool has_published_ PCCHECK_GUARDED_BY(mu_) = false;
    std::uint64_t published_counter_ PCCHECK_GUARDED_BY(mu_) = 0;
    /** Monotonic per-device op index for violation provenance. */
    std::uint64_t op_index_ PCCHECK_GUARDED_BY(mu_) = 0;
};

}  // namespace pccheck

#endif  // PCCHECK_PSAN_PSAN_STORAGE_H_
