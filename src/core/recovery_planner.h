#ifndef PCCHECK_CORE_RECOVERY_PLANNER_H_
#define PCCHECK_CORE_RECOVERY_PLANNER_H_

/**
 * @file
 * Multi-source recovery planning (docs/RECOVERY.md).
 *
 * The RecoveryPlanner is the one recovery loop: survey → rank →
 * verify → fall back → replay over every source that can produce a
 * checkpoint image. recover_to_buffer and recover_latest_into_state
 * (core/recovery.h) are read-only runs of it. Its sources are:
 *
 *   - the local slot arena (CHECK_ADDR pointer records),
 *   - the local delta-frame chain (replayed on top of the chosen base
 *     when its base counter matches),
 *   - any number of pluggable RecoverySources (peer ReplicaStores via
 *     remote/replica_source.h, test doubles, future tiers).
 *
 * Candidates are ranked newest-counter-first with source cost as the
 * tie break, then tried in order. Each candidate ends with a verdict:
 * CRC-valid, torn (bytes readable but fail their CRC), unreadable
 * (media error), or stale (superseded before it was tried). A torn or
 * unreadable *newest local* slot is quarantined in the SlotStore —
 * skipped by recovery and never recycled by the commit protocol until
 * repaired — while older local candidates that fail CRC are classified
 * stale (their slot was legitimately recycled under the record).
 *
 * When the winning image came from a remote source and the local
 * arena is writable, the planner can salvage: re-persist the image
 * into a local slot under the full write→persist→fence→publish
 * contract (psan-checked), so the next recovery is local again. That
 * write-back is what makes recovery re-entrant — a crash during
 * salvage leaves either the old state or a fully published new record,
 * never a half-trusted slot (tests/recovery_storm_test.cc and the MC
 * recovery-crash enumerator check exactly this).
 *
 * The planner opens its own SlotStore handle, whose quarantine cache
 * no other handle shares. A planner that can write (quarantine or
 * salvage on) must therefore be the only writer on its device: run it
 * before a checkpointer opens the device, or after it is destroyed.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "core/recovery.h"
#include "core/slot_store.h"
#include "storage/device.h"
#include "util/clock.h"

namespace pccheck {

/** Outcome of examining one recovery candidate. */
enum class CandidateVerdict {
    kUntried,     ///< ranked but never reached (a better one won)
    kValid,       ///< bytes read and CRC-verified
    kTorn,        ///< bytes readable but fail their CRC
    kUnreadable,  ///< media error while reading
    kStale,       ///< superseded: slot recycled under an old record
};

const char* to_string(CandidateVerdict verdict);

/** One restorable checkpoint image, wherever it lives. */
struct RecoveryCandidate {
    std::uint64_t counter = 0;
    std::uint64_t iteration = 0;
    Bytes data_len = 0;
    std::uint32_t data_crc = 0;  ///< 0 = no CRC recorded
    /** Rank tie-break among equal counters: lower is preferred
     *  (0 for local slots; modeled transfer time for peers). */
    double cost = 0.0;
    bool local = false;
    std::uint32_t slot = 0;   ///< local candidates: arena slot
    int source_node = -1;     ///< remote candidates: peer node id
    const char* source = "";  ///< source name (static lifetime)
    CandidateVerdict verdict = CandidateVerdict::kUntried;
};

/**
 * A tier that can enumerate and serve checkpoint images. Implemented
 * by remote/replica_source.h for peer ReplicaStores; the local slot
 * arena is built into the planner. Sources are not owned and must
 * outlive the planner.
 */
class RecoverySource {
  public:
    virtual ~RecoverySource() = default;

    /** Source name for reports/logs (static lifetime). */
    virtual const char* name() const = 0;

    /** Enumerate currently restorable images (cheap; no payload IO). */
    virtual std::vector<RecoveryCandidate> survey() = 0;

    /**
     * Fetch @p candidate's image into @p out (resized to data_len).
     * Returns false when the bytes cannot be produced (peer died,
     * version evicted, transfer timed out) — the planner marks the
     * candidate unreadable and falls back. CRC verification of the
     * fetched bytes is the planner's job, not the source's.
     */
    virtual bool fetch(const RecoveryCandidate& candidate,
                       std::vector<std::uint8_t>* out) = 0;
};

/** What the planner recovered, with the full per-candidate audit. */
struct PlannedRecovery {
    RecoveryResult result;
    bool from_replica = false;  ///< image came from a remote source
    int source_node = -1;       ///< serving peer (-1 = local)
    /** Every surveyed candidate in rank order, verdicts filled in up
     *  to (and including) the winner; later ones stay kUntried or are
     *  marked kStale. */
    std::vector<RecoveryCandidate> report;
    /** Local slots newly quarantined during this recovery. */
    std::uint64_t slots_quarantined = 0;
    /** True when the image was re-persisted into the local arena. */
    bool salvaged = false;
};

/** Unified local + pluggable-source recovery with verdicts. */
class RecoveryPlanner {
  public:
    struct Options {
        /** Re-persist a remotely restored image into the local arena
         *  (full persist→fence→publish contract). */
        bool salvage = true;
        /** Quarantine the newest local slot when torn/unreadable. */
        bool quarantine = true;
    };

    /**
     * @param local_device this node's checkpoint media, or nullptr
     *        when the media is gone entirely (remote-only recovery)
     */
    explicit RecoveryPlanner(StorageDevice* local_device);
    RecoveryPlanner(StorageDevice* local_device, Options options,
                    const Clock& clock = MonotonicClock::instance());

    /** Register an additional source (borrowed, outlives planner). */
    void add_source(RecoverySource* source);

    /**
     * Survey and rank every candidate, try them best-first until one
     * verifies, quarantine and salvage per Options, then replay the
     * local delta chain on top. @return std::nullopt when every source
     * is exhausted (all verdicts are then torn/unreadable/stale).
     */
    std::optional<PlannedRecovery> recover(std::vector<std::uint8_t>* out);

  private:
    /** Salvage @p image into the arena; true when published. */
    bool salvage_local(SlotStore& store,
                       const std::vector<std::uint8_t>& image,
                       const RecoveryCandidate& chosen,
                       PlannedRecovery* planned);

    StorageDevice* local_device_;
    Options options_;
    const Clock* clock_;
    std::vector<RecoverySource*> sources_;
};

}  // namespace pccheck

#endif  // PCCHECK_CORE_RECOVERY_PLANNER_H_
