#ifndef PCCHECK_REMOTE_REPLICA_STORE_H_
#define PCCHECK_REMOTE_REPLICA_STORE_H_

/**
 * @file
 * Per-peer in-DRAM checkpoint replica store — the receive side of the
 * peer-replication tier (docs/REPLICATION.md).
 *
 * A ReplicaStore lives on a peer node and holds versioned checkpoint
 * images keyed by the commit-protocol counter. Chunks arrive over the
 * network in any order while the owner is still persisting locally;
 * seal() delivers the final CRC-32C, and only a version whose bytes
 * are all present and whose CRC validates becomes `complete` — the
 * unit of an ack in the write-quorum protocol.
 *
 * Sealing a version drops every older one, keeping one of their
 * buffers for the next version: a peer written one version at a time
 * holds the newest complete version plus one buffer, and allocates
 * nothing per version in steady state.
 *
 * The durable-publish watermark tracks the newest counter the owner
 * reported as both locally durable and quorum-acked. Recovery may
 * restore any complete version with counter >= watermark; eviction
 * under the DRAM budget (fig14 interplay) therefore prefers stale and
 * incomplete versions and never evicts the newest complete one.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "util/annotations.h"
#include "util/bytes.h"

namespace pccheck {

/** Recovery-facing summary of one replicated version. */
struct ReplicaSnapshot {
    std::uint64_t counter = 0;    ///< commit-protocol counter
    std::uint64_t iteration = 0;  ///< training iteration of the data
    Bytes data_len = 0;
    std::uint32_t data_crc = 0;   ///< 0 = sender did not compute CRCs
};

/** Counters exposed for tests and monitoring. */
struct ReplicaStoreStats {
    std::size_t versions = 0;     ///< versions currently held
    Bytes bytes_held = 0;         ///< DRAM in use, spare buffer included
    std::uint64_t evictions = 0;  ///< versions dropped for the budget
    std::uint64_t rejected = 0;   ///< chunks refused (budget too small)
};

/** One peer's DRAM replica slots; thread safe. */
class ReplicaStore {
  public:
    /** @param dram_budget max bytes of replica DRAM; 0 = unlimited. */
    explicit ReplicaStore(Bytes dram_budget = 0);

    struct ChunkResult {
        bool stored = false;         ///< bytes are in DRAM
        bool byte_complete = false;  ///< every byte of the version is
    };

    /**
     * Store one chunk of version @p counter. The first chunk of a new
     * counter takes the spare buffer when it has @p total_len bytes,
     * else allocates one (evicting under the budget if needed); a
     * version that cannot fit is refused and every later chunk of it
     * is refused too, which surfaces to the sender as a failed ack.
     */
    ChunkResult store_chunk(std::uint64_t counter, std::uint64_t iteration,
                            Bytes total_len, Bytes offset, const void* data,
                            Bytes len);

    /**
     * Deliver the final CRC for @p counter; validates byte completeness
     * and (when @p data_crc != 0) the CRC-32C over the whole buffer.
     * True = the version is complete — this is the replica's ack.
     * A sealed-complete version makes every older version prunable.
     */
    bool seal(std::uint64_t counter, std::uint32_t data_crc);

    /**
     * Owner reported @p counter as locally durable + quorum-acked.
     * Monotonic; versions below the new watermark become preferred
     * eviction victims but are kept while the budget allows.
     */
    void advance_watermark(std::uint64_t counter);

    /** Newest counter known durable + quorum-acked (0 before any). */
    std::uint64_t watermark() const;

    /** Newest complete (sealed, CRC-valid) version, if any. */
    std::optional<ReplicaSnapshot> newest_complete() const;

    /**
     * Copy @p len bytes at @p offset of complete version @p counter
     * into @p dst. False when the version is absent or incomplete.
     */
    bool read(std::uint64_t counter, Bytes offset, void* dst,
              Bytes len) const;

    /** Outcome of one replica-side scrub pass. */
    struct ScrubResult {
        std::uint64_t scanned = 0;  ///< complete versions re-verified
        std::uint64_t dropped = 0;  ///< versions failing their CRC
    };

    /**
     * Re-verify every complete version's bytes against its sealed
     * CRC-32C and drop the ones that no longer match (DRAM bit rot has
     * no in-place repair — the owner's next checkpoint or a quorum
     * peer re-replicates). Versions sealed without a CRC are skipped.
     */
    ScrubResult scrub();

    ReplicaStoreStats stats() const;
    Bytes dram_budget() const { return budget_; }

  private:
    struct Version {
        std::uint64_t iteration = 0;
        Bytes total_len = 0;
        Bytes received = 0;  ///< bytes stored (chunks never overlap)
        std::uint32_t data_crc = 0;
        bool complete = false;
        std::vector<std::uint8_t> data;
    };

    /** Evict until @p need more bytes fit; false if impossible. */
    bool make_room(Bytes need, std::uint64_t incoming)
        PCCHECK_REQUIRES(mu_);
    /** Drop every version older than the newest complete one, keeping
     *  one of their buffers as the spare. */
    void prune_superseded() PCCHECK_REQUIRES(mu_);

    const Bytes budget_;
    mutable Mutex mu_;
    std::map<std::uint64_t, Version> versions_ PCCHECK_GUARDED_BY(mu_);
    /** A superseded version's buffer, counted in held_. */
    std::vector<std::uint8_t> spare_ PCCHECK_GUARDED_BY(mu_);
    std::uint64_t watermark_ PCCHECK_GUARDED_BY(mu_) = 0;
    Bytes held_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t evictions_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t rejected_ PCCHECK_GUARDED_BY(mu_) = 0;
};

}  // namespace pccheck

#endif  // PCCHECK_REMOTE_REPLICA_STORE_H_
