#ifndef PCCHECK_REMOTE_REPLICATION_H_
#define PCCHECK_REMOTE_REPLICATION_H_

/**
 * @file
 * Peer-replication engine — the send side of the checkpoint
 * replication tier (docs/REPLICATION.md).
 *
 * Each checkpoint's staged chunks are replicated to every peer's
 * ReplicaStore over SimNetwork::transfer_for *concurrently with* the
 * local persist: the orchestrator hands each chunk to send_chunk()
 * right after handing it to the PersistEngine, so network and storage
 * pipelines overlap per chunk (Checkmate-style network tier riding
 * FastPersist-style parallel persist).
 *
 * Peers form a chain in peer order: the owner sends each sub-chunk to
 * the first peer only, and each peer that stored it relays it to the
 * next over its own NIC, so the owner's NIC carries one copy per
 * checkpoint whatever the replica count.
 *
 * Commit gating: the orchestrator calls await_quorum() before the
 * CHECK_ADDR CAS. A checkpoint publishes when local persist succeeds
 * AND `quorum` replicas acked (sealed byte-complete + CRC-valid).
 * quorum = 0 never gates; a quorum miss (dead peer, drops, DRAM
 * rejection) still commits locally, ticks
 * `pccheck.replication.degraded`, and skips the watermark advance —
 * graceful degradation, mirroring the storage path.
 *
 * Every network send is deadline-bounded by `ack_timeout`, so a dead
 * peer costs one timeout per in-flight transfer, never a hang.
 */

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "concurrent/thread_pool.h"
#include "net/network.h"
#include "remote/replica_store.h"
#include "util/annotations.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/sync.h"
#include "util/validation.h"

namespace pccheck {

/** Replication knobs (quorum = 0 reproduces local-only behaviour). */
struct ReplicationConfig {
    /** Peer replicas each checkpoint streams to. 0 disables the tier. */
    int replicas = 0;
    /** Acks required before the commit CAS may publish (<= replicas). */
    int quorum = 0;
    /** Largest network sub-chunk: each staged chunk is cut into
     *  ceil(len / chunk_bytes) sub-chunks of equal size. */
    Bytes chunk_bytes = 256 * kKiB;
    /** Per-transfer ack deadline — the cost of a dead peer. */
    Seconds ack_timeout = 0.05;

    bool enabled() const { return replicas > 0; }
    /** Range checks; see util/validation.h. */
    [[nodiscard]] ConfigDiagnostics validate() const;
};

/** One replication target: a peer node id plus its DRAM store. */
struct ReplicaPeer {
    int node = -1;
    ReplicaStore* store = nullptr;
};

/**
 * Replicates checkpoint chunks down a chain of peer ReplicaStores;
 * thread safe.
 *
 * Each chain hop runs kLanes strands on a shared pool of
 * replicas x kLanes threads, so two sub-chunk transfers are in flight
 * per hop. A failed hop is skipped: the next peer receives from the
 * nearest earlier holder, the owner included. A peer stores a version
 * only after every earlier-issued sub-chunk and seal addressed to it
 * has resolved, so it writes one version at a time.
 */
class ReplicationEngine {
  public:
    /**
     * @param network fabric shared with the rest of the cluster
     * @param self_node this (sending) node's id
     * @param config   quorum / chunking / deadline knobs
     * @param peers    one entry per replica; size must equal
     *                 config.replicas
     * @param clock    time source (deadlines, degradation accounting)
     */
    ReplicationEngine(SimNetwork& network, int self_node,
                      const ReplicationConfig& config,
                      std::vector<ReplicaPeer> peers,
                      const Clock& clock = MonotonicClock::instance());

    ~ReplicationEngine();

    ReplicationEngine(const ReplicationEngine&) = delete;
    ReplicationEngine& operator=(const ReplicationEngine&) = delete;

    /**
     * Sub-chunk transfers in flight per chain hop, one per lane.
     * transfer_for pays egress, then ingress, so one transfer in
     * flight keeps each NIC busy half the time; two keep both busy,
     * but only because split() gives both lanes equal bytes.
     */
    static constexpr std::size_t kLanes = 2;

    /**
     * How send_chunk() cuts a staged chunk: into count =
     * ceil(len / chunk_bytes) sub-chunks of equal size, the first
     * `longer` of them one byte longer. None exceeds chunk_bytes, and
     * the lanes, which take sub-chunks in turn, carry equal bytes.
     */
    struct Split {
        Bytes count = 0;
        Bytes base = 0;    ///< len / count
        Bytes longer = 0;  ///< len % count
        /** Offset of sub-chunk @p i within the staged chunk. */
        Bytes at(Bytes i) const { return i * base + std::min(i, longer); }
        Bytes size(Bytes i) const { return base + (i < longer ? 1 : 0); }
    };
    static Split split(Bytes len, Bytes chunk_bytes);

    /** One checkpoint's replication state; see begin(). */
    class Inflight {
      public:
        std::uint64_t counter() const { return counter_; }

      private:
        friend class ReplicationEngine;
        std::uint64_t counter_ = 0;
        std::uint64_t iteration_ = 0;
        Bytes total_len_ = 0;
        mutable Mutex mu_;
        CondVar cv_;
        int acked_ PCCHECK_GUARDED_BY(mu_) = 0;
        int resolved_ PCCHECK_GUARDED_BY(mu_) = 0;  ///< acked or failed
        std::vector<bool> peer_failed_ PCCHECK_GUARDED_BY(mu_);
        std::vector<bool> peer_acked_ PCCHECK_GUARDED_BY(mu_);
        /** Per peer: sub-chunks sent but not yet resolved there. */
        std::vector<int> pending_ PCCHECK_GUARDED_BY(mu_);
        bool sealed_ PCCHECK_GUARDED_BY(mu_) = false;  ///< seal() ran
        std::uint32_t data_crc_ PCCHECK_GUARDED_BY(mu_) = 0;
        /** advance_watermark() ran: a later ack advances its peer. */
        bool published_ PCCHECK_GUARDED_BY(mu_) = false;
    };
    using Handle = std::shared_ptr<Inflight>;

    /** Open replication for one checkpoint attempt. */
    Handle begin(std::uint64_t counter, std::uint64_t iteration,
                 Bytes total_len);

    /**
     * Send one staged chunk down the peer chain, pipelined with the
     * local persist of the same bytes: the owner sends each sub-chunk
     * to the first peer, and each peer that stored it relays it to
     * the next. Every hop copies from @p src, which must stay valid
     * until @p done runs (once, after the last peer has either stored
     * or failed every sub-chunk) — the orchestrator shares the staging
     * buffer between this and the persist engine via a two-party
     * refcount.
     */
    void send_chunk(const Handle& handle, Bytes offset, const void* src,
                    Bytes len, std::function<void()> done);

    /**
     * Final chunk sent: deliver the checkpoint CRC. Each peer seals
     * its version (byte-completeness + CRC check) and acks or fails:
     * on the strand that resolves its last sub-chunk, or on a strand
     * queued here when every sub-chunk has already resolved. Must be
     * called exactly once per handle, after every send_chunk.
     */
    void seal(const Handle& handle, std::uint32_t data_crc);

    /**
     * Block until the write quorum is met or provably missed. Bounded:
     * every outstanding transfer carries an ack_timeout deadline.
     * True = `quorum` peers acked; false ticks
     * `pccheck.replication.degraded`. quorum = 0 returns true
     * immediately. Call before the commit CAS — never publish a
     * watermark on an un-acked replica.
     */
    bool await_quorum(const Handle& handle);

    /**
     * The handle's checkpoint is now locally durable (published) and
     * quorum-acked: advance the durable-publish watermark on every
     * peer that acked it, now or when its seal lands later. Only call
     * after await_quorum(handle) returned true and the local publish
     * succeeded.
     */
    void advance_watermark(const Handle& handle);

    /**
     * Observation guard invoked (on the caller's thread) with the
     * counter of every advance_watermark() before any peer-side
     * advance. The persistence sanitizer uses this to enforce
     * ack-before-payload ordering (docs/PSAN.md rule V1) without this
     * layer depending on psan. Empty = no guard. Set
     * before replication traffic starts; not thread-safe against
     * in-flight advances.
     */
    void set_watermark_guard(std::function<void(std::uint64_t)> guard)
    {
        watermark_guard_ = std::move(guard);
    }

    const ReplicationConfig& config() const { return config_; }
    int self_node() const { return self_; }

    /**
     * Block until every queued peer task (chunk hops and seals) has
     * drained. Only meaningful once callers stop issuing new work —
     * tests and shutdown paths use it to make the asynchronous strand
     * state observable.
     */
    void flush();

    /** Checkpoints that committed without their quorum. */
    std::uint64_t degraded() const
    {
        // relaxed: monitoring counter, no ordering required.
        return degraded_.load(std::memory_order_relaxed);
    }

    /** Total replica acks recorded. */
    std::uint64_t acks() const
    {
        // relaxed: monitoring counter, no ordering required.
        return acks_.load(std::memory_order_relaxed);
    }

    /**
     * Total bytes handed to the fabric, counted on every hop (a chain
     * of R peers sends R copies, one per hop) and including dropped
     * sends.
     */
    Bytes bytes_sent() const
    {
        Bytes total = 0;
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
            total += lane_bytes(lane);
        }
        return total;
    }

    /** The part of bytes_sent() that went down lane @p lane. */
    Bytes lane_bytes(std::size_t lane) const
    {
        // relaxed: monitoring counter, no ordering required.
        return lane_bytes_[lane].load(std::memory_order_relaxed);
    }

  private:
    /** FIFO task queue run on the shared pool, one task at a time. */
    struct Strand {
        Mutex mu;
        std::deque<std::function<void()>> queue PCCHECK_GUARDED_BY(mu);
        bool running PCCHECK_GUARDED_BY(mu) = false;
    };

    /** Consecutive work items for one version at one peer. */
    struct Run {
        std::uint64_t counter = 0;
        int unresolved = 0;
    };

    /** One chain position: its peer, its lanes and its write order. */
    struct PeerState {
        ReplicaPeer peer;
        Strand lanes[kLanes];
        Mutex mu;
        CondVar turn_cv;
        /** Issued, unresolved work in issue order; a sub-chunk stores
         *  only once every earlier run has resolved. */
        std::deque<Run> runs PCCHECK_GUARDED_BY(mu);
        std::uint64_t first_run PCCHECK_GUARDED_BY(mu) = 0;  ///< front's id
    };

    struct Chunk;

    void enqueue(Strand& strand, std::function<void()> task);
    void drain(Strand& strand);
    /** Send one sub-chunk to chain position @p index from @p holder. */
    void hop(const std::shared_ptr<Chunk>& chunk, Bytes at, Bytes len,
             std::size_t lane, std::size_t index, int holder);
    /** One sub-chunk resolved at peer @p index; seals when it was the
     *  last one and seal() already ran. */
    void resolve(const Handle& handle, std::size_t index,
                 std::uint64_t run);
    void seal_peer(const Handle& handle, std::size_t index,
                   std::uint32_t data_crc);
    /** Append @p items of version @p counter to @p state's runs. */
    static std::uint64_t issue(PeerState& state, std::uint64_t counter,
                               int items);
    static void await_turn(PeerState& state, std::uint64_t run);
    static void finish_run(PeerState& state, std::uint64_t run);
    void mark_peer_failed(const Handle& handle, std::size_t index);
    void record_ack(const Handle& handle, std::size_t index, bool acked);

    SimNetwork* net_;
    const int self_;
    const ReplicationConfig config_;
    const Clock* clock_;
    std::vector<std::unique_ptr<PeerState>> peers_;
    /** Makes each run issue and its lane hand-off one step, so a
     *  lane never queues work ahead of earlier-issued work. */
    Mutex issue_mu_;
    std::size_t next_lane_ PCCHECK_GUARDED_BY(issue_mu_) = 0;
    std::unique_ptr<ThreadPool> pool_;
    Atomic<std::uint64_t> degraded_{0};
    Atomic<std::uint64_t> acks_{0};
    Atomic<Bytes> lane_bytes_[kLanes]{};
    /** Set once before traffic starts; called on the advancing thread. */
    std::function<void(std::uint64_t)> watermark_guard_;
};

}  // namespace pccheck

#endif  // PCCHECK_REMOTE_REPLICATION_H_
