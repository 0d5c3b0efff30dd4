#include "remote/replication.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace pccheck {

ConfigDiagnostics
ReplicationConfig::validate() const
{
    ConfigDiagnostics diag;
    if (replicas < 0 || quorum < 0) {
        diag.error("replicas", "replicas and quorum must be >= 0");
    }
    if (quorum > replicas) {
        diag.error("quorum", "exceeds replica count");
    }
    if (chunk_bytes == 0) {
        diag.error("chunk_bytes", "must be > 0");
    }
    if (!std::isfinite(ack_timeout) || ack_timeout <= 0) {
        diag.error("ack_timeout", "must be finite and > 0");
    }
    return diag;
}

ReplicationEngine::ReplicationEngine(SimNetwork& network, int self_node,
                                     const ReplicationConfig& config,
                                     std::vector<ReplicaPeer> peers,
                                     const Clock& clock)
    : net_(&network), self_(self_node), config_(config), clock_(&clock)
{
    config_.validate().check("ReplicationConfig");
    PCCHECK_CHECK_MSG(
        peers.size() == static_cast<std::size_t>(config_.replicas),
        "ReplicationEngine: " << peers.size() << " peers for "
                              << config_.replicas << " replicas");
    peers_.reserve(peers.size());
    for (const ReplicaPeer& peer : peers) {
        PCCHECK_CHECK(peer.store != nullptr);
        PCCHECK_CHECK(peer.node >= 0 && peer.node < network.nodes());
        PCCHECK_CHECK_MSG(peer.node != self_node,
                          "a node cannot replicate to itself");
        auto state = std::make_unique<PeerState>();
        state->peer = peer;
        peers_.push_back(std::move(state));
    }
    // One thread per lane: a lane blocked on its peer's write order
    // never starves another.
    pool_ = std::make_unique<ThreadPool>(
        std::max<std::size_t>(1, peers_.size() * kLanes));
}

ReplicationEngine::~ReplicationEngine() = default;

void
ReplicationEngine::flush()
{
    // Each drain task keeps running until its strand queue is empty,
    // and a hop enqueues the next one before it returns, so once
    // callers stop enqueuing, waiting for the pool to idle means every
    // queued task (and its follow-on drains) has run.
    pool_->wait_idle();
}

void
ReplicationEngine::enqueue(Strand& strand, std::function<void()> task)
{
    bool start = false;
    {
        MutexLock lock(strand.mu);
        strand.queue.push_back(std::move(task));
        if (!strand.running) {
            strand.running = true;
            start = true;
        }
    }
    if (start) {
        (void)pool_->submit([this, &strand] { drain(strand); });
    }
}

void
ReplicationEngine::drain(Strand& strand)
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(strand.mu);
            if (strand.queue.empty()) {
                strand.running = false;
                return;
            }
            task = std::move(strand.queue.front());
            strand.queue.pop_front();
        }
        task();
    }
}

std::uint64_t
ReplicationEngine::issue(PeerState& state, std::uint64_t counter,
                         int items)
{
    MutexLock lock(state.mu);
    if (state.runs.empty() || state.runs.back().counter != counter) {
        state.runs.push_back(Run{counter, 0});
    }
    state.runs.back().unresolved += items;
    return state.first_run + state.runs.size() - 1;
}

void
ReplicationEngine::await_turn(PeerState& state, std::uint64_t run)
{
    // Bounded: every earlier run was issued before this one, and each
    // of its items resolves within its own deadline-bounded transfer.
    MutexLock lock(state.mu);
    while (state.first_run < run) {
        state.turn_cv.wait(state.mu);
    }
}

void
ReplicationEngine::finish_run(PeerState& state, std::uint64_t run)
{
    MutexLock lock(state.mu);
    --state.runs[run - state.first_run].unresolved;
    bool advanced = false;
    while (!state.runs.empty() && state.runs.front().unresolved == 0) {
        state.runs.pop_front();
        ++state.first_run;
        advanced = true;
    }
    if (advanced) {
        state.turn_cv.notify_all();
    }
}

ReplicationEngine::Handle
ReplicationEngine::begin(std::uint64_t counter, std::uint64_t iteration,
                         Bytes total_len)
{
    auto handle = std::make_shared<Inflight>();
    handle->counter_ = counter;
    handle->iteration_ = iteration;
    handle->total_len_ = total_len;
    {
        MutexLock lock(handle->mu_);
        handle->peer_failed_.assign(peers_.size(), false);
        handle->peer_acked_.assign(peers_.size(), false);
        handle->pending_.assign(peers_.size(), 0);
    }
    return handle;
}

void
ReplicationEngine::mark_peer_failed(const Handle& handle,
                                    std::size_t index)
{
    MutexLock lock(handle->mu_);
    if (!handle->peer_failed_[index]) {
        handle->peer_failed_[index] = true;
        ++handle->resolved_;
        handle->cv_.notify_all();
    }
}

void
ReplicationEngine::record_ack(const Handle& handle, std::size_t index,
                              bool acked)
{
    bool published = false;
    {
        MutexLock lock(handle->mu_);
        if (acked) {
            handle->peer_acked_[index] = true;
            ++handle->acked_;
            published = handle->published_;
        } else {
            handle->peer_failed_[index] = true;
        }
        ++handle->resolved_;
        handle->cv_.notify_all();
    }
    if (acked) {
        // Cached handle: a registry lookup per ack would pay a string
        // construction and the registry mutex on the strand.
        static Counter& acks_counter =
            MetricsRegistry::global().counter("pccheck.replication.acks");
        // relaxed: monitoring counter, no ordering required.
        acks_.fetch_add(1, std::memory_order_relaxed);
        acks_counter.add();
    }
    if (published) {
        // quorum-acked: advance_watermark() ran before this peer's
        // seal landed; the peer holds the version now.
        peers_[index]->peer.store->advance_watermark(handle->counter_);
    }
}

ReplicationEngine::Split
ReplicationEngine::split(Bytes len, Bytes chunk_bytes)
{
    PCCHECK_CHECK(chunk_bytes > 0);
    Split out;
    out.count = (len + chunk_bytes - 1) / chunk_bytes;
    if (out.count > 0) {
        out.base = len / out.count;
        out.longer = len % out.count;
    }
    return out;
}

struct ReplicationEngine::Chunk {
    Handle handle;
    const std::uint8_t* src = nullptr;  ///< staging buffer
    Bytes offset = 0;                   ///< of src within the version
    /** Per peer: the run this chunk's sub-chunks were issued into. */
    std::vector<std::uint64_t> run;
    /** Sub-chunks whose chain has not ended yet. */
    Atomic<int> remaining{0};
    std::function<void()> done;
};

PCCHECK_HOT_PATH void
ReplicationEngine::send_chunk(const Handle& handle, Bytes offset,
                              const void* src, Bytes len,
                              std::function<void()> done)
{
    PCCHECK_CHECK(handle != nullptr);
    if (peers_.empty() || len == 0) {
        if (done) {
            done();
        }
        return;
    }
    const Split cut = split(len, config_.chunk_bytes);
    const auto subs = static_cast<int>(cut.count);
    // pccheck-tidy: disable=hot-path-alloc -- one control block per
    // staged chunk, amortized over chunk_bytes of network I/O.
    auto chunk = std::make_shared<Chunk>();
    chunk->handle = handle;
    chunk->src = static_cast<const std::uint8_t*>(src);
    chunk->offset = offset;
    // relaxed: the store precedes the task submissions that share the
    // counter; the strand queue handoff publishes it.
    chunk->remaining.store(subs, std::memory_order_relaxed);
    chunk->done = std::move(done);
    {
        MutexLock lock(handle->mu_);
        for (int& pending : handle->pending_) {
            pending += subs;
        }
    }
    MutexLock lock(issue_mu_);
    // pccheck-tidy: disable=hot-path-alloc -- one run id per peer.
    chunk->run.resize(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        chunk->run[i] = issue(*peers_[i], handle->counter_, subs);
    }
    for (Bytes i = 0; i < cut.count; ++i) {
        const Bytes at = cut.at(i);
        const Bytes sub = cut.size(i);
        const std::size_t lane = next_lane_++ % kLanes;
        // pccheck-tidy: disable=hot-path-alloc -- task capture + strand
        // queue node, once per sub-chunk handoff.
        enqueue(peers_[0]->lanes[lane], [this, chunk, at, sub, lane] {
            hop(chunk, at, sub, lane, 0, self_);
        });
    }
}

void
ReplicationEngine::hop(const std::shared_ptr<Chunk>& chunk, Bytes at,
                       Bytes len, std::size_t lane, std::size_t index,
                       int holder)
{
    // Cached handles: this runs once per sub-chunk per hop, so
    // per-call registry lookups (string ctor + registry mutex + map
    // walk) would serialize senders on the metrics lock.
    static Counter& bytes_counter =
        MetricsRegistry::global().counter("pccheck.replication.bytes");
    static Counter& chunks_counter =
        MetricsRegistry::global().counter(
            "pccheck.replication.chunks_sent");
    PeerState& state = *peers_[index];
    const Inflight& version = *chunk->handle;
    bool failed;
    {
        MutexLock lock(version.mu_);
        failed = version.peer_failed_[index];
    }
    if (!failed) {
        // relaxed: monitoring counter, no ordering needed.
        lane_bytes_[lane].fetch_add(len, std::memory_order_relaxed);
        bytes_counter.add(len);
        bool stored = net_->transfer_for(holder, state.peer.node, len,
                                         config_.ack_timeout)
                          .has_value();
        if (stored) {
            await_turn(state, chunk->run[index]);
            // A relay copies from the staging buffer too: the bytes
            // are the ones the previous holder stored.
            stored = state.peer.store
                         ->store_chunk(version.counter_, version.iteration_,
                                       version.total_len_,
                                       chunk->offset + at, chunk->src + at,
                                       len)
                         .stored;
        }
        if (stored) {
            chunks_counter.add();
            holder = state.peer.node;
        } else {
            mark_peer_failed(chunk->handle, index);
        }
    }
    resolve(chunk->handle, index, chunk->run[index]);
    if (index + 1 < peers_.size()) {
        // Same lane down the chain: each lane then sees its sub-chunks
        // in issue order at every hop.
        // pccheck-tidy: disable=hot-path-alloc -- task capture + strand
        // queue node, once per sub-chunk hop.
        enqueue(peers_[index + 1]->lanes[lane],
                [this, chunk, at, len, lane, index, holder] {
                    hop(chunk, at, len, lane, index + 1, holder);
                });
        return;
    }
    // The tail is done with this sub-chunk: the staging buffer is free
    // once every sub-chunk got here.
    if (chunk->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        chunk->done) {
        chunk->done();
    }
}

void
ReplicationEngine::resolve(const Handle& handle, std::size_t index,
                           std::uint64_t run)
{
    bool seal_now;
    std::uint32_t data_crc;
    {
        MutexLock lock(handle->mu_);
        seal_now = --handle->pending_[index] == 0 && handle->sealed_;
        data_crc = handle->data_crc_;
    }
    if (seal_now) {
        // Before the run resolves: the peer's next version waits for
        // this seal, so the peer writes one version at a time.
        seal_peer(handle, index, data_crc);
    }
    finish_run(*peers_[index], run);
}

void
ReplicationEngine::seal_peer(const Handle& handle, std::size_t index,
                             std::uint32_t data_crc)
{
    {
        MutexLock lock(handle->mu_);
        if (handle->peer_failed_[index]) {
            return;  // already resolved as failed
        }
    }
    record_ack(handle, index,
               peers_[index]->peer.store->seal(handle->counter_, data_crc));
}

void
ReplicationEngine::seal(const Handle& handle, std::uint32_t data_crc)
{
    PCCHECK_CHECK(handle != nullptr);
    std::vector<std::size_t> landed;
    {
        MutexLock lock(handle->mu_);
        handle->sealed_ = true;
        handle->data_crc_ = data_crc;
        for (std::size_t i = 0; i < peers_.size(); ++i) {
            if (handle->pending_[i] == 0) {
                landed.push_back(i);
            }
        }
    }
    // Every other peer seals on the strand that resolves its last
    // sub-chunk. The queued seal is a run of its own, so the peer's
    // next version waits for it; it never waits itself, because its
    // version's stores already waited for every earlier run.
    MutexLock lock(issue_mu_);
    for (const std::size_t i : landed) {
        PeerState& state = *peers_[i];
        const std::uint64_t run = issue(state, handle->counter_, 1);
        enqueue(state.lanes[0], [this, handle, i, data_crc, run] {
            seal_peer(handle, i, data_crc);
            finish_run(*peers_[i], run);
        });
    }
}

bool
ReplicationEngine::await_quorum(const Handle& handle)
{
    PCCHECK_CHECK(handle != nullptr);
    if (config_.quorum == 0) {
        return true;  // never gate: today's local-only behaviour
    }
    const int total = static_cast<int>(peers_.size());
    bool met;
    {
        MutexLock lock(handle->mu_);
        // Bounded: every pending peer resolves once its deadline-
        // bounded transfers and seal land on its strands.
        while (handle->acked_ < config_.quorum &&
               handle->acked_ + (total - handle->resolved_) >=
                   config_.quorum) {
            handle->cv_.wait(handle->mu_);
        }
        met = handle->acked_ >= config_.quorum;
    }
    if (!met) {
        // relaxed: monitoring counter, no ordering required.
        degraded_.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::global()
            .counter("pccheck.replication.degraded")
            .add();
    }
    return met;
}

void
ReplicationEngine::advance_watermark(const Handle& handle)
{
    PCCHECK_CHECK(handle != nullptr);
    if (watermark_guard_) {
        watermark_guard_(handle->counter_);
    }
    std::vector<std::size_t> acked;
    {
        MutexLock lock(handle->mu_);
        handle->published_ = true;
        for (std::size_t i = 0; i < peers_.size(); ++i) {
            if (handle->peer_acked_[i]) {
                acked.push_back(i);
            }
        }
    }
    // A peer whose seal has not landed yet advances in record_ack; an
    // un-acked peer never advances past what it holds.
    for (const std::size_t i : acked) {
        // quorum-acked: the orchestrator only calls advance_watermark
        // after await_quorum succeeded and the local publish is
        // durable, and this peer's ack is recorded.
        peers_[i]->peer.store->advance_watermark(handle->counter_);
    }
}

}  // namespace pccheck
