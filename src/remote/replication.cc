#include "remote/replication.h"

#include <algorithm>
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
    if (ack_timeout <= 0) {
        diag.error("ack_timeout", "must be > 0");
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
    // One sender lane per peer: strands keep per-peer FIFO order while
    // peers stream in parallel.
    pool_ = std::make_unique<ThreadPool>(
        std::max<std::size_t>(1, peers_.size()));
}

ReplicationEngine::~ReplicationEngine() = default;

void
ReplicationEngine::flush()
{
    // Each drain task keeps running until its strand queue is empty,
    // so once callers stop enqueuing, waiting for the pool to idle
    // means every queued task (and its follow-on drains) has run.
    pool_->wait_idle();
}

void
ReplicationEngine::enqueue(PeerState& state, std::function<void()> task)
{
    bool start = false;
    {
        MutexLock lock(state.mu);
        state.queue.push_back(std::move(task));
        if (!state.running) {
            state.running = true;
            start = true;
        }
    }
    if (start) {
        (void)pool_->submit([this, &state] { drain(state); });
    }
}

void
ReplicationEngine::drain(PeerState& state)
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(state.mu);
            if (state.queue.empty()) {
                state.running = false;
                return;
            }
            task = std::move(state.queue.front());
            state.queue.pop_front();
        }
        task();
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
    {
        MutexLock lock(handle->mu_);
        if (acked) {
            handle->peer_acked_[index] = true;
            ++handle->acked_;
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
}

PCCHECK_HOT_PATH void
ReplicationEngine::send_chunk(const Handle& handle, Bytes offset,
                              const void* src, Bytes len,
                              std::function<void()> done)
{
    PCCHECK_CHECK(handle != nullptr);
    // Cached handles: the strand's inner loop runs once per sub-chunk,
    // so per-call registry lookups (string ctor + registry mutex + map
    // walk) would serialize senders on the metrics lock.
    static Counter& bytes_counter =
        MetricsRegistry::global().counter("pccheck.replication.bytes");
    static Counter& chunks_counter =
        MetricsRegistry::global().counter(
            "pccheck.replication.chunks_sent");
    if (peers_.empty()) {
        if (done) {
            done();
        }
        return;
    }
    struct ChunkFanout {
        Atomic<int> remaining{0};
        std::function<void()> done;
    };
    // pccheck-tidy: disable=hot-path-alloc -- one control block per
    // staged chunk, amortized over chunk_bytes of network I/O.
    auto fanout = std::make_shared<ChunkFanout>();
    // relaxed: the store precedes the task submissions that share the
    // counter; the strand queue handoff publishes it.
    fanout->remaining.store(static_cast<int>(peers_.size()),
                            std::memory_order_relaxed);
    fanout->done = std::move(done);
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        PeerState* state = peers_[i].get();
        // pccheck-tidy: disable=hot-path-alloc -- per-peer task
        // capture + strand queue node, once per chunk handoff.
        enqueue(*state, [this, state, handle, i, offset, src, len,
                         fanout] {
            bool failed;
            {
                MutexLock lock(handle->mu_);
                failed = handle->peer_failed_[i];
            }
            if (!failed) {
                const auto* bytes = static_cast<const std::uint8_t*>(src);
                for (Bytes sent = 0; sent < len;) {
                    const Bytes sub =
                        std::min(config_.chunk_bytes, len - sent);
                    // relaxed: monitoring counter, no ordering needed.
                    bytes_sent_.fetch_add(sub, std::memory_order_relaxed);
                    bytes_counter.add(sub);
                    if (!net_->transfer_for(self_, state->peer.node, sub,
                                            config_.ack_timeout)
                             .has_value()) {
                        mark_peer_failed(handle, i);
                        break;
                    }
                    if (!state->peer.store
                             ->store_chunk(handle->counter_,
                                           handle->iteration_,
                                           handle->total_len_,
                                           offset + sent, bytes + sent,
                                           sub)
                             .stored) {
                        mark_peer_failed(handle, i);
                        break;
                    }
                    chunks_counter.add();
                    sent += sub;
                }
            }
            if (fanout->remaining.fetch_sub(
                    1, std::memory_order_acq_rel) == 1 &&
                fanout->done) {
                fanout->done();
            }
        });
    }
}

void
ReplicationEngine::seal(const Handle& handle, std::uint32_t data_crc)
{
    PCCHECK_CHECK(handle != nullptr);
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        PeerState* state = peers_[i].get();
        enqueue(*state, [this, state, handle, i, data_crc] {
            {
                MutexLock lock(handle->mu_);
                if (handle->peer_failed_[i]) {
                    return;  // already resolved as failed
                }
            }
            const bool acked =
                state->peer.store->seal(handle->counter_, data_crc);
            record_ack(handle, i, acked);
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
        // bounded transfers and seal land on the strand.
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
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        PeerState* state = peers_[i].get();
        enqueue(*state, [state, handle, i] {
            bool acked;
            {
                MutexLock lock(handle->mu_);
                acked = handle->peer_acked_[i];
            }
            if (!acked) {
                return;  // never advance past what this peer holds
            }
            // quorum-acked: the orchestrator only calls
            // advance_watermark after await_quorum succeeded and the
            // local publish is durable, and this strand runs after the
            // seal that recorded this peer's ack.
            state->peer.store->advance_watermark(handle->counter_);
        });
    }
}

}  // namespace pccheck
