#include "core/orchestrator.h"

#include "core/recovery.h"

#include <algorithm>
#include <memory>

#include "obs/stage.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/sync.h"

namespace pccheck {
namespace {

/** Backoff between retries of a transiently full buffer enqueue. */
constexpr Seconds kBufferBackoff = 20e-6;

/** Cap on the shared writer pool size. */
constexpr int kMaxWriterThreads = 24;

}  // namespace

PCcheckCheckpointer::PCcheckCheckpointer(TrainingState& state,
                                         StorageDevice& device,
                                         const PCcheckConfig& config,
                                         const Clock& clock)
    : PCcheckCheckpointer(state, device, config, CheckpointerSubstrate{},
                          clock)
{
}

PCcheckCheckpointer::PCcheckCheckpointer(
    TrainingState& state, StorageDevice& device,
    const PCcheckConfig& config, const CheckpointerSubstrate& substrate,
    const Clock& clock)
    : state_(&state), device_(&device), config_(config), clock_(&clock)
{
    config_.validate().check("PCcheckConfig");
    if (config_.psan && dynamic_cast<PsanStorage*>(&device) == nullptr) {
        // Interpose the persistence sanitizer (docs/PSAN.md): every
        // storage op below this point — formatting, salvage, the
        // persist engine, the delta log, recovery — flows through the
        // shadow state machine. Devices already wrapped by the caller
        // are left alone.
        psan_device_ = std::make_unique<PsanStorage>(device);
        device_ = psan_device_.get();
    }
    region_offset_ = config_.region_offset;
    region_bytes_ = config_.region_bytes > 0 ? config_.region_bytes
                                             : state.size();
    if (region_offset_ + region_bytes_ > state.size()) {
        fatal("PCcheck: shard region exceeds the training state");
    }
    const Bytes m = region_bytes_;
    const Bytes dram = config_.dram_bytes > 0 ? config_.dram_bytes : 2 * m;
    if (dram < std::min<Bytes>(m, config_.chunk_bytes > 0
                                      ? config_.chunk_bytes
                                      : m)) {
        fatal("PCcheck: DRAM budget smaller than one staging chunk");
    }
    chunk_bytes_ = config_.chunk_bytes > 0 ? std::min(config_.chunk_bytes, m)
                                           : m;
    chunk_count_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(dram / chunk_bytes_));

    const auto slot_count =
        static_cast<std::uint32_t>(config_.concurrent_checkpoints + 1);
    // The delta region rides behind the slot arena; its expected size
    // is part of the geometry a reopen must match.
    const Bytes expected_delta =
        SlotStore::required_size(slot_count, m, config_.delta_log_bytes) -
        SlotStore::required_size(slot_count, m);
    // Durability across restarts (invariant I1): never wipe an
    // existing checkpoint. Reopen a compatible layout in place; when
    // the geometry changed (different N, m, or delta capacity),
    // salvage the latest valid checkpoint — delta frames replayed on
    // top (recover_to_buffer) — reformat, and republish it before any
    // new checkpoint can start.
    bool opened = false;
    std::vector<std::uint8_t> salvaged;
    std::optional<RecoveryResult> salvage_info;
    try {
        SlotStore existing = SlotStore::open(*device_);
        if (existing.slot_count() == slot_count &&
            existing.slot_size() == m &&
            existing.delta_bytes() == expected_delta) {
            store_ = std::make_unique<SlotStore>(existing);
            opened = true;
        } else {
            salvage_info = recover_to_buffer(*device_, &salvaged, clock);
        }
    } catch (const FatalError&) {
        // Unformatted device: fresh format below.
    }
    if (!opened) {
        psan::ScopeLabel psan_label("orchestrator.salvage");
        store_ = std::make_unique<SlotStore>(SlotStore::format(
            *device_, slot_count, m, config_.delta_log_bytes));
        if (salvage_info.has_value() && salvaged.size() <= m) {
            // Salvage runs before training starts; a device that fails
            // here cannot host checkpoints at all, so escalate.
            PCCHECK_MUST(store_->write_slot(0, 0, salvaged.data(),
                                            salvaged.size()));
            PCCHECK_MUST(
                store_->persist_slot_range(0, 0, salvaged.size()));
            PCCHECK_MUST(device_->fence());
            PCCHECK_MUST(store_->publish_pointer(CheckpointPointer{
                salvage_info->counter, 0, salvaged.size(),
                salvage_info->iteration,
                crc32c(salvaged.data(), salvaged.size())}));
        }
    }
    commit_ = std::make_unique<ConcurrentCommit>(*store_,
                                                 config_.queue_kind, clock);
    commit_->set_retry(config_.storage_retry, config_.retry_seed);

    PersistEngineConfig engine_config;
    engine_config.writer_threads =
        std::min(kMaxWriterThreads, config_.concurrent_checkpoints *
                                        config_.writers_per_checkpoint);
    engine_config.per_writer_bytes_per_sec =
        config_.per_writer_bytes_per_sec;
    engine_config.pin_writers = config_.pin_writer_threads;
    engine_config.retry = config_.storage_retry;
    engine_config.retry_seed = config_.retry_seed;
    engine_config.shared_pool = substrate.persist_pool;
    engine_ = std::make_unique<PersistEngine>(*store_, engine_config,
                                              clock);

    if (store_->delta_bytes() > 0) {
        tracker_ = std::make_unique<DirtyTracker>(
            region_bytes_, config_.delta_chunk_bytes);
        delta_log_ = std::make_unique<DeltaLog>(
            *device_, DeltaRegion{store_->delta_offset(),
                                  store_->delta_bytes()});
        // From here every stamp/sparse_update feeds the tracker; the
        // destructor detaches it (the state outlives this object).
        state_->attach_dirty_tracker(tracker_.get());
    }

    staging_.resize(chunk_count_ * chunk_bytes_);
    free_buffers_ =
        std::make_unique<MpmcBoundedQueue<std::uint8_t*>>(chunk_count_);
    for (std::size_t i = 0; i < chunk_count_; ++i) {
        PCCHECK_CHECK(
            free_buffers_->try_enqueue(staging_.data() + i * chunk_bytes_));
    }

    worker_ = std::thread([this] { snapshot_worker(); });
}

PCcheckCheckpointer::~PCcheckCheckpointer()
{
    {
        MutexLock lock(mu_);
        Request stop_request;
        stop_request.stop = true;
        requests_.push_back(stop_request);
    }
    request_cv_.notify_all();
    worker_.join();
    // Drain async persists so pool tasks never outlive the staging
    // arena (members are destroyed in reverse declaration order).
    {
        MutexLock lock(mu_);
        while (completed_ + aborted_ != requested_) {
            complete_cv_.wait(mu_);
        }
    }
    // A completed checkpoint can still have replication in flight: a
    // met quorum returns await_quorum before slow peers drain. Those
    // strand tasks read this object's staging buffers and release
    // into its free-buffer queue, so they must finish before members
    // die.
    if (replication_ != nullptr) {
        replication_->flush();
    }
    if (tracker_ != nullptr) {
        state_->attach_dirty_tracker(nullptr);
    }
}

void
PCcheckCheckpointer::attach_replication(ReplicationEngine* engine)
{
    replication_ = engine;
    if (engine == nullptr) {
        return;
    }
    if (PsanStorage* psan = store_->psan()) {
        // Route the engine's peer-side watermark advances through the
        // sanitizer's early-ack check (V1) without giving remote/ a
        // psan dependency.
        engine->set_watermark_guard([psan](std::uint64_t counter) {
            psan->on_watermark_advance(counter);
        });
    }
}

void
PCcheckCheckpointer::before_update(std::uint64_t iteration)
{
    {
        MutexLock lock(mu_);
        if (snapshots_pending_ == 0) {
            return;
        }
    }
    // The span (whose destructor observes a mutex-guarded histogram)
    // lives outside the lock: mu_ serializes the commit bookkeeping,
    // and tracing must never extend that critical section
    // (blocking-under-lock, docs/STATIC_ANALYSIS.md). The re-check
    // under the lock below handles snapshots that completed in the
    // window between the two acquisitions.
    static LatencyHistogram& stall_hist =
        MetricsRegistry::global().histogram(
            "pccheck.stage.update_stall");
    StageSpan span("train.update_stall", stall_hist, "iteration",
                   iteration);
    Stopwatch watch(*clock_);
    {
        MutexLock lock(mu_);
        while (snapshots_pending_ != 0) {
            snapshot_cv_.wait(mu_);
        }
        stall_time_ += watch.elapsed();
    }
}

void
PCcheckCheckpointer::request_checkpoint(std::uint64_t iteration)
{
    {
        MutexLock lock(mu_);
        ++requested_;
        ++snapshots_pending_;
        requests_.push_back(
            Request{iteration, clock_->now(), Tracer::now_ns(), false});
    }
    MetricsRegistry::global()
        .counter("pccheck.checkpoints.requested")
        .add();
    request_cv_.notify_all();
}

void
PCcheckCheckpointer::note_delta_skipped(std::uint64_t iteration,
                                        const char* reason)
{
    LOG_WARN("pccheck: skipped delta frame for iteration " << iteration
                                                           << ": "
                                                           << reason);
    {
        MutexLock lock(mu_);
        ++delta_skipped_;
    }
    MetricsRegistry::global().counter("pccheck.delta.skipped").add();
}

void
PCcheckCheckpointer::request_delta(std::uint64_t iteration)
{
    if (delta_log_ == nullptr) {
        return;  // tier disabled (config.delta_log_bytes == 0)
    }
    static LatencyHistogram& delta_hist =
        MetricsRegistry::global().histogram(
            "pccheck.stage.delta_append");
    StageSpan span("checkpoint.delta", delta_hist, "iteration",
                   iteration);

    // The chain must hang off a DURABLE full checkpoint. Prefer the
    // newest pointer this process published (its write+persist+fence
    // completed — the only safe epoch-GC gate; the in-memory
    // CHECK_ADDR can transiently lead durable state). On a freshly
    // reopened device, before anything publishes, adopt the pointer
    // recovery itself would select from media.
    std::optional<CheckpointPointer> base = store_->last_published();
    if (!base.has_value() && delta_log_->epoch_base() == 0) {
        base = store_->recover_pointer();
    }
    std::vector<std::uint32_t> chunks;
    if (base.has_value() &&
        base->counter != delta_log_->epoch_base()) {
        // A newer full checkpoint is durably published: this reset IS
        // the log GC (docs/DELTA_LOG.md), and the candidate set opened
        // at that checkpoint's begin() — every chunk dirtied after its
        // snapshot — seeds the new chain. An unknown counter (reopened
        // device) degrades to all chunks: the first frame is then a
        // full delta, which is restart-safe.
        chunks = tracker_->adopt_base(base->counter);
        delta_log_->reset_epoch(base->counter, base->iteration);
    } else if (delta_log_->epoch_base() != 0) {
        chunks = tracker_->collect_frame();
    } else {
        note_delta_skipped(iteration, "no durable full checkpoint");
        return;
    }

    std::vector<DeltaChunk> refs;
    refs.reserve(chunks.size());
    Bytes data_bytes = 0;
    for (const std::uint32_t c : chunks) {
        refs.push_back(DeltaChunk{tracker_->chunk_offset(c),
                                  tracker_->chunk_len(c)});
        data_bytes += tracker_->chunk_len(c);
    }
    const Bytes need = DeltaLog::frame_bytes(
        static_cast<std::uint32_t>(refs.size()), data_bytes);
    if (iteration <= delta_log_->last_iteration()) {
        // Direct-API misuse guard (the training loop never requests a
        // delta at or before the chain tip): keep the chunks dirty for
        // the next frame instead of corrupting monotonicity.
        tracker_->restore(chunks);
        note_delta_skipped(iteration, "iteration not past chain tip");
        return;
    }
    if (need > delta_log_->free_bytes()) {
        tracker_->restore(chunks);
        note_delta_skipped(iteration, "delta log full");
        return;
    }

    // Stage the dirty chunk bytes GPU→host, concatenated in ref order.
    delta_scratch_.resize(data_bytes);
    const DevPtr src = state_->device_ptr();
    Bytes off = 0;
    for (const DeltaChunk& ref : refs) {
        state_->gpu().copy_to_host(delta_scratch_.data() + off, src,
                                   region_offset_ + ref.offset, ref.len,
                                   config_.pinned_memory);
        off += ref.len;
    }

    const Backoff backoff(config_.storage_retry,
                          config_.retry_seed ^ (iteration * 2 + 1));
    const StorageStatus status = retry_storage_op(
        [this, iteration, &refs] {
            return delta_log_->append(iteration, refs,
                                      delta_scratch_.data());
        },
        backoff);
    if (!status.ok()) {
        // The frame never sealed (append leaves the head in place on
        // failure): re-mark the chunks so no update drops out of the
        // chain, and surface the skip.
        tracker_->restore(chunks);
        note_delta_skipped(iteration, "storage failure");
        return;
    }
    {
        MutexLock lock(mu_);
        ++delta_frames_;
        delta_bytes_ += data_bytes;
    }
    MetricsRegistry::global().counter("pccheck.delta.frames").add();
    MetricsRegistry::global().counter("pccheck.delta.bytes").add(
        data_bytes);
}

void
PCcheckCheckpointer::finish()
{
    MutexLock lock(mu_);
    while (completed_ + aborted_ != requested_) {
        complete_cv_.wait(mu_);
    }
}

CheckpointerStats
PCcheckCheckpointer::stats() const
{
    MutexLock lock(mu_);
    CheckpointerStats stats;
    stats.requested = requested_;
    stats.completed = completed_;
    stats.aborted = aborted_;
    stats.stall_time = stall_time_;
    stats.checkpoint_latency = latency_;
    stats.delta_frames = delta_frames_;
    stats.delta_bytes = delta_bytes_;
    stats.delta_skipped = delta_skipped_;
    return stats;
}

void
PCcheckCheckpointer::snapshot_worker()
{
    for (;;) {
        Request request;
        {
            MutexLock lock(mu_);
            while (requests_.empty()) {
                request_cv_.wait(mu_);
            }
            request = requests_.front();
            requests_.pop_front();
        }
        if (request.stop) {
            return;
        }
        run_snapshot(request);
    }
}

std::uint8_t*
PCcheckCheckpointer::acquire_chunk_buffer()
{
    static LatencyHistogram& wait_hist =
        MetricsRegistry::global().histogram(
            "pccheck.stage.buffer_wait");
    StageSpan span("snapshot.buffer_wait", wait_hist);
    return buffer_waiters_.take(
        [this] { return free_buffers_->try_dequeue(); });
}

void
PCcheckCheckpointer::release_chunk_buffer(std::uint8_t* buffer)
{
    // try_enqueue can transiently report "full" while a concurrent
    // acquirer sits between claiming a cell and releasing its sequence
    // word (the same race concurrent_commit.cc documents for the
    // free-slot queue; the replication tier's second releaser thread
    // makes it easy to hit). The queue is never arithmetically full —
    // only chunk_count_ buffers exist — so backing off until the
    // dequeuer finishes always terminates.
    while (!free_buffers_->try_enqueue(buffer)) {
        clock_->sleep_for(kBufferBackoff);
    }
    buffer_waiters_.wake();
}

void
PCcheckCheckpointer::run_snapshot(const Request& request)
{
    // ② Listing 1 lines 3-11: sample CHECK_ADDR, take a counter,
    // reserve a slot. Blocks while N checkpoints are in flight, which
    // stalls training through before_update — the §3.2 backpressure.
    const CheckpointTicket ticket = commit_->begin();
    if (tracker_ != nullptr) {
        // Every chunk dirtied from here on is NOT captured by this
        // snapshot: open a candidate set so that, should the delta
        // tier later re-base onto this checkpoint, exactly those
        // chunks make up the first frame (docs/DELTA_LOG.md).
        tracker_->begin_candidate(ticket.counter);
    }
    const Bytes len = region_bytes_;
    const DevPtr src = state_->device_ptr();
    const std::uint64_t iteration = state_->iteration();

    struct Inflight {
        PCcheckCheckpointer* self;
        CheckpointTicket ticket;
        Bytes len;
        std::uint64_t iteration;
        Seconds request_time;
        std::uint64_t trace_begin_ns;
        std::uint32_t crc = 0;  ///< final value set before last decrement
        Atomic<std::size_t> remaining;
        /** Any chunk hit a non-retryable storage failure. */
        Atomic<bool> failed{false};
        /** Peer-replication state; null when the tier is detached. */
        ReplicationEngine::Handle replication;
    };
    const std::size_t chunks =
        static_cast<std::size_t>((len + chunk_bytes_ - 1) / chunk_bytes_);
    auto inflight = std::make_shared<Inflight>();
    inflight->self = this;
    inflight->ticket = ticket;
    inflight->len = len;
    inflight->iteration = iteration;
    inflight->request_time = request.request_time;
    inflight->trace_begin_ns = request.trace_begin_ns;
    // +1: the snapshot loop holds one reference until the CRC is final,
    // so commit can never run with a partial CRC.
    // relaxed: store precedes the task submissions that share the
    // counter; the pool's queue handoff publishes it.
    inflight->remaining.store(chunks + 1, std::memory_order_relaxed);
    if (replication_ != nullptr && replication_->config().enabled() &&
        !config_.direct_to_storage) {
        inflight->replication =
            replication_->begin(ticket.counter, iteration, len);
    }

    auto maybe_commit = [](const std::shared_ptr<Inflight>& shared) {
        if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
            // relaxed: the acq_rel fetch_sub above orders this load
            // after every chunk's failure store.
            if (shared->failed.load(std::memory_order_relaxed)) {
                // A chunk could not be made durable even after retries:
                // the slot holds partial data, so publishing would
                // violate the paper's invariant. Abort the attempt —
                // the slot returns to the free queue and the previous
                // checkpoint remains the recovery target.
                shared->self->commit_->abort(shared->ticket);
                shared->self->on_checkpoint_aborted(shared->iteration);
                return;
            }
            // Quorum gate BEFORE the CHECK_ADDR CAS: the commit never
            // depends on an un-acked replica, and a quorum miss still
            // commits locally (degraded mode — the counter ticks
            // inside await_quorum). Bounded: every replication
            // transfer carries an ack_timeout deadline.
            bool quorum_ok = true;
            if (shared->replication != nullptr) {
                quorum_ok = shared->self->replication_->await_quorum(
                    shared->replication);
            }
            // §4.1: the thread finishing the last chunk executes the
            // commit protocol (Listing 1 lines 16-34).
            const CommitResult commit_result =
                shared->self->commit_->commit(shared->ticket, shared->len,
                                              shared->iteration,
                                              shared->crc);
            if (shared->replication != nullptr && quorum_ok &&
                commit_result.won && commit_result.published) {
                // Ack recorded (await_quorum) + pointer record durable:
                // only now may the replicated watermark advance, here
                // and on every acked peer.
                shared->self->commit_->note_replicated(
                    shared->ticket.counter);
                shared->self->replication_->advance_watermark(
                    shared->replication);
            }
            shared->self->on_checkpoint_complete(shared->iteration,
                                                 shared->request_time);
            if (Tracer::global().enabled()) {
                // Whole request→durable lifecycle; spans threads, so it
                // is recorded manually on the completing thread.
                const TraceArg args[2] = {
                    {"iteration", shared->iteration},
                    {"slot", shared->ticket.slot}};
                Tracer::global().record("checkpoint.lifecycle",
                                        shared->trace_begin_ns,
                                        Tracer::now_ns(), args, 2);
            }
        }
    };

    if (config_.direct_to_storage) {
        // §3.3 ablation: GPUDirect-style path. The copy engine writes
        // each chunk straight into the slot; snapshotting and
        // persisting cannot overlap, so the whole transfer sits on
        // the snapshot critical path.
        std::uint32_t crc = 0;
        {
            static LatencyHistogram& snap_hist =
                MetricsRegistry::global().histogram(
                    "pccheck.stage.snapshot");
            StageSpan snap_span("checkpoint.snapshot", snap_hist,
                                "iteration", iteration, "slot",
                                ticket.slot);
            const Backoff backoff(config_.storage_retry,
                                  config_.retry_seed ^ ticket.counter);
            for (Bytes offset = 0; offset < len; offset += chunk_bytes_) {
                const Bytes this_len =
                    std::min(chunk_bytes_, len - offset);
                const StorageStatus status = retry_storage_op(
                    [this, &ticket, src, offset, this_len] {
                        StorageStatus s =
                            state_->gpu().direct_copy_to_storage(
                                *device_,
                                store_->slot_offset(ticket.slot) + offset,
                                src, region_offset_ + offset, this_len);
                        if (s.ok()) {
                            s = store_->persist_slot_range(
                                ticket.slot, offset, this_len);
                        }
                        return s;
                    },
                    backoff);
                if (!status.ok()) {
                    // relaxed: published to the committing thread by
                    // the acq_rel reference-count decrement.
                    inflight->failed.store(true,
                                           std::memory_order_relaxed);
                    break;
                }
                if (config_.compute_crc) {
                    crc = crc32c(state_->gpu().device_data(
                                     src, region_offset_ + offset),
                                 this_len, crc);
                }
            }
            // relaxed: same thread that stored it above.
            if (!inflight->failed.load(std::memory_order_relaxed) &&
                !device_->fence().ok()) {
                // relaxed: published by the acq_rel decrement below.
                inflight->failed.store(true, std::memory_order_relaxed);
            }
        }
        {
            MutexLock lock(mu_);
            PCCHECK_CHECK(snapshots_pending_ > 0);
            --snapshots_pending_;
        }
        snapshot_cv_.notify_all();
        inflight->crc = crc;
        // Consume the chunk references and the CRC guard: commit now.
        inflight->remaining.store(1, std::memory_order_release);
        maybe_commit(inflight);
        return;
    }

    // With replication attached the staged bytes have two consumers —
    // the local persist engine and the peer replication chain — so
    // the buffer returns to the pool only when the last of the two
    // parties releases its hold.
    struct ChunkHold {
        PCcheckCheckpointer* self;
        std::uint8_t* buffer;
        Atomic<int> parties{0};
    };
    const auto release_hold = [](const std::shared_ptr<ChunkHold>& hold) {
        if (hold->parties.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            hold->self->release_chunk_buffer(hold->buffer);
        }
    };

    std::uint32_t crc = 0;
    {
        static LatencyHistogram& snap_hist =
            MetricsRegistry::global().histogram(
                "pccheck.stage.snapshot");
        StageSpan snap_span("checkpoint.snapshot", snap_hist,
                            "iteration", iteration, "slot", ticket.slot);
        for (Bytes offset = 0; offset < len; offset += chunk_bytes_) {
            const Bytes this_len = std::min(chunk_bytes_, len - offset);
            // ③ stage the chunk into pinned DRAM via the GPU copy
            // engine.
            std::uint8_t* buffer = acquire_chunk_buffer();
            state_->gpu().copy_to_host(buffer, src,
                                       region_offset_ + offset, this_len,
                                       config_.pinned_memory);
            if (config_.compute_crc) {
                crc = crc32c(buffer, this_len, crc);
            }
            auto hold = std::make_shared<ChunkHold>();
            hold->self = this;
            hold->buffer = buffer;
            const int parties =
                inflight->replication != nullptr ? 2 : 1;
            // relaxed: store precedes the submissions that share the
            // counter; the queue handoffs publish it.
            hold->parties.store(parties, std::memory_order_relaxed);
            // ④ hand the chunk to the persist engine; the buffer
            // returns to the pool as soon as this chunk is durable
            // (and, when replicating, on the wire), letting the next
            // snapshot overwrite already-persisted chunks (§3.1).
            engine_->persist_range_async(
                ticket.slot, offset, buffer, this_len,
                config_.writers_per_checkpoint,
                [inflight, hold, release_hold,
                 maybe_commit](StorageStatus status) {
                    if (!status.ok()) {
                        // relaxed: published to the committing thread
                        // by the acq_rel reference-count decrement.
                        inflight->failed.store(
                            true, std::memory_order_relaxed);
                    }
                    release_hold(hold);
                    maybe_commit(inflight);
                });
            if (inflight->replication != nullptr) {
                // Pipelined per-chunk replication: the same staged
                // bytes go down the peer chain concurrently with the
                // local persist of this chunk.
                replication_->send_chunk(
                    inflight->replication, offset, buffer, this_len,
                    [hold, release_hold] { release_hold(hold); });
            }
        }
    }

    // GPU→DRAM copy finished: the training loop may mutate weights.
    {
        MutexLock lock(mu_);
        PCCHECK_CHECK(snapshots_pending_ > 0);
        --snapshots_pending_;
    }
    snapshot_cv_.notify_all();

    if (inflight->replication != nullptr) {
        // Every chunk is sent: deliver the final CRC so each peer can
        // validate and ack. Must precede the CRC-guard drop —
        // await_quorum in the commit path waits for the acks the seal
        // produces.
        replication_->seal(inflight->replication, crc);
    }
    inflight->crc = crc;
    maybe_commit(inflight);  // drop the CRC-guard reference
}

void
PCcheckCheckpointer::on_checkpoint_complete(std::uint64_t iteration,
                                            Seconds request_time)
{
    (void)iteration;
    static LatencyHistogram& latency_hist =
        MetricsRegistry::global().histogram(
            "pccheck.stage.checkpoint_latency");
    static Gauge& latency_gauge =
        MetricsRegistry::global().gauge("pccheck.checkpoint.latency_s");
    const Seconds latency = clock_->now() - request_time;
    // Count before completed_ advances: finish() may return, and its
    // caller read the counter, as soon as it does.
    MetricsRegistry::global()
        .counter("pccheck.checkpoints.completed")
        .add();
    {
        MutexLock lock(mu_);
        ++completed_;
        latency_.add(latency);
        // Notify under the lock: the destructor destroys this cv as
        // soon as its predicate holds, so an unlocked broadcast could
        // still be executing on a pool thread when the cv dies.
        complete_cv_.notify_all();
    }
    // Metrics outside mu_: the histogram has its own mutex and the
    // gauge lookup walks the registry map — neither belongs inside
    // this object's critical section (blocking-under-lock).
    latency_hist.observe(latency);
    latency_gauge.set(latency);
}

void
PCcheckCheckpointer::on_checkpoint_aborted(std::uint64_t iteration)
{
    LOG_WARN("pccheck: aborted checkpoint attempt for iteration "
             << iteration << " after storage failure");
    // Count before aborted_ advances; see on_checkpoint_complete.
    MetricsRegistry::global()
        .counter("pccheck.checkpoints.aborted")
        .add();
    {
        MutexLock lock(mu_);
        ++aborted_;
        // Notify under the lock: see on_checkpoint_complete.
        complete_cv_.notify_all();
    }
}

}  // namespace pccheck
