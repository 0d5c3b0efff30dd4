#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bench/common.h"
#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "gpusim/gpu.h"
#include "net/network.h"
#include "obs/trace.h"
#include "probes.h"
#include "remote/replica_store.h"
#include "remote/replication.h"
#include "service/service.h"
#include "service/service_config.h"
#include "storage/mem_storage.h"
#include "storage/throttled_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_state.h"
#include "util/check.h"
#include "util/rng.h"

namespace pccheck::suite {
namespace {

// Full-scale paper calibration, as in the figure benches' harness.
constexpr double kPcieA100 = 12.8e9;
constexpr double kPerWriterSsd = 1.2e9;
/** Half the paper's 1.88 GB/s VM NIC: at 1.88 GB/s the replicated
 *  step p99 varied by 30% between runs. */
constexpr double kReplicationNic = 0.94e9;

/** Checkpoint interval f of the training workloads. */
constexpr std::uint64_t kInterval = 10;
/** Seeded +-5% jitter on every step's modeled compute time. */
constexpr double kJitter = 0.05;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
constexpr int kWarmupSteps = 100;

/** Unthrottled rig of the ceiling workload: 32 MiB of state makes the
 *  staging buffers plus slots (~160 MiB) outgrow a 105 MiB L3, while
 *  a 15 s window still holds the 100 checkpoints a p90 needs. */
constexpr Bytes kCeilingState = 32 * kMiB;
constexpr Bytes kCeilingChunk = 256 * kKiB;
constexpr int kCeilingWarmup = 4;

/** fig_service's fleet at 64 tenants, driven by 4 threads. */
constexpr int kTenants = 64;
constexpr int kLanes = 4;
constexpr Seconds kRoundCompute = 1e-3;
constexpr int kServiceWarmupRounds = 50;

/** The recover workload's image: one full checkpoint, then this many
 *  delta frames of sparse updates dirtying this share of the state. */
constexpr std::uint64_t kDeltaFrames = 15;
constexpr double kDirtyFraction = 0.10;
constexpr Bytes kDeltaLogBytes = 4 * kMiB;
constexpr int kWarmupRecoveries = 3;

Seconds
now()
{
    return MonotonicClock::instance().now();
}

/** Compute-time multipliers, generated before the window. */
std::vector<double>
make_jitter(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<double> out(std::max<std::size_t>(count, 1));
    for (double& factor : out) {
        factor = rng.uniform(1.0 - kJitter, 1.0 + kJitter);
    }
    return out;
}

/** OPT-1.3B at the figure benches' scale: 3 ms steps, 1.5 MiB state. */
ScaledModel
paper_model()
{
    const ModelSpec& spec = model_by_name("opt-1.3b");
    return scale_model(spec, bench::auto_factors(spec));
}

/** The traced run's tally clocks, one per layer. */
struct Probes {
    TallyClock core{SpanKind::kCoreSleep};
    TallyClock gpu{SpanKind::kGpuSleep};
    TallyClock storage{SpanKind::kStorageSleep};
    TallyClock net{SpanKind::kNetSleep};
    TallyClock service{SpanKind::kServiceSleep};
};

const Clock&
pick(const Probes* probes, TallyClock Probes::*layer)
{
    if (probes == nullptr) {
        return MonotonicClock::instance();
    }
    return probes->*layer;
}

// ---- measurement window and reporting -------------------------------

/** Cumulative counters at one instant, keyed by per-layer metric name;
 *  keys starting with '_' are inputs to derived metrics. */
using Counters = std::map<std::string, double>;

/** What one workload measured: its set-ups and one timed window. */
struct Window {
    std::vector<double> setup_s;
    Seconds start = 0;
    Seconds elapsed = 0;
    /** Wall time of every operation in the window. */
    std::vector<double> op_s;
    /** Tail percentile of op_s: p99 where the sample supports it. */
    double tail_q = 0.99;
    /** Bytes made durable (recovered, on recover) in the window. */
    double bytes = 0;
    Seconds cpu_s = 0;
    double max_rss_mib = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool audit_ok = false;
    std::string audit;
    /** Modeled persist bandwidth; 0 when unthrottled. */
    double persist_bw = 0;
    // Traced run only.
    Counters layers;  ///< window deltas of the layer counters
    std::vector<double> lag_s;
    int threads_peak = 0;
    // Read when the window opens.
    ProcSample proc_start;
    Counters layers_start;
};

void
add_spans_clocks_proc(Counters& c, const Probes& probes)
{
    const auto spans = span_totals();
    const auto busy = [&spans](SpanKind kind) {
        return spans[static_cast<int>(kind)].total_s;
    };
    c["core.before_update.busy_s"] = busy(SpanKind::kBeforeUpdate);
    c["core.request.busy_s"] = busy(SpanKind::kRequest);
    c["core.recover.busy_s"] = busy(SpanKind::kRecover);
    for (int k = 0; k < kSpanKinds; ++k) {
        const std::string key =
            std::string("_span.") + span_name(static_cast<SpanKind>(k));
        c[key + " n"] = static_cast<double>(spans[k].count);
        c[key + " total_s"] = spans[k].total_s;
        c[key + " self_s"] = spans[k].self_s;
    }
    const TallyClock::Totals core = probes.core.totals();
    c["core.sleep_s"] = core.actual_s;
    c["core.poll_sleeps"] = static_cast<double>(core.short_sleeps);
    const TallyClock::Totals gpu = probes.gpu.totals();
    c["_gpu.sleep_requested_s"] = gpu.requested_s;
    c["_gpu.sleep_actual_s"] = gpu.actual_s;
    c["storage.pace_s"] = probes.storage.totals().requested_s;
    c["net.pace_s"] = probes.net.totals().requested_s;
    const TallyClock::Totals service = probes.service.totals();
    c["service.sleep_s"] = service.actual_s;
    c["service.poll_sleeps"] = static_cast<double>(service.short_sleeps);
    const ProcSample proc = sample_proc();
    c["proc.cpu_user_s"] = proc.user_s;
    c["proc.cpu_sys_s"] = proc.sys_s;
    c["proc.vol_ctx_switches"] = static_cast<double>(proc.vol_ctx_switches);
    c["proc.invol_ctx_switches"] =
        static_cast<double>(proc.invol_ctx_switches);
}

void
add_device(Counters& c, const TimedDevice& device)
{
    const TimedDevice::Totals all = device.totals();
    const auto add_op = [&c](const std::string& op,
                             const TimedDevice::OpTotals& totals) {
        c["storage." + op + ".calls"] += static_cast<double>(totals.calls);
        c["storage." + op + ".bytes"] += static_cast<double>(totals.bytes);
        c["storage." + op + ".busy_s"] += totals.busy_s;
    };
    add_op("write", all.write);
    add_op("persist", all.persist);
    add_op("read", all.read);
    c["storage.fence.calls"] += static_cast<double>(all.fences);
    c["service.segment.persist.calls"] +=
        static_cast<double>(device.totals(true).persist.calls);
}

void
add_checkpointer(Counters& c, const CheckpointerStats& stats)
{
    c["core.ckpt.completed"] += static_cast<double>(stats.completed);
    c["core.ckpt.aborted"] += static_cast<double>(stats.aborted);
    c["_ckpt.latency_sum_s"] += stats.checkpoint_latency.sum();
    c["_ckpt.latency_count"] +=
        static_cast<double>(stats.checkpoint_latency.count());
    c["delta.frames_written"] += static_cast<double>(stats.delta_frames);
    c["delta.bytes_written"] += static_cast<double>(stats.delta_bytes);
}

void
note_threads(Window& w)
{
    w.threads_peak = std::max(w.threads_peak, sample_proc().threads);
}

/** Times one set-up; @p setup builds a rig, warms it up and returns it. */
template <typename Setup>
auto
timed_setup(Window& w, Setup&& setup)
{
    const Seconds start = now();
    auto rig = setup();
    w.setup_s.push_back(now() - start);
    return rig;
}

/**
 * Times the run's other set-ups (none in smoke and traced runs), each
 * rig destroyed right away. Called after the window, so their memory
 * cannot raise the window's peak RSS.
 */
template <typename Setup>
void
time_more_setups(const RunOptions& options, Window& w, Setup&& setup)
{
    const std::size_t setups = options.smoke || options.traced ? 1 : kSetups;
    while (w.setup_s.size() < setups) {
        timed_setup(w, setup);
    }
}

/** Opens the window; @p sample reads the layer counters (traced). */
template <typename Sample>
void
open_window(Window& w, const RunOptions& options, Sample&& sample)
{
    if (options.traced) {
        w.layers_start = sample();
        note_threads(w);
        Tracer::global().set_enabled(true);
    }
    w.proc_start = sample_proc();
    w.start = now();
}

template <typename Sample>
void
close_window(Window& w, const RunOptions& options, Sample&& sample)
{
    w.elapsed = now() - w.start;
    const ProcSample proc = sample_proc();
    w.cpu_s = (proc.user_s + proc.sys_s) -
              (w.proc_start.user_s + w.proc_start.sys_s);
    w.max_rss_mib = proc.max_rss_mib;
    if (options.traced) {
        Tracer::global().set_enabled(false);
        note_threads(w);
        for (const auto& [key, end] : sample()) {
            const auto start = w.layers_start.find(key);
            w.layers[key] =
                end - (start == w.layers_start.end() ? 0 : start->second);
        }
    }
}

void
note_audit(Window& w, const std::string& error, const std::string& ok)
{
    w.audit_ok = error.empty();
    w.audit = w.audit_ok ? ok : error;
}

/** Timed finish(): the drain after the window. */
template <typename Finish>
void
timed_finish(Window& w, const RunOptions& options, Finish&& finish)
{
    Span span(SpanKind::kFinish, options.traced);
    const Seconds start = now();
    finish();
    w.layers["core.finish.busy_s"] = now() - start;
}

void
add_metric(WorkloadResult& r, const std::string& name, double value,
           const std::string& unit, const std::string& note = "")
{
    r.metrics.push_back(Metric{name, value, unit, note});
}

/** Percentile in ms, NaN (refused) when the sample cannot support it. */
double
percentile_ms(std::vector<double> samples, double q, std::string* note)
{
    const std::size_t n = samples.size();
    const std::optional<double> value = percentile(samples, q);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "p%g n=%zu%s", q * 100, n,
                  value ? "" : " refused");
    *note = buf;
    return value ? *value * 1e3 : std::numeric_limits<double>::quiet_NaN();
}

void
report_end_to_end(const Window& w, WorkloadResult& r)
{
    std::vector<double> setups = w.setup_s;
    std::sort(setups.begin(), setups.end());
    add_metric(r, "setup_s", setups[setups.size() / 2], "s",
               "median of " + std::to_string(setups.size()));
    add_metric(r, "ops_s", r.ops_s, "1/s",
               "n=" + std::to_string(w.op_s.size()));
    std::string note;
    const double p50 = percentile_ms(w.op_s, 0.50, &note);
    add_metric(r, "op_ms_p50", p50, "ms", note);
    const double tail = percentile_ms(w.op_s, w.tail_q, &note);
    add_metric(r, "op_ms_tail", tail, "ms", note);
    const double gb = w.bytes / 1e9;
    add_metric(r, "gb_s", gb / w.elapsed, "GB/s");
    add_metric(r, "cpu_s_per_gb",
               gb > 0 ? w.cpu_s / gb
                      : std::numeric_limits<double>::quiet_NaN(),
               "CPU-s/GB");
    add_metric(r, "peak_rss_mb", w.max_rss_mib, "MiB");
}

void
report_layers(const Window& w, WorkloadResult& r)
{
    Counters out = w.layers;
    const auto get = [&out](const std::string& key) {
        const auto it = out.find(key);
        return it == out.end() ? 0.0 : it->second;
    };
    const double latency_count = get("_ckpt.latency_count");
    out["core.ckpt.latency_ms_mean"] =
        latency_count > 0 ? 1e3 * get("_ckpt.latency_sum_s") / latency_count
                          : 0;
    // A refused lag percentile reads 0; its note says it was refused.
    std::map<std::string, std::string> notes;
    for (const auto& [name, q] :
         {std::pair{"core.durable_lag_ms_p50", 0.50},
          std::pair{"core.durable_lag_ms_p99", 0.99}}) {
        const double value = percentile_ms(w.lag_s, q, &notes[name]);
        out[name] = std::isnan(value) ? 0 : value;
    }
    const double recover_busy = get("core.recover.busy_s");
    out["core.recover.cpu_s"] =
        recover_busy > 0
            ? std::max(0.0, recover_busy - get("storage.read.busy_s") -
                                get("_gpu.sleep_actual_s"))
            : 0;
    out["gpusim.copy_pace_s"] = std::max(
        0.0, get("_gpu.sleep_requested_s") - get("_load.kernel_s"));
    out["storage.persist.utilization"] =
        w.persist_bw > 0
            ? get("storage.persist.bytes") / w.persist_bw / w.elapsed
            : 0;
    const double offered = get("service.admitted") + get("service.rejected");
    out["service.skip_frac"] =
        offered > 0 ? get("service.rejected") / offered : 0;
    const double segment_persists = get("service.segment.persist.calls");
    out["service.group_commit_size"] =
        segment_persists > 0
            ? get("service.coalesced_records") / segment_persists
            : 0;
    out["proc.threads_peak"] = w.threads_peak;

    std::map<std::string, std::string> units;
    for (const auto& [name, unit] : layer_metrics()) {
        units[name] = unit;
    }
    for (const auto& [key, value] : out) {
        PCCHECK_CHECK_MSG(key[0] == '_' || units.count(key) != 0,
                          "unlisted per-layer metric " << key);
    }
    for (const auto& [name, unit] : layer_metrics()) {
        add_metric(r, name, get(name), unit, notes[name]);
    }
    for (int k = 0; k < kSpanKinds; ++k) {
        const std::string key =
            std::string("_span.") + span_name(static_cast<SpanKind>(k));
        const double n = get(key + " n");
        if (n > 0) {
            char line[160];
            std::snprintf(line, sizeof(line),
                          "span %s n=%.0f total_s=%.6f self_s=%.6f",
                          span_name(static_cast<SpanKind>(k)), n,
                          get(key + " total_s"), get(key + " self_s"));
            r.notes.push_back(line);
        }
    }
}

WorkloadResult
report(const Window& w, const RunOptions& options)
{
    WorkloadResult r;
    r.attempted = w.attempted;
    r.failed = w.failed;
    r.audit_ok = w.audit_ok;
    r.audit = w.audit;
    r.ops_s = w.elapsed > 0
                  ? static_cast<double>(w.op_s.size()) / w.elapsed
                  : 0;
    if (options.traced) {
        report_layers(w, r);
    } else {
        report_end_to_end(w, r);
    }
    return r;
}

// ---- single-tenant rig: train-ssd, train-replicated, ceiling, recover

/** Shape of one single-tenant rig. */
struct RigSpec {
    Bytes state_bytes = 0;
    Bytes chunk_bytes = 0;
    ScaleFactors factors;
    /** Paper SSD, PCIe and per-writer limits; false = none at all. */
    bool throttled = true;
    /** Peers replicated to over SimNetwork (quorum 1). */
    int replicas = 0;
    Bytes delta_log_bytes = 0;
};

RigSpec
paper_spec(const ScaledModel& model)
{
    RigSpec spec;
    spec.state_bytes = model.checkpoint_bytes;
    spec.chunk_bytes = model.checkpoint_bytes / 4;
    spec.factors = model.factors;
    return spec;
}

GpuConfig
gpu_config(const RigSpec& spec)
{
    GpuConfig config;
    config.memory_bytes = spec.state_bytes + 4 * kMiB;
    config.pcie_bytes_per_sec =
        spec.throttled ? spec.factors.scale_bandwidth(kPcieA100) : 0;
    return config;
}

/** GPU, state, device stack, optional replication, orchestrator. */
struct Rig {
    Rig(const RigSpec& rig_spec, const Probes* probes) : spec(rig_spec)
    {
        gpu = std::make_unique<SimGpu>(gpu_config(spec),
                                       pick(probes, &Probes::gpu));
        state = std::make_unique<TrainingState>(*gpu, spec.state_bytes);
        const Bytes capacity =
            SlotStore::required_size(3, spec.state_bytes,
                                     spec.delta_log_bytes);
        auto memory = std::make_unique<MemStorage>(capacity);
        if (spec.throttled) {
            const StorageBandwidth bw =
                paper_bandwidth(StorageKind::kSsdMsync);
            media = std::make_unique<ThrottledStorage>(
                std::move(memory),
                spec.factors.scale_bandwidth(bw.write_bytes_per_sec),
                spec.factors.scale_bandwidth(bw.persist_bytes_per_sec),
                spec.factors.scale_bandwidth(bw.read_bytes_per_sec),
                pick(probes, &Probes::storage));
        } else {
            media = std::move(memory);
        }
        if (probes != nullptr) {
            timed = std::make_unique<TimedDevice>(*media);
        }
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        config.writers_per_checkpoint = 3;
        config.chunk_bytes = spec.chunk_bytes;
        config.compute_crc = true;
        config.delta_log_bytes = spec.delta_log_bytes;
        config.per_writer_bytes_per_sec =
            spec.throttled ? spec.factors.scale_bandwidth(kPerWriterSsd) : 0;
        checkpointer = std::make_unique<PCcheckCheckpointer>(
            *state, device(), config, pick(probes, &Probes::core));
        if (spec.replicas > 0) {
            NetworkConfig net;
            net.nodes = spec.replicas + 1;
            net.nic_bytes_per_sec =
                spec.factors.scale_bandwidth(kReplicationNic);
            network = std::make_unique<SimNetwork>(
                net, pick(probes, &Probes::net));
            std::vector<ReplicaPeer> targets;
            for (int p = 0; p < spec.replicas; ++p) {
                peers.push_back(std::make_unique<ReplicaStore>());
                targets.push_back({p + 1, peers.back().get()});
            }
            ReplicationConfig rconfig;
            rconfig.replicas = spec.replicas;
            rconfig.quorum = 1;
            replication = std::make_unique<ReplicationEngine>(
                *network, 0, rconfig, std::move(targets));
            checkpointer->attach_replication(replication.get());
        }
    }

    StorageDevice& device()
    {
        return timed ? static_cast<StorageDevice&>(*timed) : *media;
    }

    RigSpec spec;
    std::unique_ptr<SimGpu> gpu;
    std::unique_ptr<TrainingState> state;
    std::unique_ptr<StorageDevice> media;
    std::unique_ptr<TimedDevice> timed;
    std::unique_ptr<SimNetwork> network;
    std::vector<std::unique_ptr<ReplicaStore>> peers;
    std::unique_ptr<ReplicationEngine> replication;
    // Last: destroyed first, while everything it points into lives.
    std::unique_ptr<PCcheckCheckpointer> checkpointer;
};

/** Step loop of a training workload. */
struct LoopSpec {
    Seconds train_time = 0;
    Seconds update_time = 0;
    std::uint64_t interval = kInterval;
    int warmup_steps = kWarmupSteps;
    double tail_q = 0.99;
};

/** A rig and the loop driving T -> before_update -> U -> stamp ->
 *  request_checkpoint on it. */
class Trainer {
  public:
    Trainer(const RigSpec& spec, const Probes* probes, const LoopSpec& loop,
            const std::vector<double>& jitter, bool traced)
        : rig(spec, probes), loop_(loop), jitter_(jitter), traced_(traced)
    {
    }

    Rig rig;

    /** One step; @return its wall time. */
    Seconds step()
    {
        const std::uint64_t iteration = ++iteration_;
        RequestScope scope(iteration);
        Span span(SpanKind::kStep, traced_);
        const Seconds start = now();
        const double jitter = jitter_[iteration % jitter_.size()];
        compute(loop_.train_time * jitter);
        {
            Span wait(SpanKind::kBeforeUpdate, traced_);
            rig.checkpointer->before_update(iteration);
        }
        compute(loop_.update_time * jitter);
        rig.state->stamp(iteration);
        if (iteration % loop_.interval == 0) {
            Span request(SpanKind::kRequest, traced_);
            request_time_.push_back(now());
            rig.checkpointer->request_checkpoint(iteration);
        }
        return now() - start;
    }

    /** Now minus the request time of the newest durable checkpoint:
     *  the work a crash at this moment loses. */
    std::optional<Seconds> durable_lag()
    {
        const auto latest =
            rig.checkpointer->commit_protocol().latest_pointer();
        if (!latest || latest->iteration < loop_.interval) {
            return std::nullopt;
        }
        const std::uint64_t index = latest->iteration / loop_.interval - 1;
        if (index >= request_time_.size()) {
            return std::nullopt;
        }
        return now() - request_time_[index];
    }

    std::uint64_t requested() const { return request_time_.size(); }
    Seconds kernel_s() const { return kernel_s_; }

  private:
    void compute(Seconds duration)
    {
        if (duration > 0) {
            rig.gpu->launch_kernel(duration);
            kernel_s_ += duration;
        }
    }

    LoopSpec loop_;
    const std::vector<double>& jitter_;
    bool traced_;
    std::uint64_t iteration_ = 0;
    std::vector<Seconds> request_time_;
    Seconds kernel_s_ = 0;
};

/** Recovers @p device's newest image into a fresh GPU; its stamps must
 *  verify and reach the newest durable iteration @p durable. */
std::string
audit_final_image(StorageDevice& device, const RigSpec& spec,
                  std::uint64_t durable, std::uint64_t interval,
                  std::uint64_t* recovered)
{
    SimGpu gpu(gpu_config(spec));
    TrainingState state(gpu, spec.state_bytes);
    const auto result = recover_latest_into_state(device, state);
    if (!result) {
        return "no valid checkpoint recovered";
    }
    *recovered = result->iteration;
    const auto stamped = TrainingState::verify_buffer(
        gpu.device_data(state.device_ptr()), spec.state_bytes);
    if (!stamped || *stamped != result->iteration) {
        return "recovered stamps do not verify";
    }
    if (result->iteration < durable) {
        return "recovered iteration " + std::to_string(result->iteration) +
               " < durable " + std::to_string(durable);
    }
    if (result->iteration % interval != 0) {
        return "recovered iteration " + std::to_string(result->iteration) +
               " was never requested";
    }
    return "";
}

WorkloadResult
run_training(const RunOptions& options, const RigSpec& spec,
             const LoopSpec& loop)
{
    const auto probes = options.traced ? std::make_unique<Probes>() : nullptr;
    const Seconds step_floor =
        std::max(1e-4, (1 - kJitter) * (loop.train_time + loop.update_time));
    const std::vector<double> jitter = make_jitter(
        options.seed, static_cast<std::size_t>(options.seconds / step_floor) +
                          static_cast<std::size_t>(loop.warmup_steps) + 64);
    const int warmup =
        options.smoke ? loop.warmup_steps / 10 + 1 : loop.warmup_steps;

    Window w;
    w.tail_q = loop.tail_q;
    if (spec.throttled) {
        w.persist_bw = spec.factors.scale_bandwidth(
            paper_bandwidth(StorageKind::kSsdMsync).persist_bytes_per_sec);
    }
    w.op_s.reserve(static_cast<std::size_t>(options.seconds / step_floor));
    const auto setup = [&] {
        auto t = std::make_unique<Trainer>(spec, probes.get(), loop, jitter,
                                           options.traced);
        for (int i = 0; i < warmup; ++i) {
            t->step();
        }
        return t;
    };
    const auto trainer_ptr = timed_setup(w, setup);
    Trainer& trainer = *trainer_ptr;
    Rig& rig = trainer.rig;

    const auto sample = [&] {
        Counters c;
        add_spans_clocks_proc(c, *probes);
        add_device(c, *rig.timed);
        add_checkpointer(c, rig.checkpointer->stats());
        c["gpusim.pcie_bytes"] =
            static_cast<double>(rig.gpu->pcie_bytes_moved());
        c["_load.kernel_s"] = trainer.kernel_s();
        if (rig.replication) {
            c["remote.bytes_sent"] =
                static_cast<double>(rig.replication->bytes_sent());
            c["remote.acks"] = static_cast<double>(rig.replication->acks());
            c["remote.degraded"] =
                static_cast<double>(rig.replication->degraded());
        }
        return c;
    };
    const CheckpointerStats before = rig.checkpointer->stats();
    const std::uint64_t requested = trainer.requested();
    open_window(w, options, sample);
    while (now() - w.start < options.seconds) {
        w.op_s.push_back(trainer.step());
        if (options.traced) {
            if (const auto lag = trainer.durable_lag()) {
                w.lag_s.push_back(*lag);
            }
        }
    }
    close_window(w, options, sample);
    const CheckpointerStats after = rig.checkpointer->stats();
    w.bytes = static_cast<double>(after.completed - before.completed) *
              static_cast<double>(spec.state_bytes);
    w.attempted = trainer.requested() - requested;
    w.failed = after.aborted - before.aborted;
    if (rig.replication) {
        std::uint64_t best = 0;
        for (const auto& peer : rig.peers) {
            best = std::max(best, peer->watermark());
        }
        w.layers["remote.watermark_lag"] = static_cast<double>(
            rig.checkpointer->commit_protocol().latest_counter() - best);
    }

    timed_finish(w, options, [&rig] { rig.checkpointer->finish(); });
    const auto latest = rig.checkpointer->commit_protocol().latest_pointer();
    std::uint64_t recovered = 0;
    const std::string error =
        latest ? audit_final_image(rig.device(), spec, latest->iteration,
                                   loop.interval, &recovered)
               : "nothing durable";
    note_audit(w, error,
               "recovered iteration " + std::to_string(recovered) +
                   " >= durable, stamps verify");
    time_more_setups(options, w, setup);
    return report(w, options);
}

/** The model's T and U split of each step, checkpointing every f. */
LoopSpec
paper_loop(const ScaledModel& model)
{
    LoopSpec loop;
    loop.train_time =
        model.iteration_time * (1.0 - model.spec.update_fraction);
    loop.update_time = model.iteration_time * model.spec.update_fraction;
    return loop;
}

WorkloadResult
run_train_ssd(const RunOptions& options)
{
    const ScaledModel model = paper_model();
    return run_training(options, paper_spec(model), paper_loop(model));
}

WorkloadResult
run_train_replicated(const RunOptions& options)
{
    const ScaledModel model = paper_model();
    RigSpec spec = paper_spec(model);
    spec.replicas = 2;
    return run_training(options, spec, paper_loop(model));
}

WorkloadResult
run_ceiling(const RunOptions& options)
{
    RigSpec spec;
    spec.state_bytes = kCeilingState;
    spec.chunk_bytes = kCeilingChunk;
    spec.throttled = false;
    LoopSpec loop;
    loop.interval = 1;
    loop.warmup_steps = kCeilingWarmup;
    loop.tail_q = 0.90;
    return run_training(options, spec, loop);
}

// ---- service-64 ------------------------------------------------------

/** fig_service's configuration at 64 tenants, QoS on. */
ServiceConfig
service_config()
{
    ServiceConfig config;
    config.shards = 2;
    config.writer_threads = 8;
    config.qos.enabled = true;
    config.qos.device_budget_bytes_per_sec = 48.0 * static_cast<double>(kMiB);
    config.qos.arbiter_quantum = 16 * kKiB;
    config.coalescer.threshold_bytes = 16 * kKiB;
    config.coalescer.segment_bytes = 256 * kKiB;
    config.coalescer.segments_per_backend = 4;
    for (int i = 0; i < kTenants; ++i) {
        TenantSpec tenant;
        tenant.id = static_cast<std::uint64_t>(i);
        if (i % 8 == 0) {
            tenant.state_bytes = 64 * kKiB;
            tenant.checkpoint.concurrent_checkpoints = 2;
        } else {
            tenant.state_bytes = 4 * kKiB;
        }
        config.tenants.push_back(tenant);
    }
    return config;
}

/** One load thread and the 16 tenants it owns. */
struct Lane {
    int index = 0;
    std::uint64_t round = 0;
    std::vector<double> stall_s;
    std::vector<double> lag_s;
    /** Per owned tenant: request time of each round (traced). */
    std::vector<std::vector<Seconds>> request_time;
};

/** Backends, tenant states, the service and its load lanes. */
struct ServiceRig {
    explicit ServiceRig(const Probes* probes) : config(service_config())
    {
        std::vector<StorageDevice*> backends;
        for (int shard = 0; shard < config.shards; ++shard) {
            const ShardLayout layout = plan_shard_layout(config, shard);
            media.push_back(
                std::make_unique<MemStorage>(layout.required_bytes));
            backends.push_back(media.back().get());
            if (probes != nullptr) {
                timed.push_back(std::make_unique<TimedDevice>(
                    *media.back(), layout.segment_offset));
                backends.back() = timed.back().get();
            }
        }
        GpuConfig gpu_config;
        gpu_config.memory_bytes = 16 * kMiB;
        gpu_config.pcie_bytes_per_sec = 0;
        gpu = std::make_unique<SimGpu>(gpu_config,
                                       pick(probes, &Probes::gpu));
        service = std::make_unique<CheckpointService>(
            config, backends, pick(probes, &Probes::service));
        for (const TenantSpec& tenant : config.tenants) {
            states.push_back(
                std::make_unique<TrainingState>(*gpu, tenant.state_bytes));
            sessions.push_back(
                service->attach_tenant(tenant.id, *states.back()));
        }
        lanes.resize(kLanes);
        for (int i = 0; i < kLanes; ++i) {
            lanes[i].index = i;
        }
    }

    ServiceConfig config;
    std::vector<std::unique_ptr<MemStorage>> media;
    std::vector<std::unique_ptr<TimedDevice>> timed;
    std::unique_ptr<SimGpu> gpu;
    std::vector<std::unique_ptr<TrainingState>> states;
    // After the states and backends: its sessions drain into them.
    std::unique_ptr<CheckpointService> service;
    std::vector<Checkpointer*> sessions;
    std::vector<Lane> lanes;
};

std::uint64_t
tenant_iteration(int tenant, std::uint64_t round)
{
    return static_cast<std::uint64_t>(tenant) * 1000000 + round;
}

/** Runs @p rounds rounds, or until @p deadline when rounds < 0: 1 ms
 *  of compute, then before_update -> stamp -> request_checkpoint for
 *  every owned tenant. */
void
drive_lane(ServiceRig& rig, Lane& lane, const std::vector<double>& jitter,
           bool traced, int rounds, Seconds deadline)
{
    constexpr int kPerLane = kTenants / kLanes;
    const int first = lane.index * kPerLane;
    lane.request_time.resize(kPerLane);
    for (int done = 0; rounds < 0 ? now() < deadline : done < rounds;
         ++done) {
        const std::uint64_t round = ++lane.round;
        MonotonicClock::instance().sleep_for(
            kRoundCompute *
            jitter[(round * kLanes + static_cast<std::uint64_t>(lane.index)) %
                   jitter.size()]);
        for (int t = first; t < first + kPerLane; ++t) {
            const std::uint64_t iteration = tenant_iteration(t, round);
            RequestScope scope(iteration);
            Span step(SpanKind::kStep, traced);
            Checkpointer& session = *rig.sessions[t];
            const Seconds start = now();
            {
                Span wait(SpanKind::kBeforeUpdate, traced);
                session.before_update(iteration);
            }
            const Seconds waited = now() - start;
            rig.states[t]->stamp(iteration);
            const Seconds requested_at = now();
            {
                Span request(SpanKind::kRequest, traced);
                session.request_checkpoint(iteration);
            }
            lane.stall_s.push_back(waited + now() - requested_at);
            if (!traced) {
                continue;
            }
            std::vector<Seconds>& times = lane.request_time[t - first];
            times.push_back(requested_at);
            const TenantWatermark wm =
                rig.service->watermark(static_cast<std::uint64_t>(t));
            if (wm.valid) {
                const std::uint64_t r = wm.iteration - tenant_iteration(t, 0);
                if (r >= 1 && r <= times.size()) {
                    lane.lag_s.push_back(now() - times[r - 1]);
                }
            }
        }
    }
}

void
run_lanes(ServiceRig& rig, const std::vector<double>& jitter, bool traced,
          int rounds, Seconds deadline)
{
    std::vector<std::thread> threads;
    for (Lane& lane : rig.lanes) {
        threads.emplace_back([&, rounds, deadline] {
            drive_lane(rig, lane, jitter, traced, rounds, deadline);
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
}

/** Every tenant with a durable watermark resolves from the raw media
 *  to at least that iteration, with verifying stamps. */
std::string
audit_service(ServiceRig& rig, int* checked)
{
    std::vector<StorageDevice*> raw;
    for (const auto& medium : rig.media) {
        raw.push_back(medium.get());
    }
    for (const TenantSpec& tenant : rig.config.tenants) {
        const TenantWatermark wm = rig.service->watermark(tenant.id);
        if (!wm.valid) {
            continue;
        }
        ++*checked;
        const TenantRecovery recovery =
            CheckpointService::resolve_tenant(rig.config, raw, tenant.id);
        const std::string who = "tenant " + std::to_string(tenant.id);
        if (!recovery.found) {
            return who + ": nothing resolved";
        }
        if (recovery.result.iteration < wm.iteration) {
            return who + ": resolved " +
                   std::to_string(recovery.result.iteration) +
                   " < watermark " + std::to_string(wm.iteration);
        }
        const auto stamped = TrainingState::verify_buffer(
            recovery.image.data(), recovery.image.size());
        if (!stamped || *stamped != recovery.result.iteration) {
            return who + ": resolved image stamps do not verify";
        }
    }
    return *checked > 0 ? "" : "no tenant has a durable checkpoint";
}

WorkloadResult
run_service(const RunOptions& options)
{
    const auto probes = options.traced ? std::make_unique<Probes>() : nullptr;
    const std::vector<double> jitter = make_jitter(
        options.seed,
        kLanes * (static_cast<std::size_t>(options.seconds / kRoundCompute) +
                  kServiceWarmupRounds));
    const int warmup = options.smoke ? 5 : kServiceWarmupRounds;

    Window w;
    const auto setup = [&] {
        auto rig = std::make_unique<ServiceRig>(probes.get());
        run_lanes(*rig, jitter, options.traced, warmup, 0);
        return rig;
    };
    const auto rig_ptr = timed_setup(w, setup);
    ServiceRig& rig = *rig_ptr;
    for (Lane& lane : rig.lanes) {
        lane.stall_s.clear();
        lane.lag_s.clear();
    }

    const auto session_totals = [&rig] {
        CheckpointerStats total;
        double bytes = 0;
        for (std::size_t t = 0; t < rig.sessions.size(); ++t) {
            const CheckpointerStats stats = rig.sessions[t]->stats();
            total.completed += stats.completed;
            total.aborted += stats.aborted;
            bytes += static_cast<double>(stats.completed) *
                     static_cast<double>(rig.config.tenants[t].state_bytes);
        }
        return std::pair{total, bytes};
    };
    const auto sample = [&] {
        Counters c;
        add_spans_clocks_proc(c, *probes);
        for (const auto& device : rig.timed) {
            add_device(c, *device);
        }
        for (Checkpointer* session : rig.sessions) {
            add_checkpointer(c, session->stats());
        }
        c["gpusim.pcie_bytes"] =
            static_cast<double>(rig.gpu->pcie_bytes_moved());
        const ServiceStats stats = rig.service->stats();
        c["service.admitted"] = static_cast<double>(stats.admitted);
        c["service.rejected"] = static_cast<double>(stats.rejected);
        c["service.throttled"] = static_cast<double>(stats.throttled);
        c["service.coalesced_records"] =
            static_cast<double>(stats.coalesced_records);
        c["service.segment_seals"] = static_cast<double>(stats.segment_seals);
        c["service.segment_recycles"] =
            static_cast<double>(stats.segment_recycles);
        return c;
    };
    const auto [before, bytes_before] = session_totals();
    open_window(w, options, sample);
    run_lanes(rig, jitter, options.traced, -1, w.start + options.seconds);
    close_window(w, options, sample);
    const auto [after, bytes_after] = session_totals();
    for (const Lane& lane : rig.lanes) {
        w.op_s.insert(w.op_s.end(), lane.stall_s.begin(), lane.stall_s.end());
        w.lag_s.insert(w.lag_s.end(), lane.lag_s.begin(), lane.lag_s.end());
        w.attempted += lane.stall_s.size();
    }
    w.bytes = bytes_after - bytes_before;
    w.failed = after.aborted - before.aborted;
    w.persist_bw =
        rig.config.qos.device_budget_bytes_per_sec * rig.config.shards;

    timed_finish(w, options, [&rig] { rig.service->finish(); });
    int checked = 0;
    const std::string error = audit_service(rig, &checked);
    note_audit(w, error,
               std::to_string(checked) +
                   " tenants resolve to >= their watermark, stamps verify");
    time_more_setups(options, w, setup);
    return report(w, options);
}

// ---- recover ---------------------------------------------------------

RigSpec
recover_spec()
{
    RigSpec spec = paper_spec(paper_model());
    spec.delta_log_bytes = kDeltaLogBytes;
    return spec;
}

/** Writes one full checkpoint and kDeltaFrames sparse delta frames at
 *  paper SSD bandwidths. @return the image recovery must restore. */
std::vector<std::uint8_t>
write_image(Rig& rig, std::uint64_t seed)
{
    PCcheckCheckpointer& checkpointer = *rig.checkpointer;
    rig.state->stamp(1);
    checkpointer.request_checkpoint(1);
    checkpointer.finish();
    for (std::uint64_t i = 2; i <= 1 + kDeltaFrames; ++i) {
        rig.state->sparse_update(i, kDirtyFraction, seed);
        checkpointer.request_delta(i);
    }
    PCCHECK_CHECK_MSG(checkpointer.stats().delta_frames == kDeltaFrames,
                      "recover image: only "
                          << checkpointer.stats().delta_frames
                          << " delta frames sealed");
    const std::uint8_t* data = rig.gpu->device_data(rig.state->device_ptr());
    return {data, data + rig.state->size()};
}

/** The recover workload's rig and the image recovery must restore. */
struct RecoverRig {
    RecoverRig(const Probes* probes, std::uint64_t seed)
        : rig(recover_spec(), probes), expected(write_image(rig, seed))
    {
    }

    Rig rig;
    std::vector<std::uint8_t> expected;
};

struct Recovery {
    bool ok = false;
    Seconds elapsed = 0;
    Bytes pcie_bytes = 0;
    std::uint64_t frames = 0;
};

/** One timed recover_latest_into_state into a fresh GPU; ok when it
 *  restores iteration 1 + kDeltaFrames and exactly @p expected. */
Recovery
recover_once(Rig& rig, const std::vector<std::uint8_t>& expected,
             const Probes* probes, bool traced)
{
    SimGpu gpu(gpu_config(rig.spec), pick(probes, &Probes::gpu));
    TrainingState state(gpu, expected.size());
    const Bytes pcie_before = gpu.pcie_bytes_moved();
    Recovery out;
    std::optional<RecoveryResult> result;
    const Seconds start = now();
    {
        Span span(SpanKind::kRecover, traced);
        result = recover_latest_into_state(rig.device(), state);
    }
    out.elapsed = now() - start;
    out.pcie_bytes = gpu.pcie_bytes_moved() - pcie_before;
    out.frames = result ? result->delta_frames : 0;
    out.ok = result && result->iteration == 1 + kDeltaFrames &&
             state.iteration() == result->iteration &&
             std::memcmp(gpu.device_data(state.device_ptr()), expected.data(),
                         expected.size()) == 0;
    return out;
}

WorkloadResult
run_recover(const RunOptions& options)
{
    const auto probes = options.traced ? std::make_unique<Probes>() : nullptr;
    Window w;
    w.tail_q = 0.90;
    const auto setup = [&] {
        auto image = std::make_unique<RecoverRig>(probes.get(), options.seed);
        for (int i = 0; i < kWarmupRecoveries; ++i) {
            PCCHECK_CHECK_MSG(
                recover_once(image->rig, image->expected, probes.get(), false)
                    .ok,
                "recover warm-up restored the wrong image");
        }
        return image;
    };
    const auto image = timed_setup(w, setup);
    Rig& rig = image->rig;
    const std::vector<std::uint8_t>& expected = image->expected;

    double pcie_bytes = 0;
    double frames = 0;
    const auto sample = [&] {
        Counters c;
        add_spans_clocks_proc(c, *probes);
        add_device(c, *rig.timed);
        c["gpusim.pcie_bytes"] = pcie_bytes;
        c["delta.frames_replayed"] = frames;
        return c;
    };
    open_window(w, options, sample);
    while (now() - w.start < options.seconds) {
        RequestScope scope(w.attempted + 1);
        const Recovery recovery =
            recover_once(rig, expected, probes.get(), options.traced);
        ++w.attempted;
        if (recovery.ok) {
            w.bytes += static_cast<double>(expected.size());
        } else {
            ++w.failed;
        }
        w.op_s.push_back(recovery.elapsed);
        pcie_bytes += static_cast<double>(recovery.pcie_bytes);
        frames += static_cast<double>(recovery.frames);
    }
    close_window(w, options, sample);
    note_audit(w,
               w.failed == 0 ? ""
                             : std::to_string(w.failed) + " of " +
                                   std::to_string(w.attempted) +
                                   " recoveries restored the wrong image",
               std::to_string(w.attempted) +
                   " recoveries restored iteration " +
                   std::to_string(1 + kDeltaFrames) + " byte-exact");
    time_more_setups(options, w, setup);
    return report(w, options);
}

}  // namespace

const std::vector<Workload>&
all_workloads()
{
    static const std::vector<Workload> kWorkloads = {
        {"train-ssd", run_train_ssd},
        {"train-replicated", run_train_replicated},
        {"ceiling", run_ceiling},
        {"service-64", run_service},
        {"recover", run_recover},
    };
    return kWorkloads;
}

const std::vector<std::pair<std::string, std::string>>&
layer_metrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics = {
        {"core.before_update.busy_s", "s"},
        {"core.request.busy_s", "s"},
        {"core.finish.busy_s", "s"},
        {"core.sleep_s", "s"},
        {"core.poll_sleeps", "count"},
        {"core.ckpt.completed", "count"},
        {"core.ckpt.aborted", "count"},
        {"core.ckpt.latency_ms_mean", "ms"},
        {"core.durable_lag_ms_p50", "ms"},
        {"core.durable_lag_ms_p99", "ms"},
        {"core.recover.busy_s", "s"},
        {"core.recover.cpu_s", "s"},
        {"gpusim.pcie_bytes", "B"},
        {"gpusim.copy_pace_s", "s"},
        {"storage.write.calls", "count"},
        {"storage.write.bytes", "B"},
        {"storage.write.busy_s", "s"},
        {"storage.persist.calls", "count"},
        {"storage.persist.bytes", "B"},
        {"storage.persist.busy_s", "s"},
        {"storage.read.calls", "count"},
        {"storage.read.bytes", "B"},
        {"storage.read.busy_s", "s"},
        {"storage.fence.calls", "count"},
        {"storage.pace_s", "s"},
        {"storage.persist.utilization", "ratio"},
        {"delta.frames_written", "count"},
        {"delta.bytes_written", "B"},
        {"delta.frames_replayed", "count"},
        {"net.pace_s", "s"},
        {"remote.bytes_sent", "B"},
        {"remote.acks", "count"},
        {"remote.degraded", "count"},
        {"remote.watermark_lag", "count"},
        {"service.admitted", "count"},
        {"service.rejected", "count"},
        {"service.throttled", "count"},
        {"service.coalesced_records", "count"},
        {"service.segment_seals", "count"},
        {"service.segment_recycles", "count"},
        {"service.skip_frac", "ratio"},
        {"service.sleep_s", "s"},
        {"service.poll_sleeps", "count"},
        {"service.segment.persist.calls", "count"},
        {"service.group_commit_size", "ratio"},
        {"proc.cpu_user_s", "s"},
        {"proc.cpu_sys_s", "s"},
        {"proc.vol_ctx_switches", "count"},
        {"proc.invol_ctx_switches", "count"},
        {"proc.threads_peak", "count"},
    };
    return kMetrics;
}

std::string
check_recover_audit(std::uint64_t seed)
{
    RecoverRig image(nullptr, seed);
    Rig& rig = image.rig;
    const std::vector<std::uint8_t>& expected = image.expected;
    if (!recover_once(rig, expected, nullptr, false).ok) {
        return "the recover audit rejected a clean image";
    }
    SlotStore store = SlotStore::open(rig.device());
    const std::vector<std::uint8_t> garbage(64, 0xA5);
    for (std::uint32_t slot = 0; slot < store.slot_count(); ++slot) {
        PCCHECK_MUST(store.write_slot(slot, store.slot_size() / 2,
                                      garbage.data(), garbage.size()));
        PCCHECK_MUST(store.persist_slot_range(slot, store.slot_size() / 2,
                                              garbage.size()));
    }
    if (recover_once(rig, expected, nullptr, false).ok) {
        return "the recover audit accepted a corrupted image";
    }
    return "";
}

}  // namespace pccheck::suite
