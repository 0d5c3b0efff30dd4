/**
 * @file
 * Spot-VM training scenario (paper §1, Fig. 2): train under a GCP
 * A100 spot-instance preemption trace, crash at every preemption,
 * recover from the latest checkpoint, and report goodput.
 *
 * The trace is replayed in scaled time: the 16-hour window becomes
 * 96 s, and the replay takes about 110 s of wall time. Preemptions
 * crash the adversarial crash-sim device, exercising the full
 * recovery path every time; each segment resumes at the iteration
 * after the recovered checkpoint.
 */

#include <cstdio>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "storage/crash_sim.h"
#include "trace/preemption_trace.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "util/logging.h"

using namespace pccheck;

int
main()
{
    set_log_level(LogLevel::kWarn);
    // Scaled VGG16; the trace is compressed in the same proportion.
    const ScaleFactors factors{600.0, 20000.0};
    const ScaledModel model =
        scale_model(model_by_name("vgg16"), factors);

    // GCP spot profile, compressed: a 16 h window becomes 16h/600.
    SpotProfile profile = gcp_a100_profile();
    profile.duration = factors.scale_time(profile.duration);
    profile.events_per_hour *= factors.time;
    const PreemptionTrace trace = generate_trace(profile, 2026);
    std::printf("spot trace: %zu preemptions over %.1f s (scaled from "
                "16 h)\n",
                trace.events.size(), trace.duration);

    GpuConfig gpu_config;
    gpu_config.memory_bytes = model.checkpoint_bytes + 4 * kMiB;
    gpu_config.pcie_bytes_per_sec = factors.scale_bandwidth(12.8e9);

    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    const Bytes device_bytes = SlotStore::required_size(
        3, model.checkpoint_bytes);
    CrashSimStorage device(device_bytes, StorageKind::kSsdMsync, 7, 0.5);

    const std::uint64_t interval = 10;
    std::uint64_t useful_iterations = 0;
    std::uint64_t wasted_iterations = 0;
    std::uint64_t resume_from = 0;
    Stopwatch wall;

    // Replay: between consecutive preemptions, train; at each
    // preemption, crash the device and recover.
    Seconds previous_event = 0;
    for (std::size_t event = 0; event <= trace.events.size(); ++event) {
        const Seconds until = event < trace.events.size()
                                  ? trace.events[event].time
                                  : trace.duration;
        const auto budget_iters = static_cast<std::uint64_t>(
            (until - previous_event) / model.iteration_time);
        previous_event = until;
        if (budget_iters == 0) {
            continue;
        }
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, model.checkpoint_bytes);
        std::uint64_t start = 1;
        if (resume_from > 0) {
            const auto recovered = recover_latest_into_state(device, state);
            if (recovered.has_value()) {
                start = recovered->iteration + 1;
            }
        }
        PCcheckCheckpointer checkpointer(state, device, config);
        TrainingLoop loop(gpu, state, model);
        loop.run(budget_iters, interval, checkpointer, start);
        checkpointer.finish();
        const auto latest =
            checkpointer.commit_protocol().latest_pointer();
        const std::uint64_t reached = start + budget_iters - 1;
        const std::uint64_t durable =
            latest ? latest->iteration : resume_from;
        useful_iterations += durable > resume_from ? durable - resume_from
                                                   : 0;
        wasted_iterations += reached - durable;
        resume_from = durable;
        if (event < trace.events.size()) {
            device.crash();  // the preemption
        }
    }

    const double goodput =
        static_cast<double>(useful_iterations) / trace.duration;
    const double ideal = 1.0 / model.iteration_time;
    std::printf("checkpoint interval: every %llu iterations\n",
                static_cast<unsigned long long>(interval));
    std::printf("durable progress: iteration %llu\n",
                static_cast<unsigned long long>(resume_from));
    std::printf("useful iterations: %llu, lost to rollback: %llu\n",
                static_cast<unsigned long long>(useful_iterations),
                static_cast<unsigned long long>(wasted_iterations));
    std::printf("goodput: %.1f it/s (ideal %.1f it/s, %.0f%%)\n",
                goodput, ideal, 100.0 * goodput / ideal);
    std::printf("replay wall time: %.2f s\n", wall.elapsed());
    return 0;
}
