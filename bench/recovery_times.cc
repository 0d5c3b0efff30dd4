/**
 * @file
 * §5.2.2 recovery times: the §4.2 bounds at full scale per model and
 * interval, plus a measured end-to-end recovery (device → host →
 * verified → GPU) on the scaled substrate.
 *
 * Expected shape (paper): OPT-1.3B needs ~80 s when checkpointing
 * every 100 iterations with CheckFreq at 5% overhead, while PCcheck
 * gets the same overhead at f=50 and recovers in ~50 s; BLOOM-7B
 * recovers in 26 s with PCcheck vs 250 s for CheckFreq/Gemini.
 */

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "goodput/recovery_model.h"
#include "storage/mem_storage.h"
#include "storage/throttled_storage.h"
#include "trainsim/models.h"
#include "util/csv.h"
#include "util/logging.h"

using namespace pccheck;
using namespace pccheck::bench;

int
main()
{
    set_log_level(LogLevel::kWarn);
    CsvWriter csv("recovery_times.csv",
                  {"model", "interval", "system", "expected_recovery_s"});
    announce("recovery_times", csv.path());

    std::printf("=== Expected recovery time [s], full scale (§4.2 "
                "bounds, midpoint) ===\n");
    std::printf("%-12s %-9s %-10s %-10s %-10s\n", "model", "interval",
                "pccheck", "checkfreq", "gpm");
    for (const char* model_name : {"opt-1.3b", "bloom-7b"}) {
        const ModelSpec& spec = model_by_name(model_name);
        const Bytes partition =
            spec.checkpoint_bytes /
            static_cast<Bytes>(std::max(spec.pipeline_stages, 1));
        for (const std::uint64_t interval :
             {10ULL, 25ULL, 50ULL, 100ULL}) {
            RecoveryModelInputs in;
            in.iteration_time = spec.iteration_time;
            in.interval = interval;
            in.checkpoint_time =
                static_cast<double>(partition) / 0.45e9;
            in.load_time = static_cast<double>(partition) / 0.9e9;
            in.concurrent = 2;
            std::printf("%-12s %-9llu", model_name,
                        static_cast<unsigned long long>(interval));
            for (const char* system : {"pccheck", "checkfreq", "gpm"}) {
                const Seconds recovery = expected_recovery(system, in);
                std::printf(" %-10.1f", recovery);
                csv.row({model_name, std::to_string(interval), system,
                         std::to_string(recovery)});
            }
            std::printf("\n");
        }
    }

    // Measured end-to-end recovery on the scaled substrate: persist a
    // checkpoint, drop the GPU, recover, verify, reload.
    std::printf("\n--- measured scaled recovery (OPT-1.3B profile) "
                "---\n");
    const ModelSpec& spec = model_by_name("opt-1.3b");
    const ScaleFactors factors = auto_factors(spec);
    const ScaledModel model = scale_model(spec, factors);
    const auto ssd = paper_bandwidth(StorageKind::kSsdMsync);
    ThrottledStorage device(
        std::make_unique<MemStorage>(
            SlotStore::required_size(3, model.checkpoint_bytes)),
        factors.scale_bandwidth(ssd.write_bytes_per_sec),
        factors.scale_bandwidth(ssd.persist_bytes_per_sec),
        factors.scale_bandwidth(ssd.read_bytes_per_sec));
    GpuConfig gpu_config;
    gpu_config.memory_bytes = model.checkpoint_bytes + 4 * kMiB;
    gpu_config.pcie_bytes_per_sec = factors.scale_bandwidth(12.8e9);
    {
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, model.checkpoint_bytes);
        PCcheckConfig config;
        PCcheckCheckpointer checkpointer(state, device, config);
        state.stamp(123);
        checkpointer.request_checkpoint(123);
        checkpointer.finish();
    }
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, model.checkpoint_bytes);
    const auto recovered = recover_latest_into_state(device, state);
    if (recovered.has_value()) {
        std::printf("recovered iteration %llu; load time %.1f ms "
                    "scaled = %.1f s full scale (paper l for 16.2 GB "
                    "at 0.9 GB/s: 18 s)\n",
                    static_cast<unsigned long long>(
                        recovered->iteration),
                    recovered->load_time * 1e3,
                    recovered->load_time * factors.time);
    }
    return 0;
}
