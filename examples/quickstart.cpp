/**
 * @file
 * Quickstart: checkpoint a (simulated) training loop with PCcheck,
 * crash, and recover.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Pass --trace-out=trace.json to capture a Chrome trace of the run
 * (snapshot / persist / commit spans; load it in ui.perfetto.dev) and
 * print per-stage latency percentiles. See docs/OBSERVABILITY.md.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "gpusim/gpu.h"
#include "obs/trace.h"
#include "storage/file_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "trainsim/training_state.h"
#include "util/metrics.h"

using namespace pccheck;

int
main(int argc, char** argv)
{
    std::string trace_out;
    constexpr const char* kTracePrefix = "--trace-out=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], kTracePrefix,
                         std::strlen(kTracePrefix)) == 0) {
            trace_out = argv[i] + std::strlen(kTracePrefix);
        }
    }
    if (!trace_out.empty()) {
        Tracer::global().set_enabled(true);
    }

    // A scaled-down VGG16 workload: sizes ÷2000, times ÷60, so the
    // whole demo runs in well under a second.
    const ScaledModel model =
        scale_model(model_by_name("vgg16"), ScaleFactors{60.0, 2000.0});
    std::printf("model: %s  checkpoint=%s  iteration=%.2f ms\n",
                model.spec.name.c_str(),
                format_bytes(model.checkpoint_bytes).c_str(),
                model.iteration_time * 1e3);

    // 1. A simulated GPU holding the training state.
    GpuConfig gpu_config;
    gpu_config.memory_bytes = model.checkpoint_bytes + 4 * kMiB;
    gpu_config.pcie_bytes_per_sec =
        model.factors.scale_bandwidth(12.8e9);  // PCIe3 x16, scaled
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, model.checkpoint_bytes);

    // 2. A real file as the SSD: PCcheck's mmap + msync path.
    PCcheckConfig config;  // N=2 concurrent checkpoints, 3 writers
    const Bytes device_bytes = SlotStore::required_size(
        static_cast<std::uint32_t>(config.concurrent_checkpoints + 1),
        model.checkpoint_bytes);
    FileStorage device("/tmp/pccheck_quickstart.ckpt", device_bytes);

    // 3. Train 100 iterations, checkpointing every 3 — frequent
    // enough that checkpoint k+1 starts while k is still persisting,
    // the N=2 concurrency PCcheck exists for (visible in the trace;
    // the paper sustains f=10 at ~3% overhead).
    {
        PCcheckCheckpointer checkpointer(state, device, config);
        TrainingLoop loop(gpu, state, model);
        const TrainingResult result = loop.run(100, 3, checkpointer);
        std::printf("trained %llu iterations at %.1f it/s "
                    "(%llu checkpoints, stall %.1f ms)\n",
                    static_cast<unsigned long long>(result.iterations),
                    result.throughput,
                    static_cast<unsigned long long>(
                        result.checkpointer.completed),
                    result.checkpointer.stall_time * 1e3);
    }

    // 4. "Crash": drop everything volatile and recover from the file.
    SimGpu fresh_gpu(gpu_config);
    TrainingState fresh_state(fresh_gpu, model.checkpoint_bytes);
    const auto recovered = recover_latest_into_state(device, fresh_state);
    if (!recovered.has_value()) {
        std::printf("recovery failed: no valid checkpoint\n");
        return 1;
    }
    std::printf("recovered iteration %llu (%s in %.1f ms) — resume "
                "training from iteration %llu\n",
                static_cast<unsigned long long>(recovered->iteration),
                format_bytes(recovered->data_len).c_str(),
                recovered->load_time * 1e3,
                static_cast<unsigned long long>(recovered->iteration + 1));

    if (!trace_out.empty()) {
        Tracer::global().set_enabled(false);
        if (!Tracer::global().write_file(trace_out)) {
            std::printf("failed to write trace to %s\n",
                        trace_out.c_str());
            return 1;
        }
        std::printf("trace: %zu spans -> %s (load in ui.perfetto.dev)\n",
                    Tracer::global().event_count(), trace_out.c_str());
        std::printf("stage metrics:\n");
        MetricsRegistry::global().dump(std::cout);
    }
    return 0;
}
