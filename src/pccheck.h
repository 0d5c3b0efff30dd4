#ifndef PCCHECK_PCCHECK_H_
#define PCCHECK_PCCHECK_H_

/**
 * @file
 * Umbrella header: the full public API of the PCcheck library.
 *
 * Typical usage needs only a handful of these:
 *
 *   #include "pccheck.h"
 *   using namespace pccheck;
 *
 *   SimGpu gpu(gpu_config);
 *   TrainingState state(gpu, checkpoint_bytes);
 *   FileStorage ssd("model.ckpt", device_bytes);
 *   PCcheckCheckpointer ck(state, ssd, PCcheckConfig{});
 *   TrainingLoop(gpu, state, model).run(steps, interval, ck);
 *   // after a crash:
 *   auto recovered = recover_latest_into_state(ssd, state);
 */

// The contribution: concurrent checkpointing.
#include "core/adaptive.h"
#include "core/cluster.h"
#include "core/concurrent_commit.h"
#include "core/config.h"
#include "core/distributed.h"
#include "core/free_slot_queue.h"
#include "core/orchestrator.h"
#include "core/persist_engine.h"
#include "core/recovery.h"
#include "core/sharding.h"
#include "core/slot_store.h"
#include "core/tuner.h"

// Baseline checkpointers for comparison.
#include "baselines/checkfreq.h"
#include "baselines/gemini.h"
#include "baselines/gpm.h"
#include "baselines/sync_checkpoint.h"

// Simulated substrate.
#include "gpusim/gpu.h"
#include "net/network.h"
#include "storage/crash_sim.h"
#include "storage/device.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "storage/throttled_storage.h"

// Training workloads and traces.
#include "trace/preemption_trace.h"
#include "trainsim/checkpointer.h"
#include "trainsim/data_loader.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "trainsim/training_state.h"

// Analysis (goodput, recovery bounds, timelines).
#include "goodput/analytic.h"
#include "goodput/footprint.h"
#include "goodput/goodput.h"
#include "goodput/jit.h"
#include "goodput/recovery_model.h"
#include "sim/timeline.h"

// Utilities.
#include "util/affinity.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/throttle.h"

#endif  // PCCHECK_PCCHECK_H_
