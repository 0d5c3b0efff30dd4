#ifndef PCCHECK_MC_DELTA_ENUM_H_
#define PCCHECK_MC_DELTA_ENUM_H_

/**
 * @file
 * Crash-state enumeration for the incremental (delta-log) tier
 * (docs/DELTA_LOG.md).
 *
 * The workload is a deterministic single-writer program — exactly the
 * production discipline, where only the training thread appends — so
 * there is no schedule dimension to explore; the state space is the
 * crash dimension. The workload interleaves full-checkpoint publishes
 * with delta-frame appends over CrashSimStorage and records a crash
 * point after every storage op. For each image the shared enumerator
 * (crash_images.h) materializes, the oracle runs the REAL recovery
 * path (recover_to_buffer) and asserts:
 *
 *  - floor: once a full checkpoint's publish or a frame's append has
 *    RETURNED (the durability ack), every later crash image must
 *    recover an iteration at least that new — recovery never surfaces
 *    state older than the last durable point;
 *  - ceiling: recovery never surfaces an iteration newer than the
 *    newest seal or publish that had STARTED by the crash op —
 *    i.e. never newer than the last sealed frame;
 *  - integrity: the recovered image must be byte-identical to the
 *    model's expected state at the recovered iteration (base image
 *    with every applied frame's chunks replayed on top).
 *
 * Mutations prove the checker has teeth:
 *  - kAckBeforePayload acks the append after sealing the header but
 *    before persisting the payload — the classic WAL ordering bug the
 *    delta-seal-before-manifest lint rule guards against;
 *  - kResetBeforePublish garbage-collects the epoch before the
 *    covering full checkpoint's pointer record is durable — the GC
 *    gating bug SlotStore::last_published exists to prevent.
 */

#include <cstdint>

#include "mc/crash_images.h"
#include "util/bytes.h"

namespace pccheck::mc {

/** Which delta-tier weakening (if any) to run. */
enum class DeltaMutation {
    kNone,               ///< faithful; checker must find nothing
    kAckBeforePayload,   ///< append acked at header seal, payload late
    kResetBeforePublish, ///< epoch GC before the covering publish
};

/** Shape of the delta workload. */
struct DeltaModelConfig {
    int fulls = 3;           ///< full checkpoints published
    int deltas_between = 2;  ///< delta frames between fulls
    std::uint32_t chunks = 4;
    Bytes chunk_bytes = 64;  ///< one PMEM line per chunk
    int dirty_per_delta = 2; ///< chunks mutated per delta iteration
    Bytes delta_log_bytes = 8192;
    std::uint64_t storage_seed = 1;
};

/** One run of the delta workload. */
struct DeltaWorkload : CrashWorkload {
    std::size_t frames_sealed = 0;
    std::size_t fulls_published = 0;
};

/**
 * Run the workload once on a fresh device, recording every storage
 * op after format() as a crash point. The workload is deterministic,
 * so a fresh run replays a violating image exactly.
 */
DeltaWorkload run_delta_workload(const DeltaModelConfig& config,
                                 DeltaMutation mutation);

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_DELTA_ENUM_H_
