#ifndef PCCHECK_MC_RECOVERY_ENUM_H_
#define PCCHECK_MC_RECOVERY_ENUM_H_

/**
 * @file
 * Crash-state enumeration over RECOVERY's own writes (docs/RECOVERY.md).
 *
 * Recovery is no longer read-only: the planner quarantines corrupt
 * slots (durable header-bitmap writes), salvages a remotely restored
 * image back into the arena (repair_slot + publish_pointer), and the
 * scrubber truncates rotten delta frames. A crash DURING those writes
 * must leave a device from which recovery still works — recovery must
 * be re-entrant.
 *
 * The model publishes K checkpoints, durably flips a byte in the
 * newest one's slot (latent bit rot), then runs the REAL
 * RecoveryPlanner against the damaged device with an in-memory peer
 * source serving the pristine image. Every storage op of that
 * quarantine/salvage sequence is a crash point; for each image the
 * shared enumerator (crash_images.h) materializes, the oracle
 * asserts:
 *
 *  - local floor: a planner run with NO sources recovers at least
 *    checkpoint K-1 — salvage never destroys the last locally valid
 *    checkpoint before its replacement is durable;
 *  - integrity: the recovered bytes match the model's state at the
 *    recovered counter exactly;
 *  - fixpoint (re-entrancy): an armored run (with the peer source)
 *    restores K; a second armored run on the resulting device returns
 *    the same counter and leaves the device image byte-identical.
 *
 * The kRepairOverLastGood mutation proves the checker has teeth: its
 * salvage writes the fetched image over the last good slot instead of
 * the quarantined one, so a crash mid-repair destroys both copies and
 * the local floor breaks.
 */

#include <cstdint>

#include "mc/crash_images.h"
#include "util/bytes.h"

namespace pccheck::mc {

/** Which salvage weakening (if any) to run. */
enum class RecoveryMutation {
    kNone,               ///< faithful planner; checker must find nothing
    kRepairOverLastGood, ///< salvage overwrites the last valid slot
};

/** Shape of the recovery workload. */
struct RecoveryModelConfig {
    int checkpoints = 3;     ///< full checkpoints published (>= 2)
    Bytes image_len = 256;   ///< checkpoint image size
    std::uint64_t storage_seed = 1;
};

/** One run of the damaged-device workload. */
struct RecoveryWorkload : CrashWorkload {
    bool salvaged = false;  ///< the run's salvage published
};

/** Run the damaged-device workload once, recording the storage ops
 *  of the recovery/salvage write sequence as crash points. Its oracle
 *  keeps logging to warnings while it runs the planner. */
RecoveryWorkload run_recovery_workload(const RecoveryModelConfig& config,
                                       RecoveryMutation mutation);

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_RECOVERY_ENUM_H_
