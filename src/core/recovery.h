#ifndef PCCHECK_CORE_RECOVERY_H_
#define PCCHECK_CORE_RECOVERY_H_

/**
 * @file
 * Recovery path (§4.2): locate the latest consistent checkpoint via
 * the durable CHECK_ADDR records, validate it, and load it back into
 * GPU memory so training can resume.
 *
 * Both entry points are read-only runs of the RecoveryPlanner
 * (core/recovery_planner.h), the one candidate loop: newest valid
 * full checkpoint, then its delta-frame chain replayed on top
 * (docs/DELTA_LOG.md). They never quarantine or salvage, so they are
 * safe on a device a live checkpointer is writing.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "storage/device.h"
#include "util/clock.h"

#if defined(PCCHECK_MC)
// The model-checking closure (src/mc/) links recover_to_buffer but
// never restores into a simulated GPU; forward-declaring keeps
// trainsim/gpusim out of the checker binary.
namespace pccheck {
class TrainingState;
}
#else
#include "trainsim/training_state.h"
#endif

namespace pccheck {

/** What recovery found and how long loading took. */
struct RecoveryResult {
    std::uint64_t iteration = 0;  ///< training iteration to resume from
    std::uint64_t counter = 0;    ///< checkpoint counter that survived
    Bytes data_len = 0;
    Seconds load_time = 0;        ///< l in the §4.2 recovery bound
    /** CRC-32C recorded with the checkpoint (0 = none computed). */
    std::uint32_t data_crc = 0;
    /** Delta frames replayed on top of the full image
     *  (docs/DELTA_LOG.md). iteration then reflects the last applied
     *  frame, not the base checkpoint. */
    std::uint64_t delta_frames = 0;
    /** Sequence number of the last applied frame (0 = none). */
    std::uint64_t delta_seq = 0;
    /** The local arena has a delta-log region, so the image may carry
     *  markers of several iterations even with no frame replayed. */
    bool delta_region = false;
};

/**
 * Read the latest valid checkpoint from @p device into a host buffer,
 * with its delta chain replayed on top.
 * @return std::nullopt when the device holds no valid checkpoint,
 *         including when its header is missing or corrupt.
 */
std::optional<RecoveryResult> recover_to_buffer(
    StorageDevice& device, std::vector<std::uint8_t>* out,
    const Clock& clock = MonotonicClock::instance());

/**
 * Full recovery: recover_to_buffer, check the state's integrity
 * stamps, then load the image into @p state's GPU memory (paying the
 * PCIe H2D transfer) at the recovered iteration. On an arena without
 * a delta region every marker must carry the recovered iteration; on
 * one with a region markers may be older (a sparse update leaves
 * untouched chunks behind) but never newer.
 * @return std::nullopt when no valid checkpoint exists or the stamps
 *         reject it; @p state is then untouched.
 */
std::optional<RecoveryResult> recover_latest_into_state(
    StorageDevice& device, TrainingState& state, bool pinned = true,
    const Clock& clock = MonotonicClock::instance());

}  // namespace pccheck

#endif  // PCCHECK_CORE_RECOVERY_H_
