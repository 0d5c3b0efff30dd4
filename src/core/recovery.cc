#include "core/recovery.h"

#include "core/recovery_planner.h"
#include "util/check.h"

namespace pccheck {

std::optional<RecoveryResult>
recover_to_buffer(StorageDevice& device, std::vector<std::uint8_t>* out,
                  const Clock& clock)
{
    // Read-only: a live checkpointer may be writing this device
    // (examples/monitor_debug.cpp), so nothing is quarantined or
    // salvaged.
    RecoveryPlanner::Options options;
    options.salvage = false;
    options.quarantine = false;
    RecoveryPlanner planner(&device, options, clock);
    const std::optional<PlannedRecovery> planned = planner.recover(out);
    if (!planned.has_value()) {
        return std::nullopt;
    }
    return planned->result;
}

#if !defined(PCCHECK_MC)

std::optional<RecoveryResult>
recover_latest_into_state(StorageDevice& device, TrainingState& state,
                          bool pinned, const Clock& clock)
{
    Stopwatch watch(clock);
    std::vector<std::uint8_t> buffer;
    auto result = recover_to_buffer(device, &buffer, clock);
    if (!result.has_value()) {
        return std::nullopt;
    }
    PCCHECK_CHECK_MSG(buffer.size() <= state.size(),
                      "checkpoint larger than training state: "
                          << buffer.size() << " > " << state.size());
    // Validate the stamps before touching GPU memory: a checkpoint the
    // markers reject must never be restored. The arena, not the replay,
    // picks the oracle: with a delta region a sparsely updated state
    // leaves untouched chunks at older iterations even in a full
    // checkpoint, so markers must only sit at their offsets and be no
    // newer than the recovered iteration. Without one every checkpoint
    // is a full stamp and all markers must agree on it.
    const bool sparse = result->delta_region;
    const auto stamped =
        sparse ? TrainingState::verify_buffer_sparse(buffer.data(),
                                                     buffer.size())
               : TrainingState::verify_buffer(buffer.data(), buffer.size());
    if (!stamped.has_value() ||
        (sparse ? *stamped > result->iteration
                : *stamped != result->iteration)) {
        return std::nullopt;
    }
    state.restore(buffer.data(), buffer.size(), result->iteration, pinned);
    result->load_time = watch.elapsed();
    return result;
}

#endif  // !PCCHECK_MC

}  // namespace pccheck
