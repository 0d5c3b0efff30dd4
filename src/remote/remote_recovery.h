#ifndef PCCHECK_REMOTE_REMOTE_RECOVERY_H_
#define PCCHECK_REMOTE_REMOTE_RECOVERY_H_

/**
 * @file
 * Replica-aware recovery (docs/REPLICATION.md §recovery).
 *
 * recover_latest() runs the RecoveryPlanner (core/recovery_planner.h)
 * over the local CHECK_ADDR records and the peers' replicas, ranked
 * together, with quarantine on and salvage off. When the local media
 * holds nothing valid — the node_loss fault action wipes it to zeros,
 * so even the SlotStore header is gone — it queries every surviving
 * peer's ReplicaStore for its newest quorum-complete counter and
 * restores that image over the network, preferring the highest counter
 * and breaking ties by the fastest modeled path
 * (SimNetwork::estimate_transfer). The restored counter is always >=
 * the surviving replicas' durable-publish watermark, which is the
 * replication tier's recovery guarantee.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "core/recovery.h"
#include "net/network.h"
#include "remote/replication.h"
#include "storage/device.h"
#include "util/clock.h"

namespace pccheck {

/** recover_latest outcome: where the bytes came from. */
struct RemoteRecoveryResult {
    RecoveryResult result;
    bool from_replica = false;  ///< true = restored over the network
    int source_node = -1;       ///< peer that served the image (-1 local)
};

/**
 * Restore the newest checkpoint reachable from @p self_node.
 *
 * @param local_device this node's checkpoint media (nullptr = lost)
 * @param network      cluster fabric (path costs + byte movement)
 * @param self_node    the recovering node's id (NIC must be alive)
 * @param peers        replica stores to fall back to
 * @param out          receives the checkpoint image
 * @param fetch_timeout deadline per remote fetch attempt
 * @param clock        time source for load-time accounting
 * @return std::nullopt when neither local media nor any peer holds a
 *         valid checkpoint.
 */
std::optional<RemoteRecoveryResult> recover_latest(
    StorageDevice* local_device, SimNetwork& network, int self_node,
    const std::vector<ReplicaPeer>& peers, std::vector<std::uint8_t>* out,
    Seconds fetch_timeout = 1.0,
    const Clock& clock = MonotonicClock::instance());

}  // namespace pccheck

#endif  // PCCHECK_REMOTE_REMOTE_RECOVERY_H_
