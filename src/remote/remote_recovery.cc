#include "remote/remote_recovery.h"

#include "core/recovery_planner.h"
#include "remote/replica_source.h"
#include "util/check.h"
#include "util/logging.h"

namespace pccheck {

std::optional<RemoteRecoveryResult>
recover_latest(StorageDevice* local_device, SimNetwork& network,
               int self_node, const std::vector<ReplicaPeer>& peers,
               std::vector<std::uint8_t>* out, Seconds fetch_timeout,
               const Clock& clock)
{
    PCCHECK_CHECK(out != nullptr);
    // Delegate to the planner: local slot candidates and peer replica
    // versions ranked together (counter desc, modeled cost asc), so a
    // healthy local arena wins ties at zero cost and a wiped one falls
    // through to the replica tier. Salvage is off, so the local media
    // never receives a replica's image (callers that want write-back
    // recovery construct a RecoveryPlanner directly). Quarantine stays
    // on: a torn or unreadable newest local slot is durably
    // quarantined, so the caller must be the only writer on
    // @p local_device (core/recovery_planner.h).
    RecoveryPlanner::Options options;
    options.salvage = false;
    RecoveryPlanner planner(local_device, options, clock);
    ReplicaRecoverySource replicas(network, self_node, peers,
                                   fetch_timeout);
    planner.add_source(&replicas);
    const auto planned = planner.recover(out);
    if (!planned.has_value()) {
        return std::nullopt;
    }
    if (planned->from_replica) {
        LOG_INFO("pccheck: restored checkpoint counter "
                 << planned->result.counter << " from replica on node "
                 << planned->source_node);
    }
    RemoteRecoveryResult result;
    result.result = planned->result;
    result.from_replica = planned->from_replica;
    result.source_node = planned->source_node;
    return result;
}

}  // namespace pccheck
