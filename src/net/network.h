#ifndef PCCHECK_NET_NETWORK_H_
#define PCCHECK_NET_NETWORK_H_

/**
 * @file
 * In-process simulated cluster network.
 *
 * Replaces the inter-VM network (DESIGN.md §1). Each node has an
 * ingress and an egress NIC channel modeled with bandwidth throttles;
 * every transfer additionally pays a propagation latency. The paper's
 * Gemini analysis hinges on the measured 15 Gbps (1.88 GB/s) VM NIC
 * bandwidth — that is the default here.
 *
 * Two facilities:
 *  - bulk transfer(): blocking, bandwidth-paced byte movement (Gemini
 *    checkpoint traffic, pipeline activations); transfer_for() is the
 *    deadline-bounded variant replication uses so a dead peer costs
 *    the ack timeout, never a hang;
 *  - small control messages via per-node mailboxes (checkpoint-ID
 *    consensus in distributed PCcheck).
 *
 * Node NICs can be killed (node_loss faults) and revived; transfers
 * touching a dead NIC black-hole their bytes. A FaultInjector can be
 * attached to evaluate the "net.transfer" fault point on every
 * deadline-bounded transfer (drop / stall schedules).
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "util/annotations.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/throttle.h"
#include "util/validation.h"

namespace pccheck {

class FaultInjector;

/** Fault point evaluated on every deadline-bounded transfer. */
inline constexpr const char kFaultNetTransfer[] = "net.transfer";

/** Small control-plane message. */
struct NetMessage {
    int from = -1;
    std::uint64_t tag = 0;
    std::vector<std::uint8_t> payload;
};

/** Configuration of the simulated cluster fabric. */
struct NetworkConfig {
    int nodes = 1;
    /** Per-node NIC bandwidth, bytes/sec (paper GCP: 15 Gbps). */
    double nic_bytes_per_sec = 1.88e9;
    /** One-way propagation latency, seconds. */
    Seconds latency = 100e-6;

    /** Range checks; see util/validation.h. */
    [[nodiscard]] ConfigDiagnostics validate() const;
};

/** Simulated cluster network; thread safe. */
class SimNetwork {
  public:
    explicit SimNetwork(const NetworkConfig& config,
                        const Clock& clock = MonotonicClock::instance());

    int nodes() const { return config_.nodes; }
    const NetworkConfig& config() const { return config_; }

    /**
     * Blocking bulk transfer of @p len bytes from @p from to @p to,
     * paying sender-egress and receiver-ingress bandwidth plus
     * latency. Returns the modeled transfer time in seconds.
     */
    Seconds transfer(int from, int to, Bytes len);

    /**
     * Deadline-bounded bulk transfer, mirroring recv_msg_for: moves
     * @p len bytes unless the bytes cannot be delivered and acked
     * within @p timeout (modeled) seconds. Failure modes — a dead
     * endpoint NIC, an injected "net.transfer" drop, or bandwidth so
     * contended the deadline passes mid-flight — all cost the caller
     * the full timeout (the ack never arrives earlier than the
     * deadline), never a hang. Returns the modeled transfer time on
     * success, std::nullopt on expiry. This is the only primitive the
     * replication tier uses to move checkpoint bytes.
     */
    std::optional<Seconds> transfer_for(int from, int to, Bytes len,
                                        Seconds timeout);

    /**
     * Attach a fault injector whose "net.transfer" point is evaluated
     * on every transfer_for() (drop / stall / transient schedules —
     * see FaultPlan). Plain transfer() keeps its always-succeeds
     * blocking contract and is not instrumented. Call during setup,
     * before transfers begin.
     */
    void set_fault_injector(std::shared_ptr<FaultInjector> injector);

    /**
     * Kill @p node's NIC: every subsequent transfer_for touching it
     * times out and its control messages are black-holed. Together
     * with FaultyStorage::kill() this models the node_loss fault
     * action (full-node failure).
     */
    void kill_node(int node);

    /** Bring a NIC back up (a replacement machine joining as @p node). */
    void revive_node(int node);

    /** True while @p node's NIC is up. */
    bool alive(int node) const;

    /** Override one node's NIC bandwidth (egress and ingress). */
    void set_node_bandwidth(int node, double bytes_per_sec);

    /**
     * Modeled lower-bound cost of moving @p len bytes @p from → @p to
     * on an idle fabric: latency plus egress and ingress
     * serialization. Infinite when either NIC is dead. Replica-aware
     * recovery uses this to pick the fastest peer path.
     */
    Seconds estimate_transfer(int from, int to, Bytes len) const;

    /** Post a control message into @p to's mailbox (pays latency only). */
    void send_msg(int from, int to, std::uint64_t tag,
                  std::vector<std::uint8_t> payload = {});

    /** Blocking receive from this node's mailbox. */
    NetMessage recv_msg(int node);

    /**
     * Receive with a deadline: blocks until a message arrives or
     * @p timeout (modeled) seconds elapse, returning std::nullopt on
     * expiry. The timeout is measured against the network's clock, so
     * scaled-clock experiments time out at the modeled rate. This is
     * what lets a surviving rank detect a dead peer instead of hanging
     * forever in coordination.
     */
    std::optional<NetMessage> recv_msg_for(int node, Seconds timeout);

    /** Non-blocking receive; false when the mailbox is empty. */
    bool try_recv_msg(int node, NetMessage* out);

    /** Total bytes moved through the fabric (monitoring). */
    Bytes bytes_moved() const;

    /** Bytes @p node delivered as the sender: its egress share of
     *  bytes_moved() (monitoring). */
    Bytes bytes_sent_by(int node) const;

  private:
    struct Mailbox {
        Mutex mu;
        CondVar cv;
        std::deque<NetMessage> messages PCCHECK_GUARDED_BY(mu);
    };

    void check_node(int node) const;

    /**
     * Pay sender-egress, then receiver-ingress bandwidth for @p len
     * bytes. Each NIC throttle paces in quantum-sized turns, so
     * concurrent transfers on one NIC share it instead of queueing
     * FIFO, and a lone transfer ends where one whole reservation would.
     */
    void pay_bandwidth(int from, int to, Bytes len);

    /** Count @p len delivered bytes sent by @p from. */
    void count_delivered(int from, Bytes len);

    NetworkConfig config_;
    const Clock& clock_;
    std::vector<std::unique_ptr<BandwidthThrottle>> egress_;
    std::vector<std::unique_ptr<BandwidthThrottle>> ingress_;
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    /** Per-node NIC liveness; heap cells because atomics don't move. */
    std::vector<std::unique_ptr<std::atomic<bool>>> nic_up_;
    /** Per-node delivered egress bytes; heap cells like nic_up_. */
    std::vector<std::unique_ptr<std::atomic<Bytes>>> sent_;
    /** Set once during setup (set_fault_injector), read by transfers. */
    std::shared_ptr<FaultInjector> injector_;
    std::atomic<Bytes> bytes_moved_{0};
};

}  // namespace pccheck

#endif  // PCCHECK_NET_NETWORK_H_
