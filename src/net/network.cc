#include "net/network.h"

#include <cmath>
#include <limits>
#include <utility>

#include "faults/fault.h"
#include "util/check.h"

namespace pccheck {

namespace {

/** NIC turn size: concurrent transfers on one NIC interleave at this
 *  granularity, so a small transfer is never stuck behind a whole bulk
 *  one, while the per-turn mutex/cursor cost stays negligible. Equal to
 *  ReplicationConfig::chunk_bytes' default, so every replication
 *  sub-chunk is one turn. */
constexpr Bytes kNetShareQuantum = 256 * kKiB;

}  // namespace

ConfigDiagnostics
NetworkConfig::validate() const
{
    ConfigDiagnostics diag;
    if (nodes < 1) {
        diag.error("nodes", "must be >= 1");
    }
    if (!std::isfinite(nic_bytes_per_sec) || nic_bytes_per_sec < 0) {
        diag.error("nic_bytes_per_sec", "must be finite and >= 0");
    }
    if (!std::isfinite(latency) || latency < 0) {
        diag.error("latency", "must be finite and >= 0");
    }
    return diag;
}

SimNetwork::SimNetwork(const NetworkConfig& config, const Clock& clock)
    : config_(config), clock_(clock)
{
    config.validate().check("NetworkConfig");
    egress_.reserve(config.nodes);
    ingress_.reserve(config.nodes);
    mailboxes_.reserve(config.nodes);
    nic_up_.reserve(config.nodes);
    sent_.reserve(config.nodes);
    for (int i = 0; i < config.nodes; ++i) {
        egress_.push_back(std::make_unique<BandwidthThrottle>(
            config.nic_bytes_per_sec, clock, kNetShareQuantum));
        ingress_.push_back(std::make_unique<BandwidthThrottle>(
            config.nic_bytes_per_sec, clock, kNetShareQuantum));
        mailboxes_.push_back(std::make_unique<Mailbox>());
        nic_up_.push_back(std::make_unique<std::atomic<bool>>(true));
        sent_.push_back(std::make_unique<std::atomic<Bytes>>(0));
    }
}

void
SimNetwork::pay_bandwidth(int from, int to, Bytes len)
{
    (void)egress_[from]->acquire(len);
    (void)ingress_[to]->acquire(len);
}

void
SimNetwork::count_delivered(int from, Bytes len)
{
    // relaxed: monitoring counters, no ordering with transfers needed.
    bytes_moved_.fetch_add(len, std::memory_order_relaxed);
    sent_[from]->fetch_add(len, std::memory_order_relaxed);
}

void
SimNetwork::check_node(int node) const
{
    PCCHECK_CHECK_MSG(node >= 0 && node < config_.nodes,
                      "invalid node id " << node);
}

Seconds
SimNetwork::transfer(int from, int to, Bytes len)
{
    check_node(from);
    check_node(to);
    Stopwatch watch(clock_);
    clock_.sleep_for(config_.latency);
    if (from != to) {
        pay_bandwidth(from, to, len);
    }
    count_delivered(from, len);
    return watch.elapsed();
}

std::optional<Seconds>
SimNetwork::transfer_for(int from, int to, Bytes len, Seconds timeout)
{
    check_node(from);
    check_node(to);
    Stopwatch watch(clock_);
    const Seconds deadline = clock_.now() + timeout;
    // Sleep out the remainder of the timeout: a failed transfer is
    // only *observed* at the ack deadline, so the caller always pays
    // exactly `timeout`, mirroring recv_msg_for's modeled-time expiry.
    const auto expire = [this, deadline]() -> std::optional<Seconds> {
        const Seconds remain = deadline - clock_.now();
        if (remain > 0) {
            clock_.sleep_for(remain);
        }
        return std::nullopt;
    };
    if (injector_ != nullptr &&
        !injector_->on_op(kFaultNetTransfer).ok()) {
        return expire();  // injected drop: the bytes vanish in flight
    }
    if (!alive(from) || !alive(to)) {
        return expire();  // dead NIC on either end: black hole
    }
    clock_.sleep_for(config_.latency);
    if (from != to) {
        pay_bandwidth(from, to, len);
    }
    if (!alive(to)) {
        return expire();  // receiver died mid-flight (node_loss)
    }
    if (clock_.now() > deadline) {
        return std::nullopt;  // delivered, but the ack deadline passed
    }
    count_delivered(from, len);
    return watch.elapsed();
}

void
SimNetwork::set_fault_injector(std::shared_ptr<FaultInjector> injector)
{
    injector_ = std::move(injector);
}

void
SimNetwork::kill_node(int node)
{
    check_node(node);
    // relaxed: liveness flag only routes traffic; transfers that raced
    // past the check complete as if the packet was already in flight.
    nic_up_[node]->store(false, std::memory_order_relaxed);
}

void
SimNetwork::revive_node(int node)
{
    check_node(node);
    // relaxed: see kill_node.
    nic_up_[node]->store(true, std::memory_order_relaxed);
}

bool
SimNetwork::alive(int node) const
{
    check_node(node);
    // relaxed: see kill_node.
    return nic_up_[node]->load(std::memory_order_relaxed);
}

void
SimNetwork::set_node_bandwidth(int node, double bytes_per_sec)
{
    check_node(node);
    egress_[node]->set_bytes_per_sec(bytes_per_sec);
    ingress_[node]->set_bytes_per_sec(bytes_per_sec);
}

Seconds
SimNetwork::estimate_transfer(int from, int to, Bytes len) const
{
    check_node(from);
    check_node(to);
    if (!alive(from) || !alive(to)) {
        return std::numeric_limits<Seconds>::infinity();
    }
    Seconds cost = config_.latency;
    if (from != to) {
        cost += egress_[from]->service_time(len) +
                ingress_[to]->service_time(len);
    }
    return cost;
}

void
SimNetwork::send_msg(int from, int to, std::uint64_t tag,
                     std::vector<std::uint8_t> payload)
{
    check_node(from);
    check_node(to);
    clock_.sleep_for(config_.latency);
    if (!alive(from) || !alive(to)) {
        return;  // dead NIC on either end: the message is black-holed
    }
    Mailbox& box = *mailboxes_[to];
    {
        MutexLock lock(box.mu);
        box.messages.push_back(NetMessage{from, tag, std::move(payload)});
    }
    box.cv.notify_one();
}

NetMessage
SimNetwork::recv_msg(int node)
{
    check_node(node);
    Mailbox& box = *mailboxes_[node];
    MutexLock lock(box.mu);
    while (box.messages.empty()) {
        box.cv.wait(box.mu);
    }
    NetMessage msg = std::move(box.messages.front());
    box.messages.pop_front();
    return msg;
}

std::optional<NetMessage>
SimNetwork::recv_msg_for(int node, Seconds timeout)
{
    check_node(node);
    Mailbox& box = *mailboxes_[node];
    // The deadline is in modeled time; the cv waits in short real-time
    // slices so a scaled clock's faster modeled progress is observed.
    constexpr Seconds kSlice = 500e-6;
    const Seconds deadline = clock_.now() + timeout;
    MutexLock lock(box.mu);
    while (box.messages.empty()) {
        if (clock_.now() >= deadline) {
            return std::nullopt;
        }
        box.cv.wait_for(box.mu, kSlice);
    }
    NetMessage msg = std::move(box.messages.front());
    box.messages.pop_front();
    return msg;
}

bool
SimNetwork::try_recv_msg(int node, NetMessage* out)
{
    check_node(node);
    Mailbox& box = *mailboxes_[node];
    MutexLock lock(box.mu);
    if (box.messages.empty()) {
        return false;
    }
    *out = std::move(box.messages.front());
    box.messages.pop_front();
    return true;
}

Bytes
SimNetwork::bytes_moved() const
{
    // relaxed: monitoring read; staleness is acceptable.
    return bytes_moved_.load(std::memory_order_relaxed);
}

Bytes
SimNetwork::bytes_sent_by(int node) const
{
    check_node(node);
    // relaxed: monitoring read; staleness is acceptable.
    return sent_[node]->load(std::memory_order_relaxed);
}

}  // namespace pccheck
