#ifndef PCCHECK_FAULTS_FAULT_H_
#define PCCHECK_FAULTS_FAULT_H_

/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * The checkpoint path is instrumented with named fault points
 * ("storage.write", "storage.persist", ...). A FaultPlan is a list of
 * rules — which point, what action, on what schedule — and a
 * FaultInjector evaluates the plan at every op, entirely driven by a
 * seed and a global op counter. Same plan + same seed + same op order
 * → exactly the same faults, which is what makes sweep failures
 * replayable (`--seed=N` reproduces the run bit for bit).
 *
 * Actions model the failure taxonomy of the persist path:
 *  - transient: one-shot retryable error (EIO under pressure);
 *  - permanent: non-retryable error (device gone) — escalates to a
 *    checkpoint-attempt abort upstream;
 *  - stall:     the op succeeds but takes extra wall time (tail
 *    latency / a competing flush);
 *  - drop:      network: the bytes vanish in flight, the sender only
 *    learns at the ack deadline (SimNetwork::transfer_for);
 *  - node_loss: fires the registered node-loss handler, which
 *    atomically kills one rank's storage (FaultyStorage::kill) and
 *    NIC (SimNetwork::kill_node) — the full-node failure replica
 *    recovery exists for;
 *  - kill_tenant=ID / kill_backend=IDX: multi-tenant service faults
 *    (docs/SERVICE.md): fire the registered handler with the target
 *    id, which detaches one tenant / fails one storage shard
 *    mid-storm; the instrumented op itself proceeds.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/status.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace pccheck {

/** What a firing rule does to the instrumented op. */
enum class FaultAction {
    kTransient,  ///< return a retryable error
    kPermanent,  ///< return a non-retryable error
    kStall,      ///< delay the op, then let it succeed
    kDrop,       ///< network: bytes vanish in flight (retryable error)
    kNodeLoss,   ///< invoke the node-loss handler, op then fails
    kBitflip,    ///< read path: XOR a byte mask into the data (bit rot)
    kUnreadable, ///< read path: sector unreadable (permanent error)
    kKillTenant, ///< invoke the kill-tenant handler, op proceeds
    kKillBackend,///< invoke the kill-backend handler, op proceeds
};

/** When a rule fires, relative to the injector's global op counter. */
enum class FaultTrigger {
    kNthOp,       ///< exactly op index n (1-based)
    kEveryNthOp,  ///< every n-th op (n, 2n, 3n, ...)
    kProbability, ///< independently per op with probability p
    kOpWindow,    ///< every op with index in [lo, hi] (1-based, incl.)
};

/** One fault rule: point filter + action + schedule. */
struct FaultRule {
    /** Fault-point name to match; "*" matches every point. */
    std::string point = "*";
    FaultAction action = FaultAction::kTransient;
    /** Stall duration (seconds); kStall only. */
    double stall_seconds = 0.0;
    FaultTrigger trigger = FaultTrigger::kNthOp;
    /** kNthOp index or kEveryNthOp period (1-based). */
    std::uint64_t nth = 1;
    /** kProbability per-op chance in [0,1]. */
    double probability = 0.0;
    /** kOpWindow bounds, 1-based inclusive. */
    std::uint64_t window_lo = 0;
    std::uint64_t window_hi = 0;
    /** Max firings; 0 = unlimited. */
    std::uint64_t limit = 0;
    /** kBitflip byte mask XORed into the read data (non-zero). */
    std::uint8_t bitflip_mask = 0;
    /** kKillTenant tenant id / kKillBackend shard index. */
    std::uint64_t target = 0;
};

/**
 * Ordered list of fault rules. The first rule that matches and fires
 * wins for a given op.
 */
class FaultPlan {
  public:
    FaultPlan() = default;

    /**
     * Parse a plan from a compact spec — rules joined by ';', each
     *
     *     point:action[=arg]@trigger[,limit=N]
     *
     * with action one of `transient`, `permanent`, `stall=SECONDS`,
     * `drop`, `node_loss`, `bitflip=MASK` (byte mask, decimal or
     * 0x-hex, read points only), `unreadable` (read points only),
     * `kill_tenant=ID` or `kill_backend=IDX`, and trigger one of
     * `nth=N`, `every=N`, `p=P`, `window=LO-HI`.
     * Examples:
     *
     *     storage.persist:transient@p=0.01
     *     storage.write:stall=0.005@every=100,limit=3
     *     net.transfer:drop@p=0.02
     *     net.transfer:stall=0.001@every=10
     *     *:node_loss@nth=900,limit=1
     *     storage.read:bitflip=0x04@nth=7,limit=1
     *     storage.read:unreadable@p=0.05
     *     *:kill_tenant=7@nth=500,limit=1
     *     *:kill_backend=1@nth=800,limit=1
     *
     * Calls fatal() on malformed specs.
     */
    static FaultPlan parse(const std::string& spec);

    FaultPlan& add(FaultRule rule)
    {
        rules_.push_back(std::move(rule));
        return *this;
    }

    const std::vector<FaultRule>& rules() const { return rules_; }
    bool empty() const { return rules_.empty(); }

  private:
    std::vector<FaultRule> rules_;
};

/**
 * Full result of evaluating one op: the injected status plus read-path
 * data corruption. A non-zero @p bitflip_mask means the op succeeded
 * but the bytes it returned are rotted — the decorator XORs the mask
 * into the data it hands back (silent corruption; only CRC
 * verification downstream can notice).
 */
struct FaultOutcome {
    StorageStatus status = StorageStatus::success();
    std::uint8_t bitflip_mask = 0;
};

/**
 * Evaluates a FaultPlan at every instrumented op. Thread safe; with
 * serialized ops the firing sequence is a pure function of (plan,
 * seed). The global op counter advances on every on_op() call whether
 * or not a rule fires, so "fail op N" addresses a well-defined point
 * in the storage-op stream.
 */
class FaultInjector {
  public:
    explicit FaultInjector(std::uint64_t seed = 1, FaultPlan plan = {});

    /** Replace the plan (e.g. arm faults only after formatting). */
    void set_plan(FaultPlan plan);

    /**
     * Handler invoked (outside the injector lock) by kNodeLoss rules.
     * The harness wires it to kill one rank's storage and NIC in one
     * step, so the loss is atomic from the checkpoint path's view.
     */
    void set_node_loss_handler(std::function<void()> handler);

    /**
     * Handler invoked (outside the injector lock) by kKillTenant
     * rules with the rule's target tenant id. The CheckpointService
     * wires it to detach that tenant mid-storm (docs/SERVICE.md).
     */
    void set_kill_tenant_handler(
        std::function<void(std::uint64_t)> handler);

    /**
     * Handler invoked (outside the injector lock) by kKillBackend
     * rules with the rule's target shard index — one storage backend
     * of the sharded service fails while the rest keep serving.
     */
    void set_kill_backend_handler(
        std::function<void(std::uint64_t)> handler);

    /**
     * Evaluate one op at fault point @p point (a literal with static
     * lifetime; it is kept as error context). Returns the injected
     * error, or success — after applying any stall and firing any
     * handler.
     */
    StorageStatus on_op(const char* point);

    /**
     * Like on_op() but also reports read-path data corruption
     * (kBitflip). Read-instrumented decorators call this; write-path
     * points keep the plain on_op(). Both share the single global op
     * counter, so "lose the node at op N" and "rot the read at op N"
     * address the same interleaved op stream.
     */
    FaultOutcome on_op_full(const char* point);

    /** Total ops observed. */
    std::uint64_t ops() const;
    /** Total rule firings (all actions). */
    std::uint64_t injected() const;
    /** kNodeLoss firings. */
    std::uint64_t node_losses() const;
    /** kKillTenant firings. */
    std::uint64_t tenant_kills() const;
    /** kKillBackend firings. */
    std::uint64_t backend_kills() const;

  private:
    mutable Mutex mu_;
    FaultPlan plan_ PCCHECK_GUARDED_BY(mu_);
    Rng rng_ PCCHECK_GUARDED_BY(mu_);
    std::uint64_t op_index_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t injected_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t node_losses_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t tenant_kills_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t backend_kills_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::vector<std::uint64_t> fired_ PCCHECK_GUARDED_BY(mu_);
    std::function<void()> node_loss_handler_ PCCHECK_GUARDED_BY(mu_);
    std::function<void(std::uint64_t)> kill_tenant_handler_
        PCCHECK_GUARDED_BY(mu_);
    std::function<void(std::uint64_t)> kill_backend_handler_
        PCCHECK_GUARDED_BY(mu_);
};

}  // namespace pccheck

#endif  // PCCHECK_FAULTS_FAULT_H_
