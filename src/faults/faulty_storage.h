#ifndef PCCHECK_FAULTS_FAULTY_STORAGE_H_
#define PCCHECK_FAULTS_FAULTY_STORAGE_H_

/**
 * @file
 * Fault-injecting decorator around any StorageDevice.
 *
 * Routes every read/write/persist/fence through a FaultInjector fault
 * point before delegating to the inner device. An injected error is
 * returned without touching the inner device (the op never happened,
 * matching a failed syscall); stalls and kill triggers let the op
 * proceed after the side effect. The read path additionally models
 * media decay: an `unreadable` rule fails the read with a permanent
 * error (bad sector) and a `bitflip=MASK` rule lets the read succeed
 * but XORs the mask into the first returned byte (silent bit rot only
 * CRC verification can catch).
 *
 * Stacks with the other decorators, e.g.
 * FaultyStorage(ThrottledStorage(CrashSimStorage)) gives bandwidth
 * modeling + adversarial crash images + fault schedules in one device.
 *
 * kill() puts the decorator into dead-node mode — the storage half of
 * the node_loss fault action: every write-path op returns a permanent
 * error and reads see zeros, so a local CHECK_ADDR recovery scan finds
 * nothing valid and replica-aware recovery must take over.
 */

#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "faults/fault.h"
#include "storage/device.h"

namespace pccheck {

/** Fault-point names used by FaultyStorage (static lifetime). */
inline constexpr const char kFaultStorageRead[] = "storage.read";
inline constexpr const char kFaultStorageWrite[] = "storage.write";
inline constexpr const char kFaultStoragePersist[] = "storage.persist";
inline constexpr const char kFaultStorageFence[] = "storage.fence";
/** Error context reported by a killed device. */
inline constexpr const char kFaultStorageDead[] = "storage.node_loss";

/** Device decorator that evaluates a FaultInjector on the write path. */
class FaultyStorage final : public StorageDevice {
  public:
    /**
     * @param inner decorated device (owned)
     * @param injector shared fault injector — the harness keeps its
     *        own reference to set plans and handlers mid-run
     */
    FaultyStorage(std::unique_ptr<StorageDevice> inner,
                  std::shared_ptr<FaultInjector> injector);

    Bytes size() const override { return inner_->size(); }
    StorageStatus write(Bytes offset, const void* src, Bytes len) override;
    StorageStatus read(Bytes offset, void* dst, Bytes len) const override;
    StorageStatus persist(Bytes offset, Bytes len) override;
    StorageStatus fence() override;
    StorageKind kind() const override { return inner_->kind(); }
    void set_observe_hook(
        std::function<void(const StorageOp&)> hook) override
    {
        inner_->set_observe_hook(std::move(hook));
    }

    StorageDevice& inner() { return *inner_; }
    FaultInjector& injector() { return *injector_; }

    /**
     * Dead-node mode (node_loss): all future write-path ops fail with
     * a permanent error; reads fill zeros. Irreversible — a lost
     * node's media does not come back.
     */
    void kill();

    bool dead() const
    {
        // relaxed: liveness flag; the op that raced past it behaves as
        // if issued just before the loss.
        return dead_.load(std::memory_order_relaxed);
    }

  private:
    std::unique_ptr<StorageDevice> inner_;
    std::shared_ptr<FaultInjector> injector_;
    std::atomic<bool> dead_{false};
};

}  // namespace pccheck

#endif  // PCCHECK_FAULTS_FAULTY_STORAGE_H_
