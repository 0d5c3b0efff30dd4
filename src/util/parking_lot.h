#ifndef PCCHECK_UTIL_PARKING_LOT_H_
#define PCCHECK_UTIL_PARKING_LOT_H_

/**
 * @file
 * Park/wake for the takers of a lock-free pool.
 *
 * The checkpoint path hands out free slots and staging buffers from
 * lock-free queues (Listing 1). A taker that finds its queue empty
 * must wait until someone returns an item — the §3.2 backpressure.
 * ParkingLot makes that wait block on a CondVar, so a stalled
 * snapshot thread costs no CPU:
 *
 *   // taker
 *   const std::uint32_t slot =
 *       lot_.take([this] { return queue_->try_dequeue(); });
 *
 *   // every path that returns an item
 *   while (!queue_->try_enqueue(slot)) { ... }
 *   lot_.wake();
 *
 * The queue stays the only owner of the items; the lot only orders
 * "found it empty, go to sleep" against "put one back, wake up". A
 * taker re-checks the queue under the lot's mutex before it sleeps,
 * and wake() notifies under that mutex after the put. Either the put
 * lands before the re-check, which then sees it, or the taker is
 * already asleep when the notify comes: no wakeup is lost, so no
 * timeout is needed. A take() whose first try finds an item takes no
 * lock.
 *
 * Under -DPCCHECK_MC the Mutex and CondVar are the model checker's
 * cooperative shims, so a put without its wake() shows up as a
 * deadlock (docs/MODEL_CHECKING.md).
 */

#include <type_traits>

#include "util/annotations.h"

namespace pccheck {

/** Parks takers of a lock-free pool until a producer wakes them. */
class ParkingLot {
  public:
    ParkingLot() = default;
    ParkingLot(const ParkingLot&) = delete;
    ParkingLot& operator=(const ParkingLot&) = delete;

    /**
     * Return the first item @p try_take yields, parking while it
     * yields none. @p try_take returns a std::optional and must not
     * block: it is also called with the lot's mutex held.
     */
    template <typename TryTake>
    auto take(TryTake&& try_take) ->
        typename std::invoke_result_t<TryTake&>::value_type
    {
        if (auto item = try_take()) {
            return *item;
        }
        MutexLock lock(mu_);
        for (;;) {
            if (auto item = try_take()) {
                return *item;
            }
            cv_.wait(mu_);
        }
    }

    /**
     * Wake every parked taker. Call after each put into the pool.
     * Notifies under the mutex, so a taker cannot return (and its
     * owner destroy the lot) while the notify is still running.
     */
    void wake()
    {
        MutexLock lock(mu_);
        cv_.notify_all();
    }

  private:
    Mutex mu_;
    CondVar cv_;
};

}  // namespace pccheck

#endif  // PCCHECK_UTIL_PARKING_LOT_H_
