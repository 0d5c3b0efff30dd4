#ifndef PCCHECK_MC_SHIM_H_
#define PCCHECK_MC_SHIM_H_

/**
 * @file
 * Instrumented synchronization primitives for -DPCCHECK_MC builds.
 *
 * pccheck::Atomic<T> (util/sync.h) and pccheck::Mutex/MutexLock/
 * CondVar (util/annotations.h) alias these types under the checker,
 * so src/core/ runs unchanged while every synchronization operation
 * becomes a scheduler-visible event:
 *
 *  - mc::Atomic<T> stores a plain T and reports each non-relaxed
 *    operation to mc::Scheduler BEFORE executing it (the schedule
 *    point), making the operation's placement in the global order a
 *    strategy decision. Relaxed operations (stat counters, by
 *    convention — see the relaxed-justification lint rule) execute
 *    without a schedule point.
 *  - mc::Mutex is a cooperative lock over a plain bool: acquisition
 *    of a held mutex blocks the model thread in the scheduler;
 *    uncontended acquisition takes no schedule point.
 *  - mc::CondVar is generation-counter based: wait() records the
 *    counter, releases the mutex, blocks until a notify bumps it
 *    (spurious wakeups permitted, like the real one).
 *
 * Outside a scheduled execution (driver threads: model setup,
 * teardown, crash-image recovery) every operation falls through to
 * plain non-atomic access, which is safe because driver code is
 * single-threaded by construction.
 *
 * Plain T (not std::atomic<T>) is deliberate: the scheduler
 * serializes the execution so there are no data races, and torn reads
 * would mask checker bugs rather than find product ones.
 */

#include <cstdint>

#include "mc/scheduler.h"
#include "util/clock.h"
#include "util/tsa.h"

#include <atomic>  // std::memory_order only; no std::atomic storage here

namespace pccheck::mc {

namespace detail {

/** Schedule point before a non-relaxed operation; no-op on driver
 *  threads and for relaxed orders. */
inline void sync_point(std::memory_order order)
{
    // relaxed: order comparison only — relaxed operations are not
    // schedule points by design (docs/MODEL_CHECKING.md).
    if (order == std::memory_order_relaxed) {
        return;
    }
    if (Scheduler* s = Scheduler::current()) {
        s->atomic_point();
    }
}

}  // namespace detail

/**
 * Drop-in std::atomic<T> replacement whose non-relaxed operations are
 * schedule points. Same member signatures as the std::atomic subset
 * PCcheck uses (load/store/exchange/fetch_add/fetch_sub/CAS).
 */
template <typename T>
class Atomic {
  public:
    Atomic() noexcept = default;
    constexpr Atomic(T desired) noexcept : value_(desired) {}  // NOLINT
    Atomic(const Atomic&) = delete;
    Atomic& operator=(const Atomic&) = delete;

    T load(std::memory_order order = std::memory_order_seq_cst) const
    {
        detail::sync_point(order);
        return value_;
    }

    void store(T desired, std::memory_order order = std::memory_order_seq_cst)
    {
        detail::sync_point(order);
        value_ = desired;
    }

    T exchange(T desired, std::memory_order order = std::memory_order_seq_cst)
    {
        detail::sync_point(order);
        T old = value_;
        value_ = desired;
        return old;
    }

    T fetch_add(T arg, std::memory_order order = std::memory_order_seq_cst)
    {
        detail::sync_point(order);
        T old = value_;
        value_ = static_cast<T>(value_ + arg);
        return old;
    }

    T fetch_sub(T arg, std::memory_order order = std::memory_order_seq_cst)
    {
        detail::sync_point(order);
        T old = value_;
        value_ = static_cast<T>(value_ - arg);
        return old;
    }

    bool compare_exchange_strong(
        T& expected, T desired,
        std::memory_order success = std::memory_order_seq_cst,
        std::memory_order failure = std::memory_order_seq_cst)
    {
        (void)failure;
        detail::sync_point(success);
        if (value_ == expected) {
            value_ = desired;
            return true;
        }
        expected = value_;
        return false;
    }

    /** Weak CAS never fails spuriously under the checker: spurious
     *  failure is a retry-loop liveness concern, not an ordering one,
     *  and determinism matters more for replay. */
    bool compare_exchange_weak(
        T& expected, T desired,
        std::memory_order success = std::memory_order_seq_cst,
        std::memory_order failure = std::memory_order_seq_cst)
    {
        return compare_exchange_strong(expected, desired, success, failure);
    }

    operator T() const { return load(); }  // NOLINT
    T operator=(T desired)                 // NOLINT
    {
        store(desired);
        return desired;
    }

  private:
    T value_{};
};

/** Cooperative mutex: blocks the model thread in the scheduler when
 *  contended; plain bool flag on driver threads. */
class PCCHECK_CAPABILITY("mutex") Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() PCCHECK_ACQUIRE()
    {
        if (Scheduler* s = Scheduler::current()) {
            s->mutex_acquire(&held_);
        } else {
            held_ = true;
        }
    }

    void unlock() PCCHECK_RELEASE()
    {
        if (Scheduler* s = Scheduler::current()) {
            s->mutex_release(&held_);
        } else {
            held_ = false;
        }
    }

    bool try_lock() PCCHECK_TRY_ACQUIRE(true)
    {
        if (held_) {
            return false;
        }
        held_ = true;
        return true;
    }

  private:
    bool held_ = false;
    friend class CondVar;
};

/** RAII lock over mc::Mutex (mirror of the production MutexLock). */
class PCCHECK_SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex& mu) PCCHECK_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() PCCHECK_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

  private:
    Mutex& mu_;
};

/** Generation-counter condition variable over mc::Mutex. */
class CondVar {
  public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void wait(Mutex& mu) PCCHECK_REQUIRES(mu)
    {
        if (Scheduler* s = Scheduler::current()) {
            s->cond_wait(&mu.held_, &generation_, generation_);
        }
        // Driver threads are single-threaded: waiting would deadlock,
        // and the predicates they wait on are already satisfied.
    }

    /** Timed wait: under the checker time is logical, so this is a
     *  plain wait that reports "notified". */
    bool wait_for(Mutex& mu, double seconds) PCCHECK_REQUIRES(mu)
    {
        (void)seconds;
        wait(mu);
        return true;
    }

    void notify_one() { notify_all(); }

    void notify_all()
    {
        ++generation_;
        if (Scheduler* s = Scheduler::current()) {
            s->cond_notify(&generation_);
        }
    }

  private:
    std::uint64_t generation_ = 0;
};

/**
 * Deterministic clock for modeled code. now() advances by a fixed
 * quantum per call (timestamps stay ordered and replayable);
 * sleep_for() is the backoff of the slot recycle's retry while the
 * free-slot queue is transiently full (a dequeuer holds a claimed
 * cell). Under the checker that retry must hand the CPU to the
 * dequeuer instead of burning steps, so it maps to the scheduler's
 * forced-fairness yield. begin() does not sleep: it parks on a
 * ParkingLot, whose CondVar wait is a blocking schedule point.
 */
class McClock : public Clock {
  public:
    double now() const override
    {
        ticks_ += 1;
        return static_cast<double>(ticks_) * 1e-9;
    }

    void sleep_for(double seconds) const override
    {
        (void)seconds;
        ticks_ += 1;
        if (Scheduler* s = Scheduler::current()) {
            s->yield_point();
        }
    }

  private:
    mutable std::uint64_t ticks_ = 0;
};

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_SHIM_H_
