#ifndef PCCHECK_MC_SCHEDULER_H_
#define PCCHECK_MC_SCHEDULER_H_

/**
 * @file
 * Cooperative scheduler for the PCcheck model checker.
 *
 * The checker runs the real Listing-1 code (ConcurrentCommit,
 * FreeSlotQueue, SlotStore) compiled against the mc::Atomic /
 * mc::Mutex shim (src/mc/shim.h). Every shim operation is a
 * *schedule point*: the thread that reaches it parks on a handshake
 * and a Strategy decides which model thread runs next. At most one
 * model thread executes at any instant — the execution is fully
 * serialized, so the exploration is deterministic and every explored
 * interleaving can be replayed from its recorded choice sequence
 * (see token.h).
 *
 * Model threads are real OS threads blocked on a condition variable
 * rather than fibers: sanitizers and thread_local-based subsystems
 * (the span tracer) work unmodified, and the handshake guarantees the
 * serialization a fiber design would give.
 *
 * Schedule-point policy (documented in docs/MODEL_CHECKING.md):
 *  - every non-relaxed atomic load/store/RMW/CAS yields BEFORE the
 *    operation executes;
 *  - std::memory_order_relaxed operations run without yielding by
 *    default (they are monitoring counters by lint-enforced
 *    convention; Options::schedule_relaxed includes them);
 *  - acquiring an uncontended mc::Mutex does not yield (critical
 *    sections contain no schedule points of their own, so acquisition
 *    order is already decided at the preceding atomic point);
 *    acquiring a HELD mutex blocks the thread until unlock;
 *  - a yield point (McClock::sleep_for, the backoff of a slot
 *    recycle retrying a transiently full queue) is a forced-fairness
 *    point: the scheduler must switch to another enabled thread when
 *    one exists, and the DFS explorer does not branch there.
 *
 * A model thread signals an invariant violation by throwing
 * mc::Violation; the scheduler aborts the execution (remaining
 * threads unwind via mc::ExecutionAborted at their next schedule
 * point) and reports the violation with the choice trace that
 * produced it.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pccheck::mc {

/** Thrown by model code when a checked invariant does not hold. */
struct Violation {
    std::string message;
};

/** Internal unwind signal for threads of an aborted execution. */
struct ExecutionAborted {};

/** Picks the next thread to run at each schedule point. */
class Strategy {
  public:
    virtual ~Strategy() = default;

    /**
     * @param current thread leaving the schedule point (-1 at the
     *        initial pick before any thread has run)
     * @param enabled bitmask of runnable threads (never 0)
     * @param yielding true when @p current reached a forced-fairness
     *        yield (spin-wait backoff): the strategy must not pick it
     *        again unless it is the only enabled thread
     * @param step 0-based index of this schedule point
     * @return the chosen thread (its bit must be set in @p enabled)
     */
    virtual int pick(int current, std::uint32_t enabled, bool yielding,
                     std::size_t step) = 0;
};

/** One explored execution: the schedule trace plus its outcome. */
struct RunResult {
    /** Thread chosen at each schedule point (the replay token body). */
    std::vector<std::uint8_t> choices;
    /** Enabled-thread bitmask observed at each point. */
    std::vector<std::uint32_t> enabled;
    /** Whether the point was a forced-fairness yield (no DFS branch). */
    std::vector<std::uint8_t> yielded;
    bool violated = false;
    std::string message;
    std::size_t steps = 0;
};

/** Serializing scheduler: runs model threads one at a time. */
class Scheduler {
  public:
    struct Options {
        /** Execution abandons with a livelock violation past this. */
        std::size_t max_steps = 100000;
        /** Treat relaxed atomic ops as schedule points too. */
        bool schedule_relaxed = false;
    };

    Scheduler();
    ~Scheduler();
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Run one execution of @p bodies under @p strategy. Blocks until
     * every model thread finished (or the execution aborted on a
     * violation/deadlock/step limit). Reentrant per object: each call
     * is an independent execution.
     */
    RunResult run(const std::vector<std::function<void()>>& bodies,
                  Strategy& strategy, const Options& opts);
    RunResult run(const std::vector<std::function<void()>>& bodies,
                  Strategy& strategy)
    {
        return run(bodies, strategy, Options());
    }

    /** Scheduler driving the calling model thread; null on driver
     *  threads (setup/teardown code runs unscheduled). */
    static Scheduler* current();

    /** Model-thread index of the caller, -1 on driver threads. */
    static int current_thread();

    // ---- called from the shim (model threads only) ----

    /** Schedule point before a non-relaxed atomic operation. */
    void atomic_point();

    /** Forced-fairness yield (spin-wait backoff, mc::yield()). */
    void yield_point();

    /** Cooperative mutex acquire over the shim's held flag. */
    void mutex_acquire(bool* held);

    /** Cooperative mutex release; wakes threads blocked on @p held. */
    void mutex_release(bool* held);

    /**
     * Cooperative condition wait: @p held is the associated mutex
     * flag (released while waiting, re-acquired before returning),
     * @p generation the CondVar's notify counter sampled by the
     * caller. Returns on any notify (spurious wakeups allowed).
     */
    void cond_wait(bool* held, const std::uint64_t* generation,
                   std::uint64_t seen);

    /** Wake threads blocked in cond_wait on @p generation. */
    void cond_notify(const std::uint64_t* generation);

    /** Raise a violation from model code ([[noreturn]]). */
    [[noreturn]] static void fail(std::string message);

  private:
    struct Impl;
    Impl* impl_;
};

// ---- stock strategies ----

/** Run the current thread while enabled; round-robin otherwise. */
class DefaultStrategy : public Strategy {
  public:
    int pick(int current, std::uint32_t enabled, bool yielding,
             std::size_t step) override;
};

/**
 * Follow a recorded choice prefix, then DefaultStrategy. Used by the
 * DFS explorer (prefix = path to the branch point) and by replay
 * (prefix = the full token).
 */
class PrefixStrategy : public Strategy {
  public:
    explicit PrefixStrategy(std::vector<std::uint8_t> prefix)
        : prefix_(std::move(prefix))
    {
    }

    int pick(int current, std::uint32_t enabled, bool yielding,
             std::size_t step) override;

    /** True when a prefix choice was not enabled (divergent replay). */
    bool diverged() const { return diverged_; }

  private:
    std::vector<std::uint8_t> prefix_;
    DefaultStrategy fallback_;
    bool diverged_ = false;
};

/**
 * PCT (probabilistic concurrency testing): random thread priorities
 * with depth-1 random priority-change points. Yields and change
 * points demote the running thread below every other priority.
 */
class PctStrategy : public Strategy {
  public:
    /**
     * @param seed RNG seed (schedule identity)
     * @param num_threads model thread count
     * @param depth bug depth d (d-1 priority change points)
     * @param expected_length estimated schedule points per execution
     */
    PctStrategy(std::uint64_t seed, int num_threads, int depth,
                std::size_t expected_length);

    int pick(int current, std::uint32_t enabled, bool yielding,
             std::size_t step) override;

  private:
    std::vector<std::int64_t> priority_;
    std::vector<std::size_t> change_points_;
    std::int64_t low_water_ = 0;
};

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_SCHEDULER_H_
