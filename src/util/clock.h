#ifndef PCCHECK_UTIL_CLOCK_H_
#define PCCHECK_UTIL_CLOCK_H_

/**
 * @file
 * Time sources.
 *
 * The library measures everything against a Clock interface so that the
 * same code can run under the real monotonic clock (tests, examples,
 * microbenchmarks) or under an accelerated clock (scaled benchmark
 * sweeps). Durations are kept in double seconds at API boundaries for
 * readability of the performance-model code, which mirrors the paper's
 * notation (t, Tw, l, ...).
 */

#include <chrono>
#include <cstdint>

namespace pccheck {

/** Duration in seconds, matching the paper's analytical notation. */
using Seconds = double;

/** Abstract monotonic time source. */
class Clock {
  public:
    virtual ~Clock() = default;

    /** Seconds since an arbitrary, fixed epoch. */
    virtual Seconds now() const = 0;

    /** Block the calling thread for @p duration seconds. */
    virtual void sleep_for(Seconds duration) const = 0;
};

/** Real monotonic clock backed by std::chrono::steady_clock. */
class MonotonicClock final : public Clock {
  public:
    Seconds now() const override;

    /**
     * Every emulated device paces itself with this sleep, so its error
     * and its CPU cost land in every modeled duration and every
     * CPU-seconds figure. The contract, and why:
     *  - It never returns before now() + @p duration. An early return
     *    would make a device faster than its model.
     *  - It spins at most its last 50 µs (yielding between checks) and
     *    sleeps in the kernel until then, on an absolute deadline
     *    computed once. On an idle 4-vCPU VM a 1 ms sleep costs 41 µs
     *    of CPU this way, against 238 µs with a 300 µs spin. Shorter
     *    sleeps spin whole. The spin stays because a kernel wakeup
     *    lands late (median 15 µs, 90th percentile 49 µs at 1 ns
     *    slack), and a training step waits on several sleeps in series:
     *    with no spin, the bench suite's train-ssd and train-replicated
     *    median step grew 1.1-1.2% and their steps/s fell about 1%
     *    (EXPERIMENTS.md).
     *  - It lowers the calling thread's timer slack to 1 ns on the
     *    thread's first sleep. The default 50 µs slack lets the kernel
     *    defer the wakeup: with 4 sleeping threads, an absolute 1 ms
     *    sleep's median overshoot was 68 µs at 50 µs slack and 15 µs
     *    at 1 ns.
     */
    void sleep_for(Seconds duration) const override;

    /** Process-wide instance (stateless, safe to share). */
    static const MonotonicClock& instance();
};

/**
 * Scaled wrapper: time appears to pass @p factor times faster than the
 * underlying clock, and sleeps are shortened accordingly. Used to run
 * paper-scale experiments (minutes of modeled time) in milliseconds
 * while preserving every duration ratio.
 */
class ScaledClock final : public Clock {
  public:
    /**
     * @param base underlying clock (not owned; must outlive this)
     * @param factor acceleration factor (> 0); 1000 means one real
     *        millisecond counts as one modeled second
     */
    ScaledClock(const Clock& base, double factor);

    Seconds now() const override;
    void sleep_for(Seconds duration) const override;

    double factor() const { return factor_; }

  private:
    const Clock& base_;
    double factor_;
};

/** Stopwatch over an arbitrary clock. */
class Stopwatch {
  public:
    /** Starts immediately. @p clock must outlive the stopwatch. */
    explicit Stopwatch(const Clock& clock = MonotonicClock::instance())
        : clock_(&clock), start_(clock.now()) {}

    /** Seconds elapsed since construction or the last reset(). */
    Seconds elapsed() const { return clock_->now() - start_; }

    /** Restart timing from now. */
    void reset() { start_ = clock_->now(); }

  private:
    const Clock* clock_;
    Seconds start_;
};

}  // namespace pccheck

#endif  // PCCHECK_UTIL_CLOCK_H_
