#include "util/clock.h"

#include <sys/prctl.h>
#include <time.h>

#include <cerrno>
#include <thread>

#include "util/check.h"

namespace pccheck {

Seconds
MonotonicClock::now() const
{
    auto tp = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(tp).count();
}

void
MonotonicClock::sleep_for(Seconds duration) const
{
    if (duration <= 0) {
        return;
    }
    // Timer slack is per thread, so lower it on each thread's first
    // sleep (clock.h gives the measured reasons for the slack and the
    // spin). If the call fails, sleeps are only less precise: the spin
    // still keeps them from ending early.
    thread_local const bool slack_set =
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0;
    (void)slack_set;

    // Sleep in the kernel until kSpin before the deadline, then
    // yield-spin the rest. The yields keep sibling threads runnable on
    // small machines.
    constexpr Seconds kSpin = 50e-6;
    const Seconds deadline = now() + duration;
    if (duration > kSpin) {
        // steady_clock is CLOCK_MONOTONIC on Linux, so now()'s epoch is
        // the absolute timer's.
        const Seconds wake = deadline - kSpin;
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wake);
        ts.tv_nsec = static_cast<long>((wake - ts.tv_sec) * 1e9);
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                               nullptr) == EINTR) {
        }
    }
    while (now() < deadline) {
        std::this_thread::yield();
    }
}

const MonotonicClock&
MonotonicClock::instance()
{
    static const MonotonicClock clock;
    return clock;
}

ScaledClock::ScaledClock(const Clock& base, double factor)
    : base_(base), factor_(factor)
{
    PCCHECK_CHECK_MSG(factor > 0, "scale factor must be positive, got "
                                      << factor);
}

Seconds
ScaledClock::now() const
{
    return base_.now() * factor_;
}

void
ScaledClock::sleep_for(Seconds duration) const
{
    base_.sleep_for(duration / factor_);
}

}  // namespace pccheck
