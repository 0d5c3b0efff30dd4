#include "util/throttle.h"

#include <algorithm>

#include "util/check.h"

namespace pccheck {

BandwidthThrottle::BandwidthThrottle(double bytes_per_sec, const Clock& clock,
                                     Bytes quantum)
    : clock_(clock), quantum_(quantum), bytes_per_sec_(bytes_per_sec)
{
    PCCHECK_CHECK(bytes_per_sec >= 0.0);
}

Seconds
BandwidthThrottle::acquire(Bytes n, double weight)
{
    PCCHECK_CHECK(weight > 0.0);
    if (n == 0) {
        return 0.0;
    }
    const Seconds arrival = clock_.now();
    // End of this flow's previous turn; the first turn starts no
    // earlier than the arrival (lone-flow rule, see the header).
    Seconds wake = arrival;
    for (Bytes remaining = n; remaining > 0;) {
        {
            // The bandwidth is read under the same lock that guards it:
            // set_bytes_per_sec() may run concurrently (tuner adjustments).
            MutexLock lock(mu_);
            if (bytes_per_sec_ <= 0.0) {
                break;
            }
            Bytes slice = remaining;
            if (quantum_ > 0) {
                // In double and clamped before the cast: quantum x
                // weight may exceed what a Bytes can hold.
                const double turn = static_cast<double>(quantum_) * weight;
                if (turn < static_cast<double>(remaining)) {
                    slice = std::max<Bytes>(static_cast<Bytes>(turn), 1);
                }
            }
            const Seconds start = std::max(wake, cursor_);
            cursor_ = start + static_cast<double>(slice) / bytes_per_sec_;
            wake = cursor_;
            remaining -= slice;
        }
        // Sleep outside the lock so a competing flow's turn can land
        // before our next one.
        const Seconds now = clock_.now();
        if (wake > now) {
            clock_.sleep_for(wake - now);
        }
    }
    return wake - arrival;
}

Seconds
BandwidthThrottle::service_time(Bytes n) const
{
    MutexLock lock(mu_);
    return bytes_per_sec_ > 0.0 ? static_cast<double>(n) / bytes_per_sec_
                                : 0.0;
}

double
BandwidthThrottle::bytes_per_sec() const
{
    MutexLock lock(mu_);
    return bytes_per_sec_;
}

void
BandwidthThrottle::set_bytes_per_sec(double bytes_per_sec)
{
    PCCHECK_CHECK(bytes_per_sec >= 0.0);
    MutexLock lock(mu_);
    bytes_per_sec_ = bytes_per_sec;
}

}  // namespace pccheck
