#ifndef PCCHECK_UTIL_THROTTLE_H_
#define PCCHECK_UTIL_THROTTLE_H_

/**
 * @file
 * Bandwidth throttle modeling a shared transfer channel (PCIe link,
 * SSD, PMEM, network NIC, a service shard's budget). Concurrent
 * callers share the channel: each acquire() reserves the next slice
 * of channel time on one cursor and blocks until that slice has
 * elapsed, so aggregate throughput never exceeds the configured
 * bandwidth regardless of thread count. This is the only mechanism by
 * which the repository emulates device speeds.
 *
 * Two pacing modes, chosen by the constructor's quantum:
 *  - quantum == 0: one reservation per acquire(), so concurrent
 *    callers queue FIFO. Storage and PCIe use this mode.
 *  - quantum > 0: acquire(n, weight) reserves in turns of at most
 *    quantum x weight bytes and drops the lock between turns, so
 *    concurrent flows interleave at turn granularity in proportion
 *    to their weights (weighted-fair sharing).
 *
 * Lone-flow rule: a flow's first turn starts at max(arrival, cursor)
 * and each later turn at max(its previous turn's end, cursor), never
 * at "now". A flow alone on the channel therefore ends exactly where
 * one whole reservation would, however late its sleeps wake; a
 * competing flow's turn still queues between two of its turns.
 */

#include "util/annotations.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace pccheck {

/** Shared-channel bandwidth limiter; thread safe. */
class BandwidthThrottle {
  public:
    /**
     * @param bytes_per_sec channel bandwidth; 0 disables throttling
     * @param clock time source used for pacing (must outlive this)
     * @param quantum turn size of weighted-fair sharing; 0 reserves
     *        each acquire() whole (FIFO)
     */
    explicit BandwidthThrottle(
        double bytes_per_sec,
        const Clock& clock = MonotonicClock::instance(),
        Bytes quantum = 0);

    /**
     * Account for a transfer of @p n bytes, blocking until the channel
     * has "moved" them. @p weight (> 0) scales the turn size when the
     * channel has a quantum and is ignored otherwise. Returns the
     * modeled transfer duration for this request in seconds
     * (including queueing behind other callers).
     */
    Seconds acquire(Bytes n, double weight = 1.0);

    /** Time @p n bytes occupy the channel at its current bandwidth,
     *  without queueing; 0 when throttling is disabled. */
    Seconds service_time(Bytes n) const;

    double bytes_per_sec() const;

    /** Change the channel bandwidth; affects future acquisitions. */
    void set_bytes_per_sec(double bytes_per_sec);

  private:
    const Clock& clock_;
    const Bytes quantum_;
    mutable Mutex mu_;
    /** Guarded: set_bytes_per_sec() may race acquire() otherwise (the
     *  unguarded read was a real race the thread-safety pass flagged). */
    double bytes_per_sec_ PCCHECK_GUARDED_BY(mu_);
    Seconds cursor_ PCCHECK_GUARDED_BY(mu_) =
        0.0;  ///< time at which the channel becomes free
};

}  // namespace pccheck

#endif  // PCCHECK_UTIL_THROTTLE_H_
