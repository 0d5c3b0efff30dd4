#ifndef PCCHECK_MC_MODELS_H_
#define PCCHECK_MC_MODELS_H_

/**
 * @file
 * The checked models: the real Listing-1 commit protocol plus
 * intentionally weakened variants the checker must catch.
 *
 * A CommitModel is one single-use execution harness: N committer
 * threads each begin() a ticket, write a deterministic payload
 * (byte j of checkpoint c is (c * 131 + j) mod 256, iteration = c)
 * into their slot on a CrashSimStorage, persist + fence it, and
 * commit(). After the scheduled run the driver asserts the end-state
 * invariants (see check_end_state); given a CrashTrace, the run also
 * records a crash snapshot at every storage op for the enumerator
 * (crash_enum.h).
 *
 * Mutations:
 *  - kNone runs the REAL ConcurrentCommit (the object under test).
 *  - kBlindStore / kTicketReuse / kLostWakeup run MiniCommit, a
 *    compact reimplementation of Listing 1 over the same seam, because
 *    the weakenings replace lines of the real algorithm. MiniCommit with
 *    Mutation::kNone is itself checked (mc_test) to agree with the
 *    real implementation, so a bug injected into MiniCommit stands in
 *    for the same bug in ConcurrentCommit.
 *  - kNoFence keeps the real ConcurrentCommit but drops the data
 *    persist + fence the caller owes before commit() — the classic
 *    "published a record whose data never left the cache" bug. It is
 *    invisible to scheduling invariants (DRAM state is fine) and is
 *    caught by the crash-state enumerator instead.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/concurrent_commit.h"
#include "core/free_slot_queue.h"
#include "core/slot_store.h"
#include "mc/crash_images.h"
#include "mc/explore.h"
#include "mc/scheduler.h"
#include "mc/shim.h"
#include "storage/crash_sim.h"
#include "util/bytes.h"

namespace pccheck::mc {

/** Which algorithm weakening (if any) to run. */
enum class Mutation {
    kNone,         ///< faithful algorithm; checker must find nothing
    kBlindStore,   ///< CAS on CHECK_ADDR -> unconditional exchange
    kTicketReuse,  ///< counter fetch_add -> racy load + store
    kNoFence,      ///< slot data never persisted before publish
    /** Winner's recycle skips the wake: a begin() parked on an empty
     *  free-slot queue can sleep forever. Checked slot-starved
     *  (slot_count = threads), where begin() parks at bound 2. */
    kLostWakeup,
};

/** Model shape. */
struct ModelConfig {
    int threads = 3;
    /** Checkpoints committed per thread. */
    int checkpoints_per_thread = 1;
    /** N+1 slots; 0 means threads + 1 (the paper's sizing). With
     *  fewer, begin() parks behind in-flight checkpoints. */
    std::uint32_t slot_count = 0;
    Bytes slot_size = 64;  ///< one PMEM line of payload
    SlotQueueKind queue_kind = SlotQueueKind::kVyukov;
    StorageKind storage_kind = StorageKind::kPmemClwb;
    /** Run MiniCommit instead of ConcurrentCommit even for kNone
     *  (used by the mini-model sanity checks). */
    bool use_mini = false;
    Scheduler::Options sched;
};

/** The deterministic payload byte pattern for checkpoint @p counter. */
inline std::uint8_t payload_byte(std::uint64_t counter, Bytes j)
{
    return static_cast<std::uint8_t>((counter * 131 + j) & 0xFF);
}

/** Single-use scheduled execution of the commit protocol. */
class CommitModel {
  public:
    explicit CommitModel(const ModelConfig& config, Mutation mutation);
    ~CommitModel();
    CommitModel(const CommitModel&) = delete;
    CommitModel& operator=(const CommitModel&) = delete;

    /**
     * Run the committer threads under @p strategy, then apply the
     * end-state invariants; a failed invariant is folded into the
     * returned RunResult as a violation. Call at most once.
     *
     * Given @p trace, the run records a crash snapshot after every
     * storage op and skips the end-state check of the durable image:
     * the crash enumerator checks that image at EVERY op, not just
     * the end (and owns the kNoFence meta-verdict).
     */
    RunResult run(Strategy& strategy, CrashTrace* trace = nullptr);

    // ---- post-run state for the crash enumerator ----

    /**
     * Publish watermarks: (op index, counter) pairs appended when a
     * commit() returned with the record durably published. From op
     * index >= w.first onward, recovery of ANY crash image must find
     * a checkpoint with counter >= w.second.
     */
    const OpMarks& watermarks() const { return watermarks_; }

  private:
    struct State;

    void thread_body(int t);
    void check_end_state(bool check_durable_image);

    ModelConfig config_;
    Mutation mutation_;
    std::uint32_t slot_count_;
    std::unique_ptr<State> state_;
    /** Numbers storage ops while run() is live. */
    SnapshotRecorder* recorder_ = nullptr;
    OpMarks watermarks_;
    bool ran_ = false;
};

/** Fresh-model execution callback for the exploration drivers. */
RunFn make_run_fn(const ModelConfig& config, Mutation mutation);

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_MODELS_H_
