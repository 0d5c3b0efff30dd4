/**
 * @file
 * mc_check — the PCcheck model-checking harness CLI.
 *
 * Modes:
 *   --mode dfs        exhaustive DFS with a preemption bound
 *   --mode pct        randomized PCT schedules
 *   --mode crash      crash-state enumeration over the persist trace
 *   --mode delta-crash  crash-state enumeration of the incremental
 *                     (delta-log) tier; --delta-mutation selects a
 *                     weakened appender variant, and with the default
 *                     "all" the mode is a meta-check like mutations
 *   --mode recovery-crash  crash-state enumeration over recovery's own
 *                     quarantine/salvage writes; --recovery-mutation
 *                     selects a weakened salvage, default "all" is a
 *                     meta-check like mutations
 *   --mode mutations  meta-check: every weakened variant must FAIL,
 *                     and its replay token must reproduce the failure
 *   --mode replay     re-run a --token printed by a failing mode
 *
 * Exit code 0 = clean (for mutations: every mutation caught),
 * 1 = violation found (for mutations: a mutation escaped),
 * 2 = usage error, or a replay token naming a crash point its run
 * never reaches.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "mc/crash_enum.h"
#include "mc/crash_images.h"
#include "mc/delta_enum.h"
#include "mc/recovery_enum.h"
#include "mc/explore.h"
#include "mc/models.h"
#include "mc/token.h"

namespace pccheck::mc {
namespace {

struct Args {
    std::string mode = "dfs";
    std::string model = "listing1";
    Mutation mutation = Mutation::kNone;
    int threads = 3;
    int checkpoints = 1;
    /** Slot arena size; 0 = threads + 1 (the paper's N + 1). */
    int slots = 0;
    int bound = 2;
    std::size_t schedules = 10000;
    std::size_t max_executions = 2000000;
    std::uint64_t seed = 1;
    SlotQueueKind queue = SlotQueueKind::kVyukov;
    std::string token;
    /** --mode delta-crash variant selector; "all" = meta-check. */
    std::string delta_mutation = "all";
    /** --mode recovery-crash variant selector; "all" = meta-check. */
    std::string recovery_mutation = "all";
};

bool parse_mutation(const std::string& name, Mutation* out)
{
    if (name == "none") {
        *out = Mutation::kNone;
    } else if (name == "blind_store") {
        *out = Mutation::kBlindStore;
    } else if (name == "ticket_reuse") {
        *out = Mutation::kTicketReuse;
    } else if (name == "no_fence") {
        *out = Mutation::kNoFence;
    } else if (name == "lost_wakeup") {
        *out = Mutation::kLostWakeup;
    } else {
        return false;
    }
    return true;
}

const char* mutation_name(Mutation m)
{
    switch (m) {
      case Mutation::kNone:
        return "none";
      case Mutation::kBlindStore:
        return "blind_store";
      case Mutation::kTicketReuse:
        return "ticket_reuse";
      case Mutation::kNoFence:
        return "no_fence";
      case Mutation::kLostWakeup:
        return "lost_wakeup";
    }
    return "?";
}

ModelConfig config_from(const Args& args)
{
    ModelConfig config;
    config.threads = args.threads;
    config.checkpoints_per_thread = args.checkpoints;
    config.slot_count = static_cast<std::uint32_t>(args.slots);
    config.queue_kind = args.queue;
    config.use_mini = args.model == "mini";
    return config;
}

/** Schedule points per execution, for PCT change-point placement. */
std::size_t expected_length(const Args& args)
{
    return static_cast<std::size_t>(args.threads) *
           static_cast<std::size_t>(args.checkpoints) * 12;
}

int run_dfs(const Args& args)
{
    const ModelConfig config = config_from(args);
    const ExploreResult r =
        explore_dfs(make_run_fn(config, args.mutation), args.threads,
                    args.bound, args.max_executions);
    std::printf("[mc] dfs model=%s mutation=%s threads=%d slots=%u "
                "checkpoints=%d bound=%d executions=%zu violations=%zu%s\n",
                args.model.c_str(), mutation_name(args.mutation),
                args.threads, config.slot_count != 0
                                  ? config.slot_count
                                  : static_cast<unsigned>(args.threads) + 1,
                args.checkpoints, args.bound, r.executions, r.violations,
                r.truncated ? " TRUNCATED" : "");
    if (r.violations != 0) {
        std::printf("[mc] VIOLATION: %s\n", r.first_message.c_str());
        std::printf("[mc] replay: %s\n", r.first_token.c_str());
        return 1;
    }
    return 0;
}

int run_pct(const Args& args)
{
    const ModelConfig config = config_from(args);
    const ExploreResult r =
        explore_pct(make_run_fn(config, args.mutation), args.threads,
                    args.seed, args.schedules, /*depth=*/3,
                    expected_length(args));
    std::printf("[mc] pct model=%s mutation=%s threads=%d schedules=%zu "
                "violations=%zu\n",
                args.model.c_str(), mutation_name(args.mutation),
                args.threads, r.executions, r.violations);
    if (r.violations != 0) {
        std::printf("[mc] VIOLATION (seed %llu): %s\n",
                    static_cast<unsigned long long>(r.first_seed),
                    r.first_message.c_str());
        std::printf("[mc] replay: %s\n", r.first_token.c_str());
        return 1;
    }
    return 0;
}

int run_crash(const Args& args)
{
    const ModelConfig config = config_from(args);
    std::size_t points = 0;
    std::size_t images = 0;
    for (std::size_t k = 0; k < args.schedules; ++k) {
        PctStrategy strategy(args.seed + k, args.threads, /*depth=*/3,
                             expected_length(args));
        const CrashImageResult r =
            enumerate_crashes(config, args.mutation, strategy);
        points += r.crash_points;
        images += r.images;
        if (r.violated) {
            std::printf("[mc] crash-enum VIOLATION (schedule seed %llu): "
                        "%s\n",
                        static_cast<unsigned long long>(args.seed + k),
                        r.message.c_str());
            std::printf("[mc] replay: %s\n", r.token.c_str());
            return 1;
        }
    }
    std::printf("[mc] crash-enum model=%s mutation=%s schedules=%zu "
                "crash_points=%zu images=%zu violations=0\n",
                args.model.c_str(), mutation_name(args.mutation),
                args.schedules, points, images);
    return 0;
}

/**
 * A deterministic crash mode: named variants of one workload, the
 * faithful one first, each run fresh on demand.
 */
struct CrashMode {
    const char* name;  ///< the --mode value
    const char* flag;  ///< the variant-selecting flag
    std::vector<const char*> variants;
    /** Run variant @p v once; sets @p *fields to the mode's own
     *  summary-line fields. */
    std::function<CrashWorkload(std::size_t v, std::string* fields)> run;
    const char* all_caught;  ///< printed when the meta-check passes
};

CrashMode delta_mode(std::uint64_t seed)
{
    static constexpr DeltaMutation kVariants[] = {
        DeltaMutation::kNone, DeltaMutation::kAckBeforePayload,
        DeltaMutation::kResetBeforePublish};
    return CrashMode{
        "delta-crash", "--delta-mutation",
        {"none", "ack_before_payload", "reset_before_publish"},
        [seed](std::size_t v, std::string* fields) -> CrashWorkload {
            DeltaModelConfig config;
            config.storage_seed = seed;
            DeltaWorkload w = run_delta_workload(config, kVariants[v]);
            *fields = "frames=" + std::to_string(w.frames_sealed) +
                      " fulls=" + std::to_string(w.fulls_published);
            return w;
        },
        "[mc] delta tier clean; all delta mutations caught"};
}

CrashMode recovery_mode(std::uint64_t seed)
{
    static constexpr RecoveryMutation kVariants[] = {
        RecoveryMutation::kNone, RecoveryMutation::kRepairOverLastGood};
    return CrashMode{
        "recovery-crash", "--recovery-mutation",
        {"none", "repair_over_last_good"},
        [seed](std::size_t v, std::string* fields) -> CrashWorkload {
            RecoveryModelConfig config;
            config.storage_seed = seed;
            RecoveryWorkload w = run_recovery_workload(config, kVariants[v]);
            *fields = std::string("salvaged=") + (w.salvaged ? "1" : "0");
            return w;
        },
        "[mc] recovery re-entrant; salvage mutation caught"};
}

/**
 * Enumerate variant @p v of @p mode and print its summary line. A
 * violation must reproduce from its crash clause on a fresh run, since
 * the workload is deterministic.
 * @return 0 clean, 1 violation that reproduces, 2 one that does not.
 */
int run_variant(const CrashMode& mode, std::size_t v)
{
    std::string fields;
    const CrashWorkload w = mode.run(v, &fields);
    const CrashImageResult r = enumerate_images(w.trace, w.oracle);
    std::printf("[mc] %s mutation=%s crash_points=%zu images=%zu "
                "sampled_points=%zu %s %s\n",
                mode.name, mode.variants[v], r.crash_points, r.images,
                r.sampled_points, fields.c_str(),
                r.violated ? "VIOLATED" : "clean");
    if (!r.violated) {
        return 0;
    }
    std::printf("[mc] VIOLATION: %s\n", r.message.c_str());
    std::printf("[mc] replay: %s\n", r.token.c_str());
    const CrashWorkload fresh = mode.run(v, &fields);
    const CrashImageResult replayed =
        replay_image(fresh.trace, r.crash_op, r.crash_mask, fresh.oracle);
    if (!replayed.violated) {
        std::printf("[mc] %s replay did NOT reproduce\n", mode.name);
        return 2;
    }
    std::printf("[mc] replay reproduced: %s\n", replayed.message.c_str());
    return 1;
}

/**
 * Run the variant @p selector names, or for "all" the meta-check: the
 * faithful variant must be clean AND every mutant caught with a
 * reproducing replay — otherwise the checker has no teeth.
 */
int run_crash_mode(const CrashMode& mode, const std::string& selector)
{
    if (selector != "all") {
        for (std::size_t v = 0; v < mode.variants.size(); ++v) {
            if (selector == mode.variants[v]) {
                return run_variant(mode, v);
            }
        }
        std::fprintf(stderr, "[mc] bad %s %s\n", mode.flag,
                     selector.c_str());
        return 2;
    }
    bool ok = run_variant(mode, 0) == 0;
    for (std::size_t v = 1; v < mode.variants.size(); ++v) {
        ok = run_variant(mode, v) == 1 && ok;
    }
    if (ok) {
        std::printf("%s\n", mode.all_caught);
    }
    return ok ? 0 : 1;
}

int run_replay(const Args& args)
{
    const auto token = decode_token(args.token);
    if (!token.has_value()) {
        std::fprintf(stderr, "[mc] bad token: %s\n", args.token.c_str());
        return 2;
    }
    const CrashImageResult r =
        replay_crash_token(config_from(args), args.mutation, *token);
    if (r.violated) {
        std::printf("[mc] replay reproduced: %s\n", r.message.c_str());
        return 1;
    }
    if (token->crash_op.has_value() && r.crash_points == 0) {
        std::printf("[mc] replay: the run never reached crash point %zu "
                    "(divergent schedule?)\n",
                    *token->crash_op);
        return 2;
    }
    std::printf("[mc] replay found no violation\n");
    return 0;
}

/**
 * One mutation meta-check: run the detection flow that claims to
 * catch @p mutation, REQUIRE a violation, then replay its token and
 * require the violation again.
 * @return true when the mutation was caught and replays.
 */
bool check_mutation(const Args& args, Mutation mutation)
{
    const char* name = mutation_name(mutation);
    ModelConfig config = config_from(args);
    if (mutation == Mutation::kLostWakeup && args.slots == 0) {
        // A lost wake only strands a parked begin(): starve the arena
        // (one slot per thread) and give each thread a second
        // checkpoint so takers park behind winners' recycles.
        config.slot_count = static_cast<std::uint32_t>(args.threads);
        config.checkpoints_per_thread = std::max(args.checkpoints, 2);
    }

    std::string token_text;
    std::string message;
    if (mutation == Mutation::kNoFence) {
        // Invisible to scheduling invariants — the crash enumerator
        // owns this bug class.
        DefaultStrategy strategy;
        const CrashImageResult r =
            enumerate_crashes(config, mutation, strategy);
        if (!r.violated) {
            std::printf("[mc] mutation %s: NOT caught (crash-enum "
                        "found %zu clean images)\n",
                        name, r.images);
            return false;
        }
        token_text = r.token;
        message = r.message;
    } else {
        const ExploreResult r =
            explore_dfs(make_run_fn(config, mutation), args.threads,
                        args.bound, args.max_executions);
        if (r.violations == 0) {
            std::printf("[mc] mutation %s: NOT caught (%zu executions "
                        "clean)\n",
                        name, r.executions);
            return false;
        }
        token_text = r.first_token;
        message = r.first_message;
    }
    if (mutation == Mutation::kLostWakeup &&
        message.rfind("deadlock", 0) != 0) {
        std::printf("[mc] mutation %s: caught as '%s', expected a "
                    "deadlock\n",
                    name, message.c_str());
        return false;
    }

    // The token must deterministically reproduce the violation.
    const auto token = decode_token(token_text);
    if (!token.has_value()) {
        std::printf("[mc] mutation %s: bad replay token '%s'\n", name,
                    token_text.c_str());
        return false;
    }
    if (!replay_crash_token(config, mutation, *token).violated) {
        std::printf("[mc] mutation %s: token '%s' did not replay\n", name,
                    token_text.c_str());
        return false;
    }
    std::printf("[mc] mutation %s: caught (%s)\n", name, message.c_str());
    if (config.slot_count != 0) {
        std::printf("[mc] mutation %s: replay %s --slots %u "
                    "--checkpoints %d\n",
                    name, token_text.c_str(), config.slot_count,
                    config.checkpoints_per_thread);
    } else {
        std::printf("[mc] mutation %s: replay %s\n", name,
                    token_text.c_str());
    }
    return true;
}

int run_mutations(const Args& args)
{
    // kNoFence runs the real algorithm; the others need MiniCommit.
    bool ok = true;
    ok = check_mutation(args, Mutation::kBlindStore) && ok;
    ok = check_mutation(args, Mutation::kTicketReuse) && ok;
    ok = check_mutation(args, Mutation::kNoFence) && ok;
    ok = check_mutation(args, Mutation::kLostWakeup) && ok;
    if (ok) {
        std::printf("[mc] all mutation variants caught\n");
    }
    return ok ? 0 : 1;
}

int usage()
{
    std::fprintf(
        stderr,
        "usage: mc_check [--mode "
        "dfs|pct|crash|delta-crash|recovery-crash|mutations|replay]\n"
        "                [--model listing1|mini] "
        "[--mutation none|blind_store|ticket_reuse|no_fence|"
        "lost_wakeup]\n"
        "                [--delta-mutation "
        "all|none|ack_before_payload|reset_before_publish]\n"
        "                [--recovery-mutation "
        "all|none|repair_over_last_good]\n"
        "                [--threads N] [--checkpoints N] [--slots N] "
        "[--bound N]\n"
        "                [--schedules N] [--seed N] "
        "[--queue vyukov|ms|mutex]\n"
        "                [--token <replay token>]\n");
    return 2;
}

int run(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* value = nullptr;
        if (flag == "--mode" && (value = next())) {
            args.mode = value;
        } else if (flag == "--model" && (value = next())) {
            args.model = value;
        } else if (flag == "--mutation" && (value = next())) {
            if (!parse_mutation(value, &args.mutation)) {
                return usage();
            }
        } else if (flag == "--threads" && (value = next())) {
            args.threads = std::atoi(value);
        } else if (flag == "--checkpoints" && (value = next())) {
            args.checkpoints = std::atoi(value);
        } else if (flag == "--slots" && (value = next())) {
            args.slots = std::atoi(value);
        } else if (flag == "--bound" && (value = next())) {
            args.bound = std::atoi(value);
        } else if (flag == "--schedules" && (value = next())) {
            args.schedules = static_cast<std::size_t>(std::atoll(value));
        } else if (flag == "--seed" && (value = next())) {
            args.seed = static_cast<std::uint64_t>(std::atoll(value));
        } else if (flag == "--queue" && (value = next())) {
            const std::string q = value;
            if (q == "vyukov") {
                args.queue = SlotQueueKind::kVyukov;
            } else if (q == "ms") {
                args.queue = SlotQueueKind::kMichaelScott;
            } else if (q == "mutex") {
                args.queue = SlotQueueKind::kMutex;
            } else {
                return usage();
            }
        } else if (flag == "--delta-mutation" && (value = next())) {
            args.delta_mutation = value;
        } else if (flag == "--recovery-mutation" && (value = next())) {
            args.recovery_mutation = value;
        } else if (flag == "--token" && (value = next())) {
            args.token = value;
        } else {
            return usage();
        }
    }
    // One slot would deadlock the faithful protocol: the first commit
    // registers it and no begin() can ever take another.
    if (args.threads < 1 || args.threads > 16 || args.checkpoints < 1 ||
        args.slots == 1 || args.slots < 0 || args.slots > 64) {
        return usage();
    }
    if (args.mode == "dfs") {
        return run_dfs(args);
    }
    if (args.mode == "pct") {
        return run_pct(args);
    }
    if (args.mode == "crash") {
        return run_crash(args);
    }
    if (args.mode == "delta-crash") {
        return run_crash_mode(delta_mode(args.seed), args.delta_mutation);
    }
    if (args.mode == "recovery-crash") {
        return run_crash_mode(recovery_mode(args.seed),
                              args.recovery_mutation);
    }
    if (args.mode == "mutations") {
        return run_mutations(args);
    }
    if (args.mode == "replay") {
        return run_replay(args);
    }
    return usage();
}

}  // namespace
}  // namespace pccheck::mc

int main(int argc, char** argv)
{
    return pccheck::mc::run(argc, argv);
}
