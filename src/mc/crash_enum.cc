#include "mc/crash_enum.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "core/recovery.h"
#include "storage/mem_storage.h"
#include "util/check.h"

namespace pccheck::mc {

namespace {

/** Run recovery on each image and check it against the publish
 *  watermarks of the model's run. */
ImageOracle commit_oracle(OpMarks watermarks, Bytes slot_size)
{
    return [watermarks = std::move(watermarks), slot_size](
               const CrashSnapshot& snap,
               const std::vector<std::uint8_t>& image)
               -> std::optional<std::string> {
        const std::uint64_t watermark = mark_at(watermarks, snap.op_index);
        MemStorage mem(image.size());
        std::copy(image.begin(), image.end(), mem.raw());
        std::vector<std::uint8_t> buffer;
        const auto recovered = recover_to_buffer(mem, &buffer);
        if (!recovered.has_value()) {
            if (watermark != 0) {
                std::ostringstream os;
                os << "no recoverable checkpoint although counter "
                   << watermark << " was durably committed";
                return os.str();
            }
            return std::nullopt;
        }
        if (recovered->counter < watermark) {
            std::ostringstream os;
            os << "recovered counter " << recovered->counter
               << " is older than durably committed " << watermark;
            return os.str();
        }
        if (recovered->iteration != recovered->counter) {
            std::ostringstream os;
            os << "recovered iteration " << recovered->iteration
               << " != counter " << recovered->counter;
            return os.str();
        }
        if (buffer.size() != slot_size) {
            return std::string("recovered payload has wrong length");
        }
        for (Bytes j = 0; j < buffer.size(); ++j) {
            if (buffer[j] != payload_byte(recovered->counter, j)) {
                std::ostringstream os;
                os << "recovered payload of checkpoint "
                   << recovered->counter << " corrupt at byte " << j;
                return os.str();
            }
        }
        return std::nullopt;
    };
}

/** Name @p out by @p run's schedule: a violation of the run itself
 *  replaces it, and a violating image's crash clause gets the
 *  schedule as its prefix. */
CrashImageResult with_schedule(CrashImageResult out, int threads,
                               const RunResult& run)
{
    if (run.violated) {
        out.violated = true;
        out.message = run.message;
        out.token = encode_token(threads, run.choices);
    } else if (out.violated) {
        out.token = encode_token(threads, run.choices, out.crash_op,
                                 out.crash_mask);
    }
    return out;
}

}  // namespace

CrashImageResult enumerate_crashes(const ModelConfig& config,
                                   Mutation mutation, Strategy& strategy)
{
    CommitModel model(config, mutation);
    CrashTrace trace;
    const RunResult run = model.run(strategy, &trace);
    CrashImageResult out;
    if (!run.violated) {
        out = enumerate_images(
            trace, commit_oracle(model.watermarks(), config.slot_size));
    }
    return with_schedule(std::move(out), config.threads, run);
}

CrashImageResult replay_crash_token(const ModelConfig& config,
                                    Mutation mutation,
                                    const ReplayToken& token)
{
    ModelConfig replay_config = config;
    replay_config.threads = token.num_threads;
    CommitModel model(replay_config, mutation);
    PrefixStrategy strategy(token.choices);
    CrashTrace trace;
    const RunResult run =
        model.run(strategy, token.crash_op.has_value() ? &trace : nullptr);
    CrashImageResult out;
    if (!run.violated && token.crash_op.has_value()) {
        out = replay_image(
            trace, *token.crash_op, token.crash_mask,
            commit_oracle(model.watermarks(), replay_config.slot_size));
    }
    return with_schedule(std::move(out), token.num_threads, run);
}

}  // namespace pccheck::mc
