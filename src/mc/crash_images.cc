#include "mc/crash_images.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace pccheck::mc {

namespace {

/** Enumerate all 2^n masks up to this many unflushed lines. */
constexpr std::size_t kExhaustiveLineLimit = 12;
/** Seeded draws past the limit, beside the empty and full masks. */
constexpr std::size_t kSampledMasks = 4096;

/** The masks to try at one crash point. */
std::vector<LineMask> masks_for(std::size_t num_lines, std::size_t op_index,
                                bool* sampled)
{
    std::vector<LineMask> masks;
    if (num_lines <= kExhaustiveLineLimit) {
        const std::uint64_t count = 1ULL << num_lines;
        masks.reserve(count);
        for (std::uint64_t m = 0; m < count; ++m) {
            masks.emplace_back(m);
        }
        return masks;
    }
    *sampled = true;
    masks.emplace_back();                       // pure durable image
    masks.push_back(LineMask::all(num_lines));  // everything reached it
    Rng rng(0x9E3779B97F4A7C15ULL * (op_index + 1));
    for (std::size_t k = 0; k < kSampledMasks; ++k) {
        masks.push_back(LineMask::random(rng, num_lines));
    }
    return masks;
}

/** Check one image into @p out; @return false on a violation. */
bool check(const CrashSnapshot& snap, const LineMask& mask,
           const ImageOracle& oracle, CrashImageResult* out)
{
    ++out->images;
    std::optional<std::string> violation;
    try {
        violation = oracle(snap, materialize(snap, mask));
    } catch (const FatalError& e) {
        violation = std::string("recovery raised: ") + e.what();
    }
    if (!violation.has_value()) {
        return true;
    }
    out->violated = true;
    out->message = *violation;
    out->crash_op = snap.op_index;
    out->crash_mask = mask;
    out->token = crash_clause(snap.op_index, mask);
    return false;
}

}  // namespace

std::uint64_t mark_at(const OpMarks& marks, std::size_t op_index)
{
    std::uint64_t value = 0;
    for (const auto& [op, mark] : marks) {
        if (op <= op_index) {
            value = std::max(value, mark);
        }
    }
    return value;
}

CrashImageResult enumerate_images(const CrashTrace& trace,
                                  const ImageOracle& oracle)
{
    CrashImageResult out;
    for (const CrashSnapshot& snap : trace) {
        ++out.crash_points;
        bool sampled = false;
        const std::vector<LineMask> masks =
            masks_for(snap.lines.size(), snap.op_index, &sampled);
        if (sampled) {
            ++out.sampled_points;
        }
        for (const LineMask& mask : masks) {
            if (!check(snap, mask, oracle, &out)) {
                return out;
            }
        }
    }
    return out;
}

CrashImageResult replay_image(const CrashTrace& trace, std::size_t op,
                              const LineMask& mask,
                              const ImageOracle& oracle)
{
    CrashImageResult out;
    for (const CrashSnapshot& snap : trace) {
        if (snap.op_index == op) {
            ++out.crash_points;
            check(snap, mask, oracle, &out);
            break;
        }
    }
    return out;
}

}  // namespace pccheck::mc
