#include "mc/crash_images.h"

#include <algorithm>

#include "mc/token.h"
#include "util/check.h"
#include "util/rng.h"

namespace pccheck::mc {

namespace {

/** Enumerate all 2^n masks up to this many unflushed lines. */
constexpr std::size_t kExhaustiveLineLimit = 12;
/** Seeded draws past the limit, beside the empty and full masks. */
constexpr std::size_t kSampledMasks = 4096;

/** The masks to try at one crash point. */
std::vector<std::uint64_t> masks_for(std::size_t num_lines,
                                     std::size_t op_index, bool* sampled)
{
    std::vector<std::uint64_t> masks;
    if (num_lines <= kExhaustiveLineLimit) {
        const std::uint64_t count = 1ULL << num_lines;
        masks.reserve(count);
        for (std::uint64_t m = 0; m < count; ++m) {
            masks.push_back(m);
        }
        return masks;
    }
    *sampled = true;
    const std::uint64_t full =
        num_lines >= 64 ? ~0ULL : (1ULL << num_lines) - 1;
    masks.push_back(0);     // pure durable image
    masks.push_back(full);  // everything reached the media
    Rng rng(0x9E3779B97F4A7C15ULL * (op_index + 1));
    for (std::size_t k = 0; k < kSampledMasks; ++k) {
        masks.push_back(rng.next_u64() & full);
    }
    return masks;
}

/** The durable image with the unflushed lines @p mask selects. */
std::vector<std::uint8_t> materialize(const CrashTrace& trace,
                                      const CrashSnapshot& snap,
                                      std::uint64_t mask)
{
    // One mask bit per line: past 64 lines `mask >> i` is undefined.
    PCCHECK_CHECK_MSG(snap.lines.size() <= 64,
                      "crash point " << snap.op_index << " has "
                                     << snap.lines.size()
                                     << " unflushed lines; a mask holds 64");
    std::vector<std::uint8_t> image = snap.durable;
    for (std::size_t i = 0; i < snap.lines.size(); ++i) {
        if (((mask >> i) & 1u) == 0) {
            continue;
        }
        const Bytes start = snap.lines[i] * trace.line_size;
        std::copy(snap.line_data[i].begin(), snap.line_data[i].end(),
                  image.begin() + static_cast<std::ptrdiff_t>(start));
    }
    return image;
}

/** Check one image into @p out; @return false on a violation. */
bool check(const CrashTrace& trace, const CrashSnapshot& snap,
           std::uint64_t mask, const ImageOracle& oracle,
           CrashImageResult* out)
{
    ++out->images;
    std::optional<std::string> violation;
    try {
        violation = oracle(snap, materialize(trace, snap, mask));
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

SnapshotRecorder::SnapshotRecorder(CrashSimStorage& device, CrashTrace* trace)
    : device_(&device)
{
    if (trace != nullptr) {
        trace->line_size = device.line_size();
    }
    device.set_post_op_hook([this, trace](const StorageOp&) {
        const std::size_t idx = next_op_++;
        if (trace == nullptr) {
            return;
        }
        CrashSnapshot snap;
        snap.op_index = idx;
        snap.durable = device_->crash_image_keeping({});
        snap.lines = device_->unflushed_lines();
        for (Bytes line : snap.lines) {
            const Bytes start = line * trace->line_size;
            const Bytes len =
                std::min(trace->line_size, device_->size() - start);
            std::vector<std::uint8_t> buf(len);
            PCCHECK_MUST(device_->read(start, buf.data(), len));
            snap.line_data.push_back(std::move(buf));
        }
        trace->snapshots.push_back(std::move(snap));
    });
}

SnapshotRecorder::~SnapshotRecorder()
{
    device_->set_post_op_hook(nullptr);
}

CrashImageResult enumerate_images(const CrashTrace& trace,
                                  const ImageOracle& oracle)
{
    CrashImageResult out;
    for (const CrashSnapshot& snap : trace.snapshots) {
        ++out.crash_points;
        bool sampled = false;
        const std::vector<std::uint64_t> masks =
            masks_for(snap.lines.size(), snap.op_index, &sampled);
        if (sampled) {
            ++out.sampled_points;
        }
        for (const std::uint64_t mask : masks) {
            if (!check(trace, snap, mask, oracle, &out)) {
                return out;
            }
        }
    }
    return out;
}

CrashImageResult replay_image(const CrashTrace& trace, std::size_t op,
                              std::uint64_t mask, const ImageOracle& oracle)
{
    CrashImageResult out;
    for (const CrashSnapshot& snap : trace.snapshots) {
        if (snap.op_index == op) {
            ++out.crash_points;
            check(trace, snap, mask, oracle, &out);
            break;
        }
    }
    return out;
}

}  // namespace pccheck::mc
