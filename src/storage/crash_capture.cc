#include "storage/crash_capture.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

namespace pccheck {

namespace {

constexpr std::size_t kWordBits = 64;

}  // namespace

LineMask::LineMask(std::uint64_t bits)
{
    if (bits != 0) {
        words_.push_back(bits);
    }
}

LineMask LineMask::all(std::size_t lines)
{
    LineMask mask;
    mask.words_.assign((lines + kWordBits - 1) / kWordBits, ~0ULL);
    if (lines % kWordBits != 0) {
        mask.words_.back() = (1ULL << (lines % kWordBits)) - 1;
    }
    return mask;
}

LineMask LineMask::random(Rng& rng, std::size_t lines)
{
    LineMask mask;
    for (std::size_t first = 0; first < lines; first += kWordBits) {
        mask.words_.push_back(rng.next_u64());
    }
    if (lines % kWordBits != 0) {
        mask.words_.back() &= (1ULL << (lines % kWordBits)) - 1;
    }
    mask.trim();
    return mask;
}

std::optional<LineMask> LineMask::parse_hex(std::string_view digits)
{
    if (digits.empty()) {
        return std::nullopt;
    }
    LineMask mask;
    // Sixteen digits per word, least significant at the end.
    for (std::size_t end = digits.size(); end > 0;) {
        const std::size_t begin = end > 16 ? end - 16 : 0;
        std::uint64_t word = 0;
        const char* last = digits.data() + end;
        const auto [stop, error] =
            std::from_chars(digits.data() + begin, last, word, 16);
        if (error != std::errc() || stop != last) {
            return std::nullopt;  // a sign, prefix or non-hex digit
        }
        mask.words_.push_back(word);
        end = begin;
    }
    mask.trim();
    return mask;
}

bool LineMask::keeps(std::size_t line) const
{
    const std::size_t word = line / kWordBits;
    return word < words_.size() &&
           ((words_[word] >> (line % kWordBits)) & 1u) != 0;
}

void LineMask::keep(std::size_t line)
{
    const std::size_t word = line / kWordBits;
    if (words_.size() <= word) {
        words_.resize(word + 1, 0);
    }
    words_[word] |= 1ULL << (line % kWordBits);
}

std::string LineMask::hex() const
{
    if (words_.empty()) {
        return "0";
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(words_.back()));
    std::string out = buf;
    for (std::size_t w = words_.size() - 1; w-- > 0;) {
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(words_[w]));
        out += buf;
    }
    return out;
}

void LineMask::trim()
{
    while (!words_.empty() && words_.back() == 0) {
        words_.pop_back();
    }
}

std::string crash_clause(std::size_t op_index, const LineMask& mask)
{
    return "crash@" + std::to_string(op_index) + ":0x" + mask.hex();
}

std::vector<std::uint8_t> materialize(const CrashSnapshot& snap,
                                      const LineMask& mask)
{
    std::vector<std::uint8_t> image = snap.durable;
    for (std::size_t i = 0; i < snap.lines.size(); ++i) {
        if (mask.keeps(i)) {
            std::copy(snap.line_data[i].begin(), snap.line_data[i].end(),
                      image.begin() + static_cast<std::ptrdiff_t>(
                                          snap.lines[i] * snap.line_size));
        }
    }
    return image;
}

SnapshotRecorder::SnapshotRecorder(CrashSimStorage& device, CrashTrace* trace)
    : device_(&device)
{
    bool attaching = true;
    device.set_capture_hook(
        [this, trace, attaching](
            std::size_t op_index,
            const std::function<CrashSnapshot()>& copy) mutable {
            if (attaching) {
                // The state at attachment: numbering starts after it.
                attaching = false;
                base_ = op_index;
                return;
            }
            if (trace != nullptr) {
                CrashSnapshot snap = copy();
                snap.op_index = op_index - base_ - 1;
                trace->push_back(std::move(snap));
            }
        });
}

SnapshotRecorder::~SnapshotRecorder()
{
    device_->set_capture_hook(nullptr);
}

CrashPointSampler::CrashPointSampler(CrashSimStorage& device,
                                     std::uint64_t seed,
                                     std::function<void()> on_keep)
    : device_(&device), rng_(seed), on_keep_(std::move(on_keep))
{
    device.set_capture_hook(
        [this](std::size_t op_index,
               const std::function<CrashSnapshot()>& copy) {
            if (point_.states == 0) {
                point_.mark = op_index;
            }
            // Reservoir sampling: the k-th state replaces the kept one
            // with probability 1/k, so each is kept with 1/states.
            if (rng_.next_below(++point_.states) == 0) {
                point_.state = copy();
                if (on_keep_) {
                    on_keep_();
                }
            }
        });
}

CrashPointSampler::~CrashPointSampler()
{
    device_->set_capture_hook(nullptr);
}

CrashPoint CrashPointSampler::take()
{
    device_->set_capture_hook(nullptr);
    point_.mask = LineMask::random(rng_, point_.state.lines.size());
    return std::move(point_);
}

}  // namespace pccheck
