#include "mc/token.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

namespace pccheck::mc {

namespace {

/** Parse a non-negative decimal integer, advancing @p pos. Returns
 *  false when no digits were consumed, when strtoull took anything but
 *  digits (a sign or leading space), or when the value overflows 64
 *  bits. */
bool parse_u64(const std::string& s, std::size_t& pos, std::uint64_t* out)
{
    const char* begin = s.c_str() + pos;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    const auto is_digit = [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
    };
    if (end == begin || errno != 0 ||
        !std::all_of(begin, static_cast<const char*>(end), is_digit)) {
        return false;
    }
    pos += static_cast<std::size_t>(end - begin);
    *out = v;
    return true;
}

}  // namespace

std::string encode_token(int num_threads,
                         const std::vector<std::uint8_t>& choices,
                         std::optional<std::size_t> crash_op,
                         const LineMask& crash_mask)
{
    std::string out = "v1." + std::to_string(num_threads) + ".";
    std::size_t i = 0;
    bool first = true;
    while (i < choices.size()) {
        std::size_t run = 1;
        while (i + run < choices.size() && choices[i + run] == choices[i]) {
            ++run;
        }
        if (!first) {
            out += ',';
        }
        first = false;
        out += std::to_string(static_cast<int>(choices[i]));
        if (run > 1) {
            out += 'x';
            out += std::to_string(run);
        }
        i += run;
    }
    if (crash_op.has_value()) {
        out += '.';
        out += crash_clause(*crash_op, crash_mask);
    }
    return out;
}

std::optional<ReplayToken> decode_token(const std::string& text)
{
    if (text.rfind("v1.", 0) != 0) {
        return std::nullopt;
    }
    std::size_t pos = 3;
    std::uint64_t threads = 0;
    if (!parse_u64(text, pos, &threads) || threads == 0 || threads > 32 ||
        pos >= text.size() || text[pos] != '.') {
        return std::nullopt;
    }
    ++pos;

    ReplayToken tok;
    tok.num_threads = static_cast<int>(threads);
    while (pos < text.size() && text[pos] != '.') {
        std::uint64_t thread = 0;
        if (!parse_u64(text, pos, &thread) || thread >= threads) {
            return std::nullopt;
        }
        std::uint64_t run = 1;
        if (pos < text.size() && text[pos] == 'x') {
            ++pos;
            if (!parse_u64(text, pos, &run) || run == 0 ||
                run > 1000000) {
                return std::nullopt;
            }
        }
        for (std::uint64_t r = 0; r < run; ++r) {
            tok.choices.push_back(static_cast<std::uint8_t>(thread));
        }
        if (pos < text.size() && text[pos] == ',') {
            ++pos;
        } else {
            break;
        }
    }

    if (pos < text.size()) {
        // Only a crash clause may follow the schedule body.
        if (text.compare(pos, 7, ".crash@") != 0) {
            return std::nullopt;
        }
        pos += 7;
        std::uint64_t op = 0;
        if (!parse_u64(text, pos, &op) || pos + 3 > text.size() ||
            text.compare(pos, 3, ":0x") != 0) {
            return std::nullopt;
        }
        pos += 3;
        const std::optional<LineMask> mask =
            LineMask::parse_hex(std::string_view(text).substr(pos));
        if (!mask.has_value()) {
            return std::nullopt;
        }
        tok.crash_op = static_cast<std::size_t>(op);
        tok.crash_mask = *mask;
    }
    return tok;
}

}  // namespace pccheck::mc
