#include "common/text.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace anvil {

std::optional<std::uint64_t>
parse_u64(std::string_view text, std::uint64_t max)
{
    // strtoull skips leading space and negates a leading '-' modulo
    // 2^64; only a digit may start a count or a seed.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    const std::string copy(text);
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(copy.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE || v > max)
        return std::nullopt;
    return v;
}

std::size_t
edit_distance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

std::optional<std::string>
nearest_name(std::string_view name,
             const std::vector<std::string> &candidates)
{
    const std::string *best = nullptr;
    std::size_t best_distance = 0;
    for (const std::string &candidate : candidates) {
        const std::size_t d = edit_distance(name, candidate);
        if (best == nullptr || d < best_distance) {
            best = &candidate;
            best_distance = d;
        }
    }
    if (best == nullptr)
        return std::nullopt;
    const std::size_t cutoff = std::max<std::size_t>(3, best->size() / 3);
    if (best_distance > cutoff)
        return std::nullopt;
    return *best;
}

}  // namespace anvil
