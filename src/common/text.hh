/**
 * @file
 * Small text utilities shared by CLI drivers and spec validation:
 * checked integer parsing, edit distance and nearest-name typo
 * suggestions ("did you mean ...?").
 */
#ifndef ANVIL_COMMON_TEXT_HH
#define ANVIL_COMMON_TEXT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace anvil {

/**
 * All of @p text as an unsigned integer of at most @p max: decimal,
 * 0x-prefixed hex or 0-prefixed octal. nullopt for an empty or partial
 * parse, a leading sign or space, or a value out of range.
 */
std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t max = UINT64_MAX);

/** Edit distance between two names (classic dynamic program). */
std::size_t edit_distance(std::string_view a, std::string_view b);

/**
 * The candidate closest to @p name, or nullopt when nothing is near.
 * Only a genuinely near miss is suggested — a typo, a dropped prefix
 * (within max(3, len/3) edits of the best candidate) — never an
 * arbitrary name that merely happens to be least far away.
 */
std::optional<std::string>
nearest_name(std::string_view name,
             const std::vector<std::string> &candidates);

}  // namespace anvil

#endif  // ANVIL_COMMON_TEXT_HH
