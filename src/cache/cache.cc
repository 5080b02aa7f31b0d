#include "cache/cache.hh"

#include <bit>
#include <cassert>

#include "common/bits.hh"

namespace anvil::cache {

Cache::Cache(std::string name, std::uint32_t sets, std::uint32_t ways,
             ReplPolicy policy, Rng *rng)
    : name_(std::move(name)),
      sets_(sets),
      ways_(ways),
      full_mask_(low_mask(ways)),
      repl_(policy, ways, rng),
      layout_(ways, repl_.state_bytes()),
      set_bits_(static_cast<Addr>(sets - 1) << kLineShift),
      record_shift_(log2_exact(layout_.bytes) - kLineShift)
{
    assert(is_pow2(sets) && "sets must be 2^k");
    assert(ways > 0 && ways <= 64);
    lines_.resize(static_cast<std::size_t>(sets_) * layout_.bytes /
                  sizeof(HostLine));
    for (std::uint32_t s = 0; s < sets_; ++s)
        repl_.init(state_of(record_of(static_cast<Addr>(s) << kLineShift)));
}

Addr
Cache::fill(Addr pa)
{
    std::uint8_t *rec = record_of(pa);
    const std::uint32_t tag = tag_of(pa);
    assert(find(rec, tag) == kNoWay && "fill of already-present line");

    ++stats_.fills;
    std::uint32_t *tags = tags_of(rec);

    // Prefer an invalid way (lowest index first, like a scan would).
    std::uint64_t &valid = valid_of(rec);
    if (valid != full_mask_) {
        const auto w = static_cast<std::uint32_t>(std::countr_one(valid));
        tags[w] = tag;
        valid |= std::uint64_t{1} << w;
        repl_.on_fill(state_of(rec), w);
        return kInvalidAddr;
    }

    const std::uint32_t w = repl_.victim_and_fill(state_of(rec));
    assert(w < ways_);
    const Addr evicted = static_cast<Addr>(tags[w]) << kLineShift;
    tags[w] = tag;
    ++stats_.evictions;
    return evicted;
}

bool
Cache::invalidate(Addr pa)
{
    std::uint8_t *rec = record_of(pa);
    const std::uint32_t w = find(rec, tag_of(pa));
    if (w == kNoWay)
        return false;
    valid_of(rec) &= ~(std::uint64_t{1} << w);
    repl_.on_invalidate(state_of(rec), w);
    ++stats_.invalidations;
    return true;
}

std::vector<Addr>
Cache::lines_in_set(std::uint32_t set) const
{
    std::vector<Addr> lines;
    const std::uint8_t *rec = record(set);
    const std::uint32_t *tags = tags_of(rec);
    std::uint64_t m = valid_of(rec);
    while (m != 0) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
        lines.push_back(static_cast<Addr>(tags[w]) << kLineShift);
        m &= m - 1;
    }
    return lines;
}

}  // namespace anvil::cache
