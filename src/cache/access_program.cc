#include "cache/access_program.hh"

#include <algorithm>
#include <cstring>

namespace anvil::cache {

AccessProgram::AccessProgram(std::vector<Op> ops)
    : ops_(std::move(ops)),
      pas_(ops_.size(), kInvalidAddr),
      sources_(ops_.size(), DataSource::kL1)
{
}

void
AccessProgram::bind(CacheHierarchy &h)
{
    const HierarchyConfig &config = h.config();
    const auto deterministic = [](ReplPolicy p) {
        return p != ReplPolicy::kRandom;
    };
    memoizable_ = deterministic(config.l1_policy) &&
                  deterministic(config.l2_policy) &&
                  deterministic(config.llc_policy) &&
                  config.l1_sets <= config.llc_sets_per_slice &&
                  config.l2_sets <= config.llc_sets_per_slice;

    records_.clear();
    caches_.clear();
    key_bytes_ = 0;
    const auto add = [this](Cache &cache, Addr pa) {
        std::uint8_t *bytes = cache.record_of(pa);
        const bool seen =
            std::any_of(records_.begin(), records_.end(),
                        [bytes](const Record &r) { return r.bytes == bytes; });
        if (!seen) {
            records_.push_back({bytes, cache.record_bytes(),
                                static_cast<std::uint32_t>(key_bytes_)});
            key_bytes_ += cache.record_bytes();
        }
        if (std::find(caches_.begin(), caches_.end(), &cache) ==
            caches_.end())
            caches_.push_back(&cache);
    };
    for (const Addr pa : pas_) {
        add(h.l1_, pa);
        add(h.l2_, pa);
        add(h.llc_[h.llc_slice(pa)], pa);
    }

    entry_bytes_ = 2 * key_bytes_ + ops_.size();
    memo_.assign(memoizable_ ? kMemoCapacity * entry_bytes_ : 0, 0);
    memo_deltas_.assign(memoizable_ ? kMemoCapacity * caches_.size() : 0,
                        CacheStats{});
    successor_.assign(memoizable_ ? kMemoCapacity : 0, kNone);
    key_.assign(key_bytes_, 0);
    entries_ = 0;
    next_victim_ = 0;
    last_ = kNone;
    bound_ = &h;
}

void
AccessProgram::run(CacheHierarchy &h)
{
    if (!memoizable_) {
        step(h);
        return;
    }
    for (const Record &r : records_)
        std::memcpy(key_.data() + r.key_offset, r.bytes, r.size);
    std::uint32_t e = find();
    if (e != kNone) {
        ++memo_hits_;
        replay(e);
    } else {
        ++memo_misses_;
        e = record(h);
    }
    if (last_ != kNone)
        successor_[last_] = e;
    last_ = e;
}

void
AccessProgram::step(CacheHierarchy &h)
{
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        if (ops_[i].clflush)
            h.clflush(pas_[i]);
        else
            sources_[i] = h.access(pas_[i], ops_[i].type).source;
    }
}

std::uint32_t
AccessProgram::find() const
{
    const auto matches = [this](std::uint32_t e) {
        return std::memcmp(before_of(e), key_.data(), key_bytes_) == 0;
    };
    if (last_ != kNone && successor_[last_] != kNone &&
        matches(successor_[last_]))
        return successor_[last_];
    for (std::uint32_t e = 0; e < entries_; ++e) {
        if (matches(e))
            return e;
    }
    return kNone;
}

std::uint32_t
AccessProgram::record(CacheHierarchy &h)
{
    std::uint32_t e;
    if (entries_ < kMemoCapacity) {
        e = entries_++;
    } else {
        e = next_victim_;
        next_victim_ = (next_victim_ + 1) % kMemoCapacity;
        // Hints into the replaced entry now name another state; find()
        // checks every hint, so they only cost a compare.
    }
    CacheStats *deltas = deltas_of(e);
    for (std::size_t c = 0; c < caches_.size(); ++c)
        deltas[c] = caches_[c]->stats_;  // the counters before the run

    step(h);

    std::memcpy(before_of(e), key_.data(), key_bytes_);
    for (const Record &r : records_)
        std::memcpy(after_of(e) + r.key_offset, r.bytes, r.size);
    std::memcpy(sources_of(e), sources_.data(), ops_.size());
    for (std::size_t c = 0; c < caches_.size(); ++c)
        deltas[c] = caches_[c]->stats_ - deltas[c];
    successor_[e] = kNone;
    return e;
}

void
AccessProgram::replay(std::uint32_t e)
{
    for (const Record &r : records_)
        std::memcpy(r.bytes, after_of(e) + r.key_offset, r.size);
    std::memcpy(sources_.data(), sources_of(e), ops_.size());
    const CacheStats *deltas = deltas_of(e);
    for (std::size_t c = 0; c < caches_.size(); ++c)
        caches_[c]->stats_ += deltas[c];
}

}  // namespace anvil::cache
