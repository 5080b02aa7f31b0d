#include "mem/virtual_memory.hh"

#include <algorithm>
#include <cassert>
#include <new>
#include <stdexcept>
#include <utility>

namespace anvil::mem {

void
FrameAllocator::ScrambledPool::init(std::uint64_t count, std::uint64_t seed)
{
    assert(count > 1);
    count_ = count;
    // Smallest even bit width whose 2^bits covers the count; indices that
    // permute out of range are cycle-walked past.
    std::uint32_t bits = 2;
    while ((1ULL << bits) < count)
        bits += 2;
    half_bits_ = bits / 2;
    for (auto &key : round_keys_) {
        seed = splitmix64(seed);
        key = seed;
    }
}

std::uint64_t
FrameAllocator::ScrambledPool::permute(std::uint64_t index) const
{
    const std::uint64_t half_mask = (1ULL << half_bits_) - 1;
    std::uint64_t left = index >> half_bits_;
    std::uint64_t right = index & half_mask;
    for (const std::uint64_t key : round_keys_) {
        const std::uint64_t f = splitmix64(right ^ key) & half_mask;
        const std::uint64_t new_right = left ^ f;
        left = right;
        right = new_right;
    }
    return (left << half_bits_) | right;
}

std::uint64_t
FrameAllocator::ScrambledPool::take()
{
    if (!recycled_.empty()) {
        const std::uint64_t index = recycled_.back();
        recycled_.pop_back();
        return index;
    }
    while (next_index_ < (1ULL << (2 * half_bits_))) {
        const std::uint64_t image = permute(next_index_++);
        if (image < count_)
            return image;
    }
    throw std::bad_alloc();
}

void
FrameAllocator::ScrambledPool::put(std::uint64_t index)
{
    recycled_.push_back(index);
}

FrameAllocator::FrameAllocator(std::uint64_t capacity_bytes,
                               std::uint64_t seed)
    : total_frames_(capacity_bytes / kPageBytes)
{
    assert(capacity_bytes % kPageBytes == 0);
    // Lower half: scattered 4 KB frames; upper half: 2 MB THP blocks.
    // (On small test configurations without room for any huge block the
    // whole space serves 4 KB frames.)
    const std::uint64_t huge_blocks = capacity_bytes / 2 / kHugeBytes;
    small_frames_ = total_frames_ - huge_blocks * (kHugeBytes / kPageBytes);
    huge_base_ = static_cast<Addr>(small_frames_) << kPageShift;
    small_pool_.init(small_frames_, seed);
    if (huge_blocks > 1)
        huge_pool_.init(huge_blocks, splitmix64(seed ^ 0x48554745ULL));
    else if (huge_blocks == 1)
        huge_pool_.init(2, splitmix64(seed ^ 0x48554745ULL));
}

Addr
FrameAllocator::allocate()
{
    const std::uint64_t frame = small_pool_.take();
    ++allocated_;
    return frame << kPageShift;
}

void
FrameAllocator::free(Addr frame)
{
    assert(allocated_ > 0);
    --allocated_;
    small_pool_.put(frame >> kPageShift);
}

Addr
FrameAllocator::allocate_huge()
{
    const std::uint64_t capacity_blocks =
        (static_cast<std::uint64_t>(total_frames_) * kPageBytes -
         huge_base_) / kHugeBytes;
    std::uint64_t block;
    do {
        block = huge_pool_.take();
    } while (block >= capacity_blocks);
    ++huge_allocated_;
    return huge_base_ + block * kHugeBytes;
}

void
FrameAllocator::free_huge(Addr block)
{
    assert(huge_allocated_ > 0);
    --huge_allocated_;
    huge_pool_.put((block - huge_base_) / kHugeBytes);
}

AddressSpace::AddressSpace(Pid pid, FrameAllocator &frames)
    : pid_(pid), frames_(frames)
{
}

Addr
AddressSpace::mmap(std::uint64_t bytes)
{
    const bool huge = bytes >= kHugeBytes;
    const std::uint64_t granule = huge ? kHugeBytes : kPageBytes;
    const std::uint64_t chunks = (bytes + granule - 1) / granule;
    const Addr base = next_va_;
    next_va_ += chunks * granule;
    next_va_ += kPageBytes;  // unmapped guard gap between regions

    MappedRegion region{base, chunks * granule, huge, false, {}};
    region.frames.reserve(chunks);
    for (std::uint64_t c = 0; c < chunks; ++c)
        region.frames.push_back(huge ? frames_.allocate_huge()
                                     : frames_.allocate());
    regions_.push_back(std::move(region));
    reset_memo();
    return base;
}

Addr
AddressSpace::mmap_shared(const AddressSpace &source, Addr src_va,
                          std::uint64_t bytes)
{
    const std::uint64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    const Addr base = next_va_;
    next_va_ += pages * kPageBytes + kPageBytes;
    MappedRegion region{base, pages * kPageBytes, false, true, {}};
    region.frames.reserve(pages);
    for (std::uint64_t p = 0; p < pages; ++p) {
        const Addr frame = source.pagemap(src_va + p * kPageBytes);
        assert(frame != kInvalidAddr && "sharing an unmapped page");
        region.frames.push_back(frame);
    }
    regions_.push_back(std::move(region));
    reset_memo();
    return base;
}

void
AddressSpace::munmap(Addr va_base, std::uint64_t bytes)
{
    auto region = std::find_if(regions_.begin(), regions_.end(),
                               [&](const MappedRegion &r) {
                                   return r.va_base == va_base;
                               });
    if (region == regions_.end())
        return;
    (void)bytes;  // whole-region unmap, like the attack code's usage

    reset_memo();
    // A shared view's frames belong to the source mapping; only the
    // view is dropped.
    if (!region->shared) {
        for (const Addr frame : region->frames) {
            if (region->huge)
                frames_.free_huge(frame);
            else
                frames_.free(frame);
        }
    }
    regions_.erase(region);
}

std::uint64_t
AddressSpace::mapped_pages() const
{
    std::uint64_t pages = 0;
    for (const MappedRegion &r : regions_)
        pages += r.bytes / kPageBytes;
    return pages;
}

const MappedRegion *
AddressSpace::find_region(Addr va) const
{
    // The last region starting at or below va is the only candidate.
    auto it = std::upper_bound(regions_.begin(), regions_.end(), va,
                               [](Addr v, const MappedRegion &r) {
                                   return v < r.va_base;
                               });
    if (it == regions_.begin())
        return nullptr;
    --it;
    return it->contains(va) ? &*it : nullptr;
}

void
AddressSpace::reset_memo()
{
    last_region_ = SIZE_MAX;
    ++tlb_flushes_;
}

Addr
AddressSpace::translate(Addr va) const
{
    const Addr in_page = va & (kPageBytes - 1);
    if (last_region_ < regions_.size() &&
        regions_[last_region_].contains(va)) {
        ++tlb_hits_;
        return regions_[last_region_].frame_of(va) | in_page;
    }
    ++tlb_misses_;
    const MappedRegion *region = find_region(va);
    if (region == nullptr)
        return kInvalidAddr;
    last_region_ = static_cast<std::size_t>(region - regions_.data());
    return region->frame_of(va) | in_page;
}

Addr
AddressSpace::pagemap(Addr va) const
{
    // A page-table read, not an access: the memo and its counters stay.
    const MappedRegion *region = find_region(va);
    return region != nullptr ? region->frame_of(va) : kInvalidAddr;
}

}  // namespace anvil::mem
