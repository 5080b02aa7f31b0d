/**
 * @file
 * Virtual memory: per-process address spaces with 4 KB pages, backed by a
 * shared physical frame allocator, plus the /proc/pagemap-style interface
 * the CLFLUSH-free attack uses to discover physical addresses
 * (Section 2.3: "The CLFLUSH-free rowhammering attack uses the Linux
 * /proc/pagemap utility to convert virtual addresses to physical
 * addresses").
 * Translation indexes the frame table of the region holding the address,
 * behind a memo of the last region hit; there is no TLB model.
 */
#ifndef ANVIL_MEM_VIRTUAL_MEMORY_HH
#define ANVIL_MEM_VIRTUAL_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace anvil::mem {

inline constexpr std::uint32_t kPageBytes = 4096;
inline constexpr std::uint32_t kPageShift = 12;

/// Transparent-huge-page block size. Large anonymous mmaps are backed by
/// physically contiguous 2 MB blocks, as Linux THP does on the paper's
/// evaluation platform. A 2 MB block spans 16 consecutive rows of one
/// DRAM bank (row stride 128 KB), which is what makes both double-sided
/// attack targeting and benign bank-local conflict sweeps realistic.
inline constexpr std::uint64_t kHugeBytes = 2ULL << 20;

/**
 * Physical frame allocator over the module's address range.
 *
 * Frames are handed out in a deterministically scrambled order — a
 * Feistel pseudo-random permutation of the whole frame index space — so a
 * process's pages scatter across the entire module the way they do under
 * the Linux buddy allocator, while staying searchable via pagemap and
 * bit-for-bit reproducible per seed. The permutation needs O(1) state, so
 * constructing a 4 GB allocator is free.
 */
class FrameAllocator
{
  public:
    /**
     * @param capacity_bytes size of physical memory (multiple of 4 KB)
     * @param seed           permutation seed (same seed => same layout)
     */
    FrameAllocator(std::uint64_t capacity_bytes, std::uint64_t seed);

    /**
     * Allocates one 4 KB frame (from the lower half of physical memory;
     * the upper half is reserved for huge blocks).
     * @return its physical base address.
     * @throw std::bad_alloc when the small-frame pool is exhausted.
     */
    Addr allocate();

    /** Returns @p frame to the pool (for munmap). */
    void free(Addr frame);

    /**
     * Allocates one physically contiguous, aligned 2 MB block (THP).
     * @return the block's physical base address.
     * @throw std::bad_alloc when the huge pool is exhausted.
     */
    Addr allocate_huge();

    /** Returns a huge block to the pool. */
    void free_huge(Addr block);

    std::uint64_t frames_allocated() const { return allocated_; }
    std::uint64_t huge_blocks_allocated() const { return huge_allocated_; }

  private:
    /** A lazily-walked Feistel permutation over [0, count). */
    class ScrambledPool
    {
      public:
        void init(std::uint64_t count, std::uint64_t seed);
        std::uint64_t take();           ///< @throw std::bad_alloc if empty
        void put(std::uint64_t index);  ///< return a previously taken index

      private:
        std::uint64_t permute(std::uint64_t index) const;

        std::uint64_t count_ = 0;
        std::uint32_t half_bits_ = 0;
        std::uint64_t round_keys_[4] = {};
        std::uint64_t next_index_ = 0;
        std::vector<std::uint64_t> recycled_;
    };

    std::uint64_t total_frames_;
    std::uint64_t small_frames_;  ///< frames below the huge region
    std::uint64_t allocated_ = 0;
    std::uint64_t huge_allocated_ = 0;
    ScrambledPool small_pool_;
    ScrambledPool huge_pool_;
    Addr huge_base_ = 0;  ///< physical base of the huge region
};

/** One mapped region, how it is backed, and its slice of page table. */
struct MappedRegion {
    Addr va_base = 0;
    std::uint64_t bytes = 0;
    bool huge = false;    ///< backed by contiguous 2 MB THP blocks
    bool shared = false;  ///< frames owned by another mapping
    /// Physical base of each granule in VA order: one 2 MB block per
    /// entry when huge, one 4 KB frame per entry otherwise.
    std::vector<Addr> frames;

    bool
    contains(Addr va) const
    {
        return va >= va_base && va - va_base < bytes;
    }

    /** Physical frame base of the 4 KB page holding @p va. @pre contains */
    Addr
    frame_of(Addr va) const
    {
        const Addr off = va - va_base;
        if (huge) {
            return frames[off / kHugeBytes] +
                   (off & (kHugeBytes - kPageBytes));
        }
        return frames[off >> kPageShift];
    }
};

/**
 * One process's page table.
 *
 * mmap() eagerly populates mappings (as the attack implementations do with
 * a touch loop); pagemap() exposes VA->PA exactly like /proc/pid/pagemap.
 * Regions of at least 2 MB are transparently backed by huge blocks (THP),
 * smaller ones by scattered 4 KB frames.
 */
class AddressSpace
{
  public:
    AddressSpace(Pid pid, FrameAllocator &frames);

    /**
     * Maps @p bytes (rounded up to pages; to 2 MB when THP-backed) of
     * anonymous memory.
     * @return the virtual base address of the region.
     */
    Addr mmap(std::uint64_t bytes);

    /** Unmaps a region previously returned by mmap (whole regions only). */
    void munmap(Addr va_base, std::uint64_t bytes);

    /**
     * Maps @p bytes of *another* process's memory into this address
     * space, page-for-page — the model of a shared library or shared
     * file mapping, the sharing that Flush+Reload-style side channels
     * exploit.
     * @return the local virtual base address of the shared view.
     * @pre [src_va, src_va + bytes) is mapped in @p source.
     */
    Addr mmap_shared(const AddressSpace &source, Addr src_va,
                     std::uint64_t bytes);

    /** All live regions, in mapping order (huge ones are THP-backed). */
    const std::vector<MappedRegion> &regions() const { return regions_; }

    /**
     * Translates a virtual address.
     * @return the physical address, or kInvalidAddr if unmapped.
     *
     * Hot path: when the last region translated contains @p va, its
     * frame table answers directly; otherwise the regions (kept in
     * increasing VA order) are binary-searched and the memo moves to the
     * hit. Every mapping change (mmap/mmap_shared/munmap) resets the
     * memo, so it never names an unmapped or renumbered region.
     */
    Addr translate(Addr va) const;

    /** Translations served by the last-region memo, and the rest. */
    std::uint64_t tlb_hits() const { return tlb_hits_; }
    std::uint64_t tlb_misses() const { return tlb_misses_; }

    /**
     * Times the memo was reset. Resets happen only on THIS space's
     * mapping changes — another tenant's mmap/munmap churn never touches
     * this process's memo.
     */
    std::uint64_t tlb_flushes() const { return tlb_flushes_; }

    /**
     * Completed memory accesses charged to this process — the
     * per-tenant attribution a system-wide daemon reads. Maintained by
     * MemorySystem::access via note_access().
     */
    std::uint64_t accesses() const { return accesses_; }

    /** Called by MemorySystem on every completed access of this space. */
    void note_access() { ++accesses_; }

    /**
     * The /proc/pagemap interface: physical frame base of the page
     * containing @p va, or kInvalidAddr. (Real kernels now restrict this
     * interface — see paper Section 5.2.1 — but the evaluated attacks
     * predate that and use it.)
     */
    Addr pagemap(Addr va) const;

    Pid pid() const { return pid_; }
    /** 4 KB pages mapped across all live regions. */
    std::uint64_t mapped_pages() const;

  private:
    /** Forgets the memoized region (any mapping change). */
    void reset_memo();

    /** The live region containing @p va, or nullptr. */
    const MappedRegion *find_region(Addr va) const;

    Pid pid_;
    FrameAllocator &frames_;
    Addr next_va_ = 0x7f0000000000ULL;  ///< mmap region grows upward
    /// Live regions in increasing va_base order: new regions take VA
    /// above every earlier one and munmap preserves the order.
    std::vector<MappedRegion> regions_;

    // Index into regions_ of the last region translated, or SIZE_MAX
    // (mutable: translate() is semantically const).
    mutable std::size_t last_region_ = SIZE_MAX;
    mutable std::uint64_t tlb_hits_ = 0;
    mutable std::uint64_t tlb_misses_ = 0;
    std::uint64_t tlb_flushes_ = 0;
    std::uint64_t accesses_ = 0;
};

}  // namespace anvil::mem

#endif  // ANVIL_MEM_VIRTUAL_MEMORY_HH
