/**
 * @file
 * Unit tests for virtual memory (frame allocator, address spaces,
 * pagemap) and the MemorySystem access path / timing.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "mem/virtual_memory.hh"
#include "pmu/pmu.hh"

namespace anvil::mem {
namespace {

TEST(FrameAllocator, FramesAreUniqueAlignedAndInRange)
{
    FrameAllocator alloc(64ULL << 20, 1);
    std::set<Addr> seen;
    for (int i = 0; i < 1000; ++i) {
        const Addr frame = alloc.allocate();
        EXPECT_EQ(frame % kPageBytes, 0u);
        EXPECT_LT(frame, 64ULL << 20);
        EXPECT_TRUE(seen.insert(frame).second) << "duplicate frame";
    }
    EXPECT_EQ(alloc.frames_allocated(), 1000u);
}

TEST(FrameAllocator, ExhaustionThrows)
{
    FrameAllocator alloc(16 * kPageBytes, 2);
    for (int i = 0; i < 16; ++i)
        alloc.allocate();
    EXPECT_THROW(alloc.allocate(), std::bad_alloc);
}

TEST(FrameAllocator, FreeRecyclesFrames)
{
    FrameAllocator alloc(16 * kPageBytes, 3);
    const Addr a = alloc.allocate();
    alloc.free(a);
    EXPECT_EQ(alloc.frames_allocated(), 0u);
    // Exhausting still works because the freed frame returns.
    std::set<Addr> seen;
    for (int i = 0; i < 16; ++i)
        seen.insert(alloc.allocate());
    EXPECT_EQ(seen.size(), 16u);
}

TEST(FrameAllocator, LayoutIsSeedDeterministicAndScattered)
{
    FrameAllocator a(1ULL << 30, 42), b(1ULL << 30, 42), c(1ULL << 30, 43);
    bool differs = false;
    Addr min_frame = ~0ULL, max_frame = 0;
    for (int i = 0; i < 256; ++i) {
        const Addr fa = a.allocate();
        EXPECT_EQ(fa, b.allocate());
        differs |= (fa != c.allocate());
        min_frame = std::min(min_frame, fa);
        max_frame = std::max(max_frame, fa);
    }
    EXPECT_TRUE(differs);
    // 256 pages must scatter across most of the small-frame region (the
    // lower half of memory; the upper half backs THP blocks), not sit in
    // one contiguous chunk.
    EXPECT_GT(max_frame - min_frame, (1ULL << 30) / 4);
}

TEST(FrameAllocator, HugeBlocksAreAlignedDisjointAndHigh)
{
    FrameAllocator alloc(256ULL << 20, 11);
    std::set<Addr> blocks;
    for (int i = 0; i < 32; ++i) {
        const Addr block = alloc.allocate_huge();
        EXPECT_EQ(block % kHugeBytes, 0u);
        EXPECT_LT(block, 256ULL << 20);
        EXPECT_TRUE(blocks.insert(block).second);
    }
    EXPECT_EQ(alloc.huge_blocks_allocated(), 32u);
    // Huge blocks never collide with the 4 KB pool.
    for (int i = 0; i < 100; ++i) {
        const Addr frame = alloc.allocate();
        for (const Addr block : blocks) {
            EXPECT_TRUE(frame + kPageBytes <= block ||
                        frame >= block + kHugeBytes);
        }
    }
}

TEST(FrameAllocator, HugeBlocksRecycle)
{
    FrameAllocator alloc(16ULL << 20, 12);  // 4 huge blocks available
    std::vector<Addr> blocks;
    for (int i = 0; i < 4; ++i)
        blocks.push_back(alloc.allocate_huge());
    EXPECT_THROW(alloc.allocate_huge(), std::bad_alloc);
    alloc.free_huge(blocks[0]);
    EXPECT_EQ(alloc.allocate_huge(), blocks[0]);
}

TEST(AddressSpace, LargeMmapIsHugeBackedAndContiguous)
{
    FrameAllocator frames(256ULL << 20, 13);
    AddressSpace space(0, frames);
    const Addr base = space.mmap(4 * kHugeBytes);
    ASSERT_EQ(space.regions().size(), 1u);
    EXPECT_TRUE(space.regions()[0].huge);

    // Within each 2 MB block the VA->PA mapping is linear.
    for (std::uint64_t block = 0; block < 4; ++block) {
        const Addr block_pa = space.translate(base + block * kHugeBytes);
        EXPECT_EQ(block_pa % kHugeBytes, 0u);
        for (std::uint64_t off = 0; off < kHugeBytes; off += 37 * 4096 + 3) {
            EXPECT_EQ(space.translate(base + block * kHugeBytes + off),
                      block_pa + off);
        }
    }
}

TEST(AddressSpace, SmallMmapStaysOnScatteredFrames)
{
    FrameAllocator frames(256ULL << 20, 14);
    AddressSpace space(0, frames);
    const Addr base = space.mmap(16 * kPageBytes);
    ASSERT_EQ(space.regions().size(), 1u);
    EXPECT_FALSE(space.regions()[0].huge);
    // Adjacent pages are (almost surely) not physically adjacent.
    int adjacent = 0;
    for (int p = 0; p + 1 < 16; ++p) {
        if (space.pagemap(base + (p + 1) * kPageBytes) ==
            space.pagemap(base + p * kPageBytes) + kPageBytes) {
            ++adjacent;
        }
    }
    EXPECT_LT(adjacent, 4);
}

TEST(AddressSpace, SharedMappingAliasesFrames)
{
    FrameAllocator frames(256ULL << 20, 16);
    AddressSpace owner(1, frames);
    AddressSpace viewer(2, frames);
    const Addr src = owner.mmap(4 * kPageBytes);
    const Addr view = viewer.mmap_shared(owner, src, 4 * kPageBytes);
    for (std::uint64_t off = 0; off < 4 * kPageBytes; off += 777) {
        EXPECT_EQ(viewer.translate(view + off), owner.translate(src + off))
            << "shared pages must alias the owner's frames";
    }
}

TEST(AddressSpace, SharedViewOfSubrange)
{
    FrameAllocator frames(256ULL << 20, 17);
    AddressSpace owner(1, frames);
    AddressSpace viewer(2, frames);
    const Addr src = owner.mmap(8 * kPageBytes);
    const Addr view =
        viewer.mmap_shared(owner, src + 2 * kPageBytes, kPageBytes);
    EXPECT_EQ(viewer.pagemap(view), owner.pagemap(src + 2 * kPageBytes));
}

TEST(AddressSpace, UnmappingSharedViewKeepsOwnerFrames)
{
    FrameAllocator frames(256ULL << 20, 18);
    AddressSpace owner(1, frames);
    AddressSpace viewer(2, frames);
    const Addr src = owner.mmap(2 * kPageBytes);
    const std::uint64_t allocated = frames.frames_allocated();
    const Addr view = viewer.mmap_shared(owner, src, 2 * kPageBytes);
    EXPECT_EQ(frames.frames_allocated(), allocated);  // no new frames
    viewer.munmap(view, 2 * kPageBytes);
    EXPECT_EQ(frames.frames_allocated(), allocated);  // nothing freed
    EXPECT_EQ(viewer.translate(view), kInvalidAddr);
    EXPECT_NE(owner.translate(src), kInvalidAddr);
}

TEST(AddressSpace, MunmapReleasesHugeBlocks)
{
    FrameAllocator frames(64ULL << 20, 15);
    AddressSpace space(0, frames);
    const Addr base = space.mmap(2 * kHugeBytes);
    EXPECT_EQ(frames.huge_blocks_allocated(), 2u);
    space.munmap(base, 2 * kHugeBytes);
    EXPECT_EQ(frames.huge_blocks_allocated(), 0u);
    EXPECT_EQ(space.translate(base), kInvalidAddr);
    EXPECT_TRUE(space.regions().empty());
}

TEST(AddressSpace, MmapTranslatePagemap)
{
    FrameAllocator frames(64ULL << 20, 5);
    AddressSpace space(7, frames);
    const Addr base = space.mmap(8 * kPageBytes);
    EXPECT_EQ(space.mapped_pages(), 8u);
    EXPECT_EQ(space.pid(), 7u);

    // Offsets within a page share a frame; pagemap returns the frame base.
    const Addr pa0 = space.translate(base);
    const Addr pa1 = space.translate(base + 100);
    EXPECT_EQ(pa1, pa0 + 100);
    EXPECT_EQ(space.pagemap(base + 100), pa0);

    // Different pages get different frames.
    EXPECT_NE(space.pagemap(base), space.pagemap(base + kPageBytes));
}

TEST(AddressSpace, UnmappedAddressesAreInvalid)
{
    FrameAllocator frames(64ULL << 20, 6);
    AddressSpace space(0, frames);
    EXPECT_EQ(space.translate(0x1234), kInvalidAddr);
    const Addr base = space.mmap(kPageBytes);
    // Guard gap after the region stays unmapped.
    EXPECT_EQ(space.translate(base + kPageBytes), kInvalidAddr);
}

TEST(AddressSpace, MunmapReleasesFrames)
{
    FrameAllocator frames(64ULL << 20, 7);
    AddressSpace space(0, frames);
    const Addr base = space.mmap(4 * kPageBytes);
    EXPECT_EQ(frames.frames_allocated(), 4u);
    space.munmap(base, 4 * kPageBytes);
    EXPECT_EQ(frames.frames_allocated(), 0u);
    EXPECT_EQ(space.translate(base), kInvalidAddr);
}

TEST(AddressSpace, RegionsDoNotOverlap)
{
    FrameAllocator frames(64ULL << 20, 8);
    AddressSpace space(0, frames);
    const Addr r1 = space.mmap(3 * kPageBytes);
    const Addr r2 = space.mmap(kPageBytes);
    EXPECT_GE(r2, r1 + 3 * kPageBytes);
}

TEST(AddressSpace, RegionMemoCountsHitsMissesAndResets)
{
    FrameAllocator frames(64ULL << 20, 9);
    AddressSpace space(0, frames);
    const Addr a = space.mmap(2 * kPageBytes);
    const Addr b = space.mmap(kPageBytes);
    EXPECT_EQ(space.tlb_flushes(), 2u);  // one reset per mmap
    EXPECT_EQ(space.tlb_hits(), 0u);

    const Addr pa = space.translate(a);  // cold: region search
    EXPECT_EQ(space.tlb_misses(), 1u);
    EXPECT_EQ(space.translate(a + 64), pa + 64);  // memo hit
    // Any page of the memoized region hits: there are no per-page entries.
    // (pagemap() is no translation and counts in neither.)
    EXPECT_EQ(space.translate(a + kPageBytes + 8),
              space.pagemap(a + kPageBytes) + 8);
    EXPECT_EQ(space.tlb_hits(), 2u);
    EXPECT_EQ(space.tlb_misses(), 1u);

    // Another region misses once, then takes over the memo.
    space.translate(b);
    space.translate(b + 8);
    EXPECT_EQ(space.tlb_misses(), 2u);
    EXPECT_EQ(space.tlb_hits(), 3u);

    // An unmapped address misses and leaves the memo where it was.
    EXPECT_EQ(space.translate(a + 2 * kPageBytes), kInvalidAddr);
    EXPECT_EQ(space.tlb_misses(), 3u);
    space.translate(b + 16);
    EXPECT_EQ(space.tlb_hits(), 4u);

    // A mapping change resets the memo: the next translation misses.
    space.mmap(kPageBytes);
    EXPECT_EQ(space.tlb_flushes(), 3u);
    space.translate(b);
    EXPECT_EQ(space.tlb_misses(), 4u);
    EXPECT_EQ(space.tlb_hits(), 4u);
}

/**
 * An attacker's pagemap scan is no access path: probing every page of
 * another region, and an unmapped address, leaves both translation
 * counters and the memoized region as they were.
 */
TEST(AddressSpace, PagemapLeavesTheTranslationCountersAlone)
{
    FrameAllocator frames(64ULL << 20, 9);
    AddressSpace space(0, frames);
    const Addr a = space.mmap(4 * kPageBytes);
    const Addr b = space.mmap(kPageBytes);
    const Addr pa_b = space.translate(b);  // memo on b: one miss
    const std::uint64_t hits = space.tlb_hits();
    const std::uint64_t misses = space.tlb_misses();

    for (Addr page = 0; page < 4; ++page) {
        EXPECT_NE(space.pagemap(a + page * kPageBytes), kInvalidAddr);
        EXPECT_EQ(space.pagemap(a + page * kPageBytes + 8),
                  space.pagemap(a + page * kPageBytes));
    }
    EXPECT_EQ(space.pagemap(b + 100), pa_b);
    EXPECT_EQ(space.pagemap(a + 4 * kPageBytes), kInvalidAddr);  // guard
    EXPECT_EQ(space.tlb_hits(), hits);
    EXPECT_EQ(space.tlb_misses(), misses);

    space.translate(b + 8);  // the memo still names b
    EXPECT_EQ(space.tlb_hits(), hits + 1);
    EXPECT_EQ(space.tlb_misses(), misses);
}

TEST(AddressSpace, TlbMunmapRemapFrameReuseDoesNotAlias)
{
    // The frame-reuse hazard: translate() warms the TLB, the region is
    // unmapped (frame returns to the allocator), and a new mapping picks
    // the frame up again. A stale TLB entry would keep translating the
    // *old* VA to the recycled frame; the munmap flush must prevent it.
    FrameAllocator frames(16 * kPageBytes, 10);
    AddressSpace space(0, frames);

    const Addr old_va = space.mmap(kPageBytes);
    const Addr old_pa = space.translate(old_va);  // cached in the TLB
    ASSERT_NE(old_pa, kInvalidAddr);
    space.munmap(old_va, kPageBytes);

    // Drain the small pool so the new page provably reuses the old frame.
    const Addr new_va = space.mmap(16 * kPageBytes);
    bool reused = false;
    for (std::uint64_t p = 0; p < 16; ++p)
        reused |= space.pagemap(new_va + p * kPageBytes) ==
                  (old_pa & ~(kPageBytes - 1));
    EXPECT_TRUE(reused) << "allocator should have recycled the frame";

    // The old VA must now be invalid, not served from a stale entry.
    EXPECT_EQ(space.translate(old_va), kInvalidAddr);
}

TEST(AddressSpace, TlbFlushedOnSharedMapAndUnmap)
{
    FrameAllocator frames(64ULL << 20, 11);
    AddressSpace owner(1, frames);
    AddressSpace viewer(2, frames);
    const Addr src = owner.mmap(2 * kPageBytes);

    const Addr view = viewer.mmap_shared(owner, src, 2 * kPageBytes);
    ASSERT_EQ(viewer.translate(view), owner.translate(src));  // warm TLBs

    viewer.munmap(view, 2 * kPageBytes);
    EXPECT_EQ(viewer.translate(view), kInvalidAddr);
    // The owner's own mapping (and TLB) is unaffected.
    EXPECT_NE(owner.translate(src), kInvalidAddr);
}

TEST(AddressSpace, TranslatesAcrossRegionsAndGuardGaps)
{
    FrameAllocator frames(256ULL << 20, 19);
    AddressSpace space(0, frames);
    const std::uint64_t sizes[] = {3 * kPageBytes, kHugeBytes + 1,
                                   kPageBytes, 5 * kPageBytes};
    std::vector<Addr> bases;
    for (const std::uint64_t bytes : sizes)
        bases.push_back(space.mmap(bytes));
    ASSERT_EQ(space.regions().size(), 4u);

    EXPECT_EQ(space.translate(bases[0] - 1), kInvalidAddr);
    std::set<Addr> seen;
    for (const MappedRegion &region : space.regions()) {
        for (Addr off = 0; off < region.bytes; off += kPageBytes) {
            const Addr pa = space.translate(region.va_base + off + 9);
            ASSERT_NE(pa, kInvalidAddr);
            EXPECT_EQ(pa & (kPageBytes - 1), 9u);
            EXPECT_TRUE(seen.insert(pa).second) << "two pages share a frame";
        }
        // The guard page right after every region is unmapped.
        EXPECT_EQ(space.translate(region.va_base + region.bytes),
                  kInvalidAddr);
        EXPECT_EQ(space.translate(region.va_base + region.bytes +
                                  kPageBytes - 1),
                  kInvalidAddr);
    }
    EXPECT_EQ(space.translate(bases.back() + (64ULL << 20)), kInvalidAddr);
}

TEST(AddressSpace, HugeRegionPageKOfBlockJ)
{
    FrameAllocator frames(256ULL << 20, 20);
    AddressSpace space(0, frames);
    const Addr base = space.mmap(3 * kHugeBytes);
    const MappedRegion &region = space.regions().at(0);
    ASSERT_TRUE(region.huge);
    ASSERT_EQ(region.frames.size(), 3u);
    for (std::uint64_t j = 0; j < 3; ++j) {
        for (const std::uint64_t k : {0u, 1u, 255u, 511u}) {
            const Addr va = base + j * kHugeBytes + k * kPageBytes + 17;
            EXPECT_EQ(space.translate(va),
                      region.frames[j] + k * kPageBytes + 17)
                << "block " << j << " page " << k;
        }
    }
}

TEST(AddressSpace, MunmapOfMiddleRegionKeepsLaterRegionsMapped)
{
    FrameAllocator frames(256ULL << 20, 21);
    AddressSpace space(0, frames);
    const Addr a = space.mmap(2 * kPageBytes);
    const Addr b = space.mmap(kHugeBytes);
    const Addr c = space.mmap(3 * kPageBytes);
    std::vector<Addr> before;
    for (const Addr va : {a, a + kPageBytes, c, c + 2 * kPageBytes})
        before.push_back(space.pagemap(va));

    space.munmap(b, kHugeBytes);
    ASSERT_EQ(space.regions().size(), 2u);
    EXPECT_EQ(space.translate(b), kInvalidAddr);
    EXPECT_EQ(space.translate(b + kHugeBytes - 1), kInvalidAddr);
    std::vector<Addr> after;
    for (const Addr va : {a, a + kPageBytes, c, c + 2 * kPageBytes})
        after.push_back(space.pagemap(va));
    EXPECT_EQ(after, before);

    // A region mapped after the hole lands above every earlier one.
    const Addr d = space.mmap(kPageBytes);
    EXPECT_GT(d, c);
    EXPECT_NE(space.translate(d), kInvalidAddr);
    EXPECT_EQ(space.pagemap(c), before[2]);
}

TEST(AddressSpace, SharedViewOfHugeSourceAliasesEachPage)
{
    FrameAllocator frames(256ULL << 20, 22);
    AddressSpace owner(1, frames);
    AddressSpace viewer(2, frames);
    const Addr src = owner.mmap(2 * kHugeBytes);
    // Four pages straddling the boundary between the two huge blocks.
    const Addr first = src + kHugeBytes - 2 * kPageBytes;
    const Addr view = viewer.mmap_shared(owner, first, 4 * kPageBytes);
    const MappedRegion &region = viewer.regions().at(0);
    EXPECT_FALSE(region.huge);
    EXPECT_TRUE(region.shared);
    EXPECT_EQ(region.frames.size(), 4u);
    for (std::uint64_t p = 0; p < 4; ++p) {
        EXPECT_EQ(viewer.translate(view + p * kPageBytes + 5),
                  owner.translate(first + p * kPageBytes + 5))
            << "page " << p;
    }
    EXPECT_EQ(viewer.translate(view + 4 * kPageBytes), kInvalidAddr);
}

TEST(AddressSpace, MappedPagesTracksMixedMapAndUnmap)
{
    FrameAllocator frames(256ULL << 20, 23);
    AddressSpace owner(1, frames);
    AddressSpace space(2, frames);
    const Addr src = owner.mmap(8 * kPageBytes);
    const Addr small = space.mmap(3 * kPageBytes);
    const Addr huge = space.mmap(kHugeBytes);
    space.mmap(kPageBytes);
    const Addr view = space.mmap_shared(owner, src, 2 * kPageBytes);
    EXPECT_EQ(space.mapped_pages(), 3u + 512u + 1u + 2u);

    space.munmap(huge, kHugeBytes);
    EXPECT_EQ(space.mapped_pages(), 3u + 1u + 2u);
    space.munmap(view, 2 * kPageBytes);
    EXPECT_EQ(space.mapped_pages(), 3u + 1u);
    space.munmap(small, 3 * kPageBytes);
    EXPECT_EQ(space.mapped_pages(), 1u);
    EXPECT_EQ(owner.mapped_pages(), 8u);
}

class MemorySystemTest : public ::testing::Test
{
  protected:
    static SystemConfig
    config()
    {
        SystemConfig c;
        // Small module for fast tests.
        c.dram.ranks_per_channel = 1;
        c.dram.banks_per_rank = 8;
        c.dram.rows_per_bank = 4096;
        return c;
    }

    MemorySystemTest() : machine_(config()) {}

    mem::MemorySystem machine_;
};

TEST_F(MemorySystemTest, AccessAdvancesClockByLatency)
{
    AddressSpace &proc = machine_.create_process();
    const Addr va = proc.mmap(kPageBytes);
    const Tick before = machine_.now();
    const AccessInfo info = machine_.access(proc.pid(), va,
                                            AccessType::kLoad);
    EXPECT_EQ(machine_.now(), before + info.latency);
    EXPECT_EQ(info.source, DataSource::kDram);
    EXPECT_TRUE(info.llc_miss);
    EXPECT_EQ(info.pa, proc.translate(va));

    // Second access: L1 hit, 4 cycles.
    const AccessInfo hit = machine_.access(proc.pid(), va,
                                           AccessType::kLoad);
    EXPECT_EQ(hit.source, DataSource::kL1);
    EXPECT_EQ(hit.latency,
              machine_.core().cycles_to_ticks(
                  machine_.config().cache.l1_latency));
}

TEST_F(MemorySystemTest, UnmappedAccessThrows)
{
    AddressSpace &proc = machine_.create_process();
    EXPECT_THROW(machine_.access(proc.pid(), 0xdead000, AccessType::kLoad),
                 std::out_of_range);
}

TEST_F(MemorySystemTest, ClflushForcesNextAccessToDram)
{
    AddressSpace &proc = machine_.create_process();
    const Addr va = proc.mmap(kPageBytes);
    machine_.access(proc.pid(), va, AccessType::kLoad);
    machine_.clflush(proc.pid(), va);
    const AccessInfo info = machine_.access(proc.pid(), va,
                                            AccessType::kLoad);
    EXPECT_EQ(info.source, DataSource::kDram);
}

TEST_F(MemorySystemTest, ObserverSeesEveryAccess)
{
    AddressSpace &proc = machine_.create_process();
    const Addr va = proc.mmap(kPageBytes);
    int seen = 0;
    machine_.add_observer([&](const AccessInfo &info) {
        ++seen;
        EXPECT_EQ(info.pid, proc.pid());
        EXPECT_EQ(info.complete_time, machine_.now());
    });
    machine_.access(proc.pid(), va, AccessType::kLoad);
    machine_.access(proc.pid(), va, AccessType::kStore);
    EXPECT_EQ(seen, 2);
}

TEST_F(MemorySystemTest, AdvanceCyclesMatchesCoreClock)
{
    const Tick before = machine_.now();
    machine_.advance_cycles(2600000);  // 1 ms at 2.6 GHz
    EXPECT_NEAR(to_ms(machine_.now() - before), 1.0, 1e-6);
}

TEST_F(MemorySystemTest, RefreshRowPhysRestoresCharge)
{
    AddressSpace &proc = machine_.create_process();
    const Addr va = proc.mmap(kPageBytes);
    const Addr pa = proc.translate(va);
    machine_.refresh_row_phys(pa);
    EXPECT_EQ(machine_.dram().stats().selective_refreshes, 1u);
    EXPECT_GT(machine_.now(), 0u);
}

TEST_F(MemorySystemTest, ProcessesGetDistinctFrames)
{
    AddressSpace &p1 = machine_.create_process();
    AddressSpace &p2 = machine_.create_process();
    const Addr va1 = p1.mmap(kPageBytes);
    const Addr va2 = p2.mmap(kPageBytes);
    // Address spaces share the VA layout but never a physical frame.
    EXPECT_EQ(va1, va2);
    EXPECT_NE(p1.translate(va1), p2.translate(va2));
}

TEST_F(MemorySystemTest, EventsFireDuringAccessLatency)
{
    AddressSpace &proc = machine_.create_process();
    const Addr va = proc.mmap(kPageBytes);
    bool fired = false;
    machine_.clock().set_alarm_in(1, [&] { fired = true; });
    machine_.access(proc.pid(), va, AccessType::kLoad);
    EXPECT_TRUE(fired);
}

TEST_F(MemorySystemTest, AccessesAreChargedToTheOwningSpace)
{
    AddressSpace &p1 = machine_.create_process();
    AddressSpace &p2 = machine_.create_process();
    const Addr va1 = p1.mmap(kPageBytes);
    const Addr va2 = p2.mmap(kPageBytes);

    for (int i = 0; i < 3; ++i)
        machine_.access(p1.pid(), va1, AccessType::kLoad);
    machine_.access(p2.pid(), va2, AccessType::kStore);

    EXPECT_EQ(p1.accesses(), 3u);
    EXPECT_EQ(p2.accesses(), 1u);
    EXPECT_EQ(machine_.process_count(), 2u);
}

TEST_F(MemorySystemTest, TlbFlushesStayWithinTheirSpace)
{
    AddressSpace &p1 = machine_.create_process();
    AddressSpace &p2 = machine_.create_process();
    const Addr va1 = p1.mmap(kPageBytes);
    EXPECT_EQ(p1.tlb_flushes(), 1u);  // the mmap itself

    // Another tenant's mapping churn must never evict this process's
    // cached translations.
    for (int i = 0; i < 4; ++i) {
        const Addr va2 = p2.mmap(kPageBytes);
        p2.munmap(va2, kPageBytes);
    }
    EXPECT_EQ(p1.tlb_flushes(), 1u);
    EXPECT_EQ(p2.tlb_flushes(), 8u);  // 4 x (mmap + munmap)

    // A warm translation survives the neighbor's churn.
    (void)p1.translate(va1);
    const std::uint64_t misses_before = p1.tlb_misses();
    (void)p1.translate(va1);
    EXPECT_EQ(p1.tlb_misses(), misses_before);
}

/**
 * One simulated machine plus everything observing it: a PMU with an armed
 * overflow interrupt and PEBS sampling of loads and stores, a clock
 * alarm its handler re-arms every 7 us, and an activation observer that
 * re-enters DRAM with a refresh read (the tracker path). Built
 * identically for both sides of the test.
 */
struct ObservedMachine : dram::ActivationObserver {
    explicit ObservedMachine(const SystemConfig &config)
        : mem(config), pmu(mem.pmu())
    {
        pmu::SampleConfig sampling;
        sampling.mean_period = us(2);
        sampling.sample_stores = true;
        pmu.enable_sampling(sampling);
        arm_pmi();
        arm_timer();
        mem.dram().attach(*this);
        for (int p = 0; p < 2; ++p)
            mem.create_process();
    }

    /** Every 61st activation refreshes a row from inside the callback. */
    void
    on_activate(std::uint32_t bank, std::uint32_t row, Tick now) override
    {
        if (in_hook || ++activations % 61 != 0)
            return;
        in_hook = true;
        const std::uint32_t rows = mem.dram().config().rows_per_bank;
        mem.dram().refresh_row(bank, (row + 8) % rows, now);
        in_hook = false;
    }

    void
    arm_pmi()
    {
        pmu.counter(pmu::Event::kLlcMisses).arm_overflow(37, [this] {
            ++pmis;
            arm_pmi();
        });
    }

    void
    arm_timer()
    {
        mem.clock().set_alarm_in(us(7), [this] {
            ++timer_fires;
            arm_timer();
        });
    }

    MemorySystem mem;
    pmu::Pmu &pmu;
    std::uint64_t timer_fires = 0;
    std::uint64_t pmis = 0;
    std::uint64_t activations = 0;
    bool in_hook = false;
};

/** MemorySystem::access as the public layer calls it is made of. */
AccessInfo
composed_access(ObservedMachine &m, Pid pid, Addr va, AccessType type)
{
    AddressSpace &space = m.mem.process(pid);
    const Addr pa = space.translate(va);
    const cache::CacheHierarchy::Result on_chip =
        m.mem.hierarchy().access(pa, type);
    Tick latency = m.mem.core().cycles_to_ticks(on_chip.latency);
    if (on_chip.llc_miss)
        latency = m.mem.dram().access(pa, m.mem.now()).latency;
    m.mem.clock().elapse(latency);

    AccessInfo info;
    info.pid = pid;
    info.va = va;
    info.pa = pa;
    info.type = type;
    info.source = on_chip.source;
    info.latency = latency;
    info.llc_miss = on_chip.llc_miss;
    info.complete_time = m.mem.now();
    space.note_access();
    m.pmu.on_access(info);
    return info;
}

/** MemorySystem::clflush, composed the same way. */
void
composed_clflush(ObservedMachine &m, Pid pid, Addr va)
{
    m.mem.hierarchy().clflush(m.mem.process(pid).translate(va));
    m.mem.clock().elapse(
        m.mem.core().cycles_to_ticks(m.mem.config().clflush_cycles));
}

/** MemorySystem::refresh_row_phys, composed the same way. */
void
composed_refresh(ObservedMachine &m, Addr pa)
{
    m.mem.clock().elapse(m.mem.dram().refresh_row(pa, m.mem.now()));
}

void
expect_same_stats(const cache::CacheStats &a, const cache::CacheStats &b,
                  const std::string &level)
{
    EXPECT_EQ(a.accesses, b.accesses) << level;
    EXPECT_EQ(a.hits, b.hits) << level;
    EXPECT_EQ(a.misses, b.misses) << level;
    EXPECT_EQ(a.fills, b.fills) << level;
    EXPECT_EQ(a.evictions, b.evictions) << level;
    EXPECT_EQ(a.invalidations, b.invalidations) << level;
}

/**
 * The memory system's entry points against the public layer calls
 * composed by hand (translate, CacheHierarchy::access, DramSystem::access
 * in place of the on-chip latency on an LLC miss, a PMU fed directly), over
 * one mixed stream of random lines, a same-bank hammer pair, CLFLUSH,
 * selective refresh, loads and stores from two processes. Every access, counter, flip and
 * PMU observation must agree: the entry points may compile to one
 * flattened body, but they must stay exactly the composition of the
 * layers that perfbench's per-layer replays time on their own.
 */
TEST(MemorySystemLayers, EntryPointsMatchTheComposedLayerCalls)
{
    SystemConfig config;
    config.dram.ranks_per_channel = 1;
    config.dram.banks_per_rank = 8;
    config.dram.rows_per_bank = 4096;
    config.dram.flip_threshold = 500;

    ObservedMachine whole(config);
    ObservedMachine parts(config);
    constexpr std::uint64_t kBig = 6ULL << 20;
    constexpr std::uint64_t kSmall = 1ULL << 20;
    const Addr big = whole.mem.process(0).mmap(kBig);
    const Addr small = whole.mem.process(1).mmap(kSmall);
    ASSERT_EQ(parts.mem.process(0).mmap(kBig), big);
    ASSERT_EQ(parts.mem.process(1).mmap(kSmall), small);

    // Two lines of one bank in different rows: alternating them with
    // CLFLUSH activates both rows on every access. The search runs on
    // both machines, so their TLBs see the same translations.
    const auto same_bank_partner = [&](ObservedMachine &m) {
        const dram::AddressMap &map = m.mem.dram().address_map();
        const AddressSpace &space = m.mem.process(0);
        const dram::DramCoord first = map.decode(space.translate(big));
        for (Addr va = big + 64; va < big + kBig; va += 64) {
            const dram::DramCoord c = map.decode(space.translate(va));
            if (map.flat_bank(c) == map.flat_bank(first) &&
                c.row != first.row)
                return va;
        }
        return kInvalidAddr;
    };
    const Addr hammer[2] = {big, same_bank_partner(whole)};
    ASSERT_NE(hammer[1], kInvalidAddr);
    ASSERT_EQ(same_bank_partner(parts), hammer[1]);

    Rng rng(0xC0FFEEULL);
    for (int step = 0; step < 40000; ++step) {
        const std::uint64_t kind = rng.next_below(100);
        const AccessType type = rng.next_bool(0.3) ? AccessType::kStore
                                                   : AccessType::kLoad;
        const Pid pid = kind < 85 ? 0 : 1;
        const Addr va =
            pid == 0 ? big + rng.next_below(kBig / 64) * 64
                     : small + rng.next_below(kSmall / 64) * 64;
        if (kind < 40 || kind >= 85) {
            const AccessInfo a = whole.mem.access(pid, va, type);
            const AccessInfo b = composed_access(parts, pid, va, type);
            ASSERT_EQ(a.pid, b.pid) << step;
            ASSERT_EQ(a.va, b.va) << step;
            ASSERT_EQ(a.pa, b.pa) << step;
            ASSERT_EQ(a.type, b.type) << step;
            ASSERT_EQ(a.source, b.source) << step;
            ASSERT_EQ(a.latency, b.latency) << step;
            ASSERT_EQ(a.llc_miss, b.llc_miss) << step;
            ASSERT_EQ(a.complete_time, b.complete_time) << step;
        } else if (kind < 75) {
            const Addr target = hammer[step & 1];
            const AccessInfo a = whole.mem.access(0, target, type);
            const AccessInfo b = composed_access(parts, 0, target, type);
            ASSERT_EQ(a.latency, b.latency) << step;
            ASSERT_EQ(a.complete_time, b.complete_time) << step;
            whole.mem.clflush(0, target);
            composed_clflush(parts, 0, target);
        } else if (kind < 82) {
            whole.mem.clflush(pid, va);
            composed_clflush(parts, pid, va);
        } else {
            whole.mem.refresh_row_phys(
                whole.mem.process(pid).translate(va));
            composed_refresh(parts, parts.mem.process(pid).translate(va));
        }
        ASSERT_EQ(whole.mem.now(), parts.mem.now()) << step;
    }

    const cache::CacheHierarchy &hw = whole.mem.hierarchy();
    const cache::CacheHierarchy &hp = parts.mem.hierarchy();
    expect_same_stats(hw.l1().stats(), hp.l1().stats(), "L1");
    expect_same_stats(hw.l2().stats(), hp.l2().stats(), "L2");
    for (std::uint32_t s = 0; s < hw.config().llc_slices; ++s)
        expect_same_stats(hw.llc(s).stats(), hp.llc(s).stats(),
                          hw.llc(s).name());

    const dram::DramSystem::Stats &dw = whole.mem.dram().stats();
    const dram::DramSystem::Stats &dp = parts.mem.dram().stats();
    EXPECT_EQ(dw.accesses, dp.accesses);
    EXPECT_EQ(dw.row_hits, dp.row_hits);
    EXPECT_EQ(dw.row_misses, dp.row_misses);
    EXPECT_EQ(dw.selective_refreshes, dp.selective_refreshes);
    EXPECT_EQ(dw.refresh_stall, dp.refresh_stall);

    const std::vector<dram::FlipEvent> &fw = whole.mem.dram().flips();
    const std::vector<dram::FlipEvent> &fp = parts.mem.dram().flips();
    ASSERT_EQ(fw.size(), fp.size());
    for (std::size_t i = 0; i < fw.size(); ++i) {
        EXPECT_EQ(fw[i].time, fp[i].time) << i;
        EXPECT_EQ(fw[i].flat_bank, fp[i].flat_bank) << i;
        EXPECT_EQ(fw[i].row, fp[i].row) << i;
        EXPECT_EQ(fw[i].disturbance, fp[i].disturbance) << i;
        EXPECT_EQ(fw[i].threshold, fp[i].threshold) << i;
    }

    for (std::size_t e = 0; e < pmu::kNumEvents; ++e) {
        const auto event = static_cast<pmu::Event>(e);
        EXPECT_EQ(whole.pmu.counter(event).value(),
                  parts.pmu.counter(event).value())
            << "event " << e;
    }
    std::vector<pmu::PebsRecord> rw;
    std::vector<pmu::PebsRecord> rp;
    whole.pmu.drain_samples(rw);
    parts.pmu.drain_samples(rp);
    ASSERT_EQ(rw.size(), rp.size());
    for (std::size_t i = 0; i < rw.size(); ++i) {
        EXPECT_EQ(rw[i].pid, rp[i].pid) << i;
        EXPECT_EQ(rw[i].va, rp[i].va) << i;
        EXPECT_EQ(rw[i].type, rp[i].type) << i;
        EXPECT_EQ(rw[i].source, rp[i].source) << i;
        EXPECT_EQ(rw[i].latency, rp[i].latency) << i;
        EXPECT_EQ(rw[i].time, rp[i].time) << i;
    }
    EXPECT_EQ(whole.pmis, parts.pmis);
    EXPECT_EQ(whole.timer_fires, parts.timer_fires);
    EXPECT_EQ(whole.activations, parts.activations);
    for (Pid pid = 0; pid < 2; ++pid) {
        EXPECT_EQ(whole.mem.process(pid).accesses(),
                  parts.mem.process(pid).accesses());
        EXPECT_EQ(whole.mem.process(pid).tlb_misses(),
                  parts.mem.process(pid).tlb_misses());
    }

    // The stream reaches every path it is meant to compare.
    EXPECT_FALSE(fw.empty());
    EXPECT_FALSE(rw.empty());
    EXPECT_GT(whole.pmis, 0u);
    EXPECT_GT(whole.timer_fires, 0u);
    EXPECT_GT(whole.activations, 61u);
    EXPECT_GT(hw.l2().stats().hits, 0u);
    EXPECT_GT(whole.mem.hierarchy().llc_stats().hits, 0u);
    EXPECT_GT(whole.mem.process(1).tlb_misses(), 0u);
}

/**
 * MemorySystem::run against the same ops issued as access() and
 * clflush() calls, on two identical machines, through everything that
 * decides how a run may skip work: untouched replays of the memo's
 * chain, translations kept per mapping, and the fallbacks from both.
 * The program loads @p lines lines of one L1, L2 and LLC set, then
 * CLFLUSHes the first; it runs in streaks of 1 to 20. Between streaks,
 * process 0 touches lines inside the program's sets (new memo states,
 * more than kMemoCapacity of them, so entries are replaced) and lines
 * outside them, touches its second region (the region memo moves),
 * maps and unmaps regions (tlb_flushes moves), and runs a second program
 * whose ops span both regions; process 1 runs traffic of its own. Last,
 * an unmap renumbers the regions under a kept translation. Every
 * access's outcome, the cache counters and set contents, and each
 * space's translation counters must agree.
 */
void
expect_program_runs_match_op_by_op(const cache::HierarchyConfig &cache,
                                   std::uint64_t lines)
{
    SCOPED_TRACE(testing::Message()
                 << "LLC " << cache::to_string(cache.llc_policy) << ", "
                 << lines << " lines");
    SystemConfig config;
    config.dram.ranks_per_channel = 1;
    config.dram.banks_per_rank = 8;
    config.dram.rows_per_bank = 4096;
    config.cache = cache;
    struct Side {
        explicit Side(const SystemConfig &c) : mem(c)
        {
            mem.add_observer([this](const AccessInfo &i) { log.push_back(i); });
            for (int p = 0; p < 2; ++p)
                mem.create_process();
        }
        MemorySystem mem;
        std::vector<AccessInfo> log;
    };
    Side programmed(config);
    Side by_hand(config);

    // Lines 128 KB apart share their L1, L2 and LLC set (slices differ).
    constexpr std::uint64_t kBig = 8ULL << 20;
    constexpr std::uint64_t kSetStride = 128ULL << 10;
    constexpr std::uint64_t kSmall = 64ULL << 10;
    Addr spare = 0, big = 0, small = 0, other = 0;
    for (Side *side : {&programmed, &by_hand}) {
        spare = side->mem.process(0).mmap(kSmall);
        big = side->mem.process(0).mmap(kBig);
        small = side->mem.process(0).mmap(kSmall);
        other = side->mem.process(1).mmap(kBig);
    }
    using Op = cache::AccessProgram::Op;
    std::vector<Op> eviction;  // same-set lines, then a CLFLUSH
    for (std::uint64_t k = 0; k < lines; ++k)
        eviction.push_back({big + k * kSetStride, AccessType::kLoad, false});
    eviction.push_back({big, AccessType::kLoad, true});
    const std::vector<Op> spanning = {
        {big, AccessType::kLoad, false},
        {small + 64, AccessType::kStore, false},
        {big + kSetStride, AccessType::kLoad, false},
        {small + 4096, AccessType::kLoad, true},
    };
    cache::AccessProgram p1(eviction);
    cache::AccessProgram p2(spanning);

    const auto run = [&](cache::AccessProgram &program) {
        programmed.mem.run(0, program);
        for (const Op &op : program.ops()) {
            if (op.clflush)
                by_hand.mem.clflush(0, op.addr);
            else
                by_hand.mem.access(0, op.addr, op.type);
        }
    };
    const auto access = [&](Pid pid, Addr va) {
        programmed.mem.access(pid, va, AccessType::kLoad);
        by_hand.mem.access(pid, va, AccessType::kLoad);
    };

    Rng rng(0x5EED);
    std::vector<Addr> extra;  // regions mapped mid-run, per side alike
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t pick = rng.next_below(100);
        if (pick < 50) {
            for (std::uint64_t n = 1 + rng.next_below(20); n > 0; --n)
                run(p1);
        } else if (pick < 58) {
            run(p2);
        } else if (pick < 73) {
            access(0, big + (lines + rng.next_below(30)) * kSetStride);
        } else if (pick < 83) {
            access(0, big + rng.next_below(kBig / 64) * 64);
        } else if (pick < 91) {
            access(1, other + rng.next_below(kBig / 64) * 64);
        } else if (pick < 96) {
            access(0, small + rng.next_below(kSmall / 64) * 64);
        } else if (pick < 98) {
            const Addr va = big + rng.next_below(12) * kSetStride;
            programmed.mem.clflush(0, va);
            by_hand.mem.clflush(0, va);
        } else if (extra.size() < 8 && pick < 99) {
            Addr va = 0;
            for (Side *side : {&programmed, &by_hand})
                va = side->mem.process(0).mmap(kSmall);
            extra.push_back(va);
        } else if (!extra.empty()) {
            for (Side *side : {&programmed, &by_hand})
                side->mem.process(0).munmap(extra.back(), kSmall);
            extra.pop_back();
        }
    }
    // Unmapping the lowest region renumbers the others: the memo then
    // names `small` by the index `big` had when p1 last translated, and
    // only tlb_flushes() tells the two apart.
    run(p1);
    for (Side *side : {&programmed, &by_hand})
        side->mem.process(0).munmap(spare, kSmall);
    access(0, small);
    run(p1);

    // Both memo paths and entry replacement were exercised.
    EXPECT_GT(p1.memo_hits(), 1000u);
    EXPECT_GT(p1.memo_misses(), cache::AccessProgram::kMemoCapacity);
    EXPECT_GT(p2.memo_hits(), 0u);

    ASSERT_EQ(programmed.log.size(), by_hand.log.size());
    for (std::size_t i = 0; i < by_hand.log.size(); ++i) {
        const AccessInfo &a = programmed.log[i];
        const AccessInfo &b = by_hand.log[i];
        ASSERT_EQ(std::tie(a.pid, a.va, a.pa, a.type, a.source, a.latency,
                           a.llc_miss, a.complete_time),
                  std::tie(b.pid, b.va, b.pa, b.type, b.source, b.latency,
                           b.llc_miss, b.complete_time))
            << "access " << i;
    }
    EXPECT_EQ(programmed.mem.now(), by_hand.mem.now());

    const cache::CacheHierarchy &ha = programmed.mem.hierarchy();
    const cache::CacheHierarchy &hb = by_hand.mem.hierarchy();
    EXPECT_EQ(ha.operations(), hb.operations());
    expect_same_stats(ha.l1().stats(), hb.l1().stats(), "L1");
    expect_same_stats(ha.l2().stats(), hb.l2().stats(), "L2");
    for (std::uint32_t slice = 0; slice < ha.config().llc_slices; ++slice)
        expect_same_stats(ha.llc(slice).stats(), hb.llc(slice).stats(),
                          "LLC slice " + std::to_string(slice));
    for (std::uint32_t set = 0; set < ha.config().l1_sets; ++set)
        EXPECT_EQ(ha.l1().lines_in_set(set), hb.l1().lines_in_set(set));
    for (std::uint32_t set = 0; set < ha.config().l2_sets; ++set)
        EXPECT_EQ(ha.l2().lines_in_set(set), hb.l2().lines_in_set(set));
    for (std::uint32_t slice = 0; slice < ha.config().llc_slices; ++slice) {
        for (std::uint32_t set = 0; set < ha.config().llc_sets_per_slice;
             ++set)
            EXPECT_EQ(ha.llc(slice).lines_in_set(set),
                      hb.llc(slice).lines_in_set(set));
    }

    for (Pid pid = 0; pid < 2; ++pid) {
        const AddressSpace &a = programmed.mem.process(pid);
        const AddressSpace &b = by_hand.mem.process(pid);
        EXPECT_EQ(std::make_tuple(a.tlb_hits(), a.tlb_misses(),
                                  a.tlb_flushes(), a.accesses()),
                  std::make_tuple(b.tlb_hits(), b.tlb_misses(),
                                  b.tlb_flushes(), b.accesses()))
            << "pid " << pid;
    }
    EXPECT_GT(programmed.mem.process(0).tlb_flushes(), 6u);
}

TEST(ProgramRun, MatchesOpByOpCallsAcrossForeignTrafficAndRemaps)
{
    // The default policies, and SRRIP everywhere, whose longer state
    // cycles replace entries that others still chain to.
    expect_program_runs_match_op_by_op(cache::HierarchyConfig{}, 10);
    cache::HierarchyConfig srrip;
    srrip.l1_policy = srrip.l2_policy = srrip.llc_policy =
        cache::ReplPolicy::kSrrip;
    expect_program_runs_match_op_by_op(srrip, 13);
}

}  // namespace
}  // namespace anvil::mem
