#include "attack/hammer.hh"

#include <stdexcept>

namespace anvil::attack {

Hammer::Hammer(mem::MemorySystem &mem, Pid pid) : mem_(mem), pid_(pid)
{
}

HammerResult
Hammer::run(Tick max_duration)
{
    const dram::DramSystem &dram = mem_.dram();
    const std::size_t base_flips = dram.flips().size();
    const Tick start = mem_.now();

    HammerResult result;
    while (mem_.now() - start < max_duration) {
        iteration();
        ++result.iterations;
        if (dram.flips().size() > base_flips) {
            result.flipped = true;
            break;
        }
    }

    result.aggressor_accesses =
        result.iterations * aggressor_accesses_per_iteration();
    if (result.flipped) {
        result.duration = dram.flips()[base_flips].time - start;
        result.flips.assign(dram.flips().begin() +
                                static_cast<std::ptrdiff_t>(base_flips),
                            dram.flips().end());
    } else {
        result.duration = mem_.now() - start;
    }
    return result;
}

ClflushDoubleSided::ClflushDoubleSided(mem::MemorySystem &mem, Pid pid,
                                       const DoubleSidedTarget &target,
                                       AccessType type)
    : Hammer(mem, pid),
      a0_(target.low_aggressor_va),
      a1_(target.high_aggressor_va),
      type_(type)
{
}

void
ClflushDoubleSided::iteration()
{
    // Figure 1a: access both aggressors, then flush both so the next
    // iteration's accesses reach DRAM.
    mem_.access(pid_, a0_, type_);
    mem_.access(pid_, a1_, type_);
    mem_.clflush(pid_, a0_);
    mem_.clflush(pid_, a1_);
}

ClflushSingleSided::ClflushSingleSided(mem::MemorySystem &mem, Pid pid,
                                       const SingleSidedTarget &target)
    : Hammer(mem, pid),
      aggressor_(target.aggressor_va),
      closer_(target.closer_va)
{
}

void
ClflushSingleSided::iteration()
{
    // The far same-bank access forces the aggressor's row closed so the
    // next iteration re-activates it.
    mem_.access(pid_, aggressor_, AccessType::kLoad);
    mem_.access(pid_, closer_, AccessType::kLoad);
    mem_.clflush(pid_, aggressor_);
    mem_.clflush(pid_, closer_);
}

bool
ClflushFreeDoubleSided::slice_compatible(const mem::MemorySystem &mem,
                                         Pid pid,
                                         const DoubleSidedTarget &target)
{
    const mem::AddressSpace &space = mem.process(pid);
    const Addr pa0 = space.translate(target.low_aggressor_va);
    const Addr pa1 = space.translate(target.high_aggressor_va);
    if (pa0 == kInvalidAddr || pa1 == kInvalidAddr)
        return false;
    // Equal column placement requires the two pages to sit in the same
    // half of their 8 KB rows (page-offset bit 12 of the physical
    // address), and the slice hash over the differing row bits must agree.
    if (((pa0 >> 12) & 1) != ((pa1 >> 12) & 1))
        return false;
    const auto &hierarchy = mem.hierarchy();
    return hierarchy.llc_slice(pa0) == hierarchy.llc_slice(pa1) &&
           hierarchy.llc_set(pa0) == hierarchy.llc_set(pa1);
}

ClflushFreeDoubleSided::ClflushFreeDoubleSided(mem::MemorySystem &mem,
                                               Pid pid,
                                               const DoubleSidedTarget &target,
                                               const MemoryLayout &layout)
    : Hammer(mem, pid),
      a0_(target.low_aggressor_va),
      a1_(target.high_aggressor_va)
{
    if (!slice_compatible(mem, pid, target)) {
        throw std::runtime_error(
            "target aggressors cannot share an LLC set/slice");
    }
    // ways - 1 conflicts + the two aggressors = ways + 1 lines contending
    // for the set: on the 12-way LLC, the same set pressure as the
    // paper's 13-address eviction set.
    touches_ = layout.build_eviction_set(
        a0_, mem.hierarchy().config().llc_ways - 1);
}

void
ClflushFreeDoubleSided::iteration()
{
    // Steady state: a0 and a1 alternate in a single way of the set. Each
    // access of one evicts the other; the ways - 1 touches between them
    // re-set the remaining ways' MRU bits, forcing the Bit-PLRU global
    // reset that exposes the aggressors' way as the next victim.
    mem_.access(pid_, a0_, AccessType::kLoad);
    for (const Addr t : touches_)
        mem_.access(pid_, t, AccessType::kLoad);
    mem_.access(pid_, a1_, AccessType::kLoad);
    for (const Addr t : touches_)
        mem_.access(pid_, t, AccessType::kLoad);
}

ClflushHalfDouble::ClflushHalfDouble(mem::MemorySystem &mem, Pid pid,
                                     const HalfDoubleTarget &target,
                                     std::uint64_t near_touch_interval)
    : Hammer(mem, pid),
      far_low_(target.far_low_va),
      far_high_(target.far_high_va),
      near_low_(target.near_low_va),
      near_high_(target.near_high_va),
      near_touch_interval_(near_touch_interval)
{
    if (near_touch_interval_ == 0)
        throw std::runtime_error("near_touch_interval must be nonzero");
}

void
ClflushHalfDouble::iteration()
{
    // Hammer only the distance-2 aggressors; the victim v between the
    // near rows accrues second-neighbour disturbance from both.
    mem_.access(pid_, far_low_, AccessType::kLoad);
    mem_.access(pid_, far_high_, AccessType::kLoad);
    mem_.clflush(pid_, far_low_);
    mem_.clflush(pid_, far_high_);
    if (++iterations_ % near_touch_interval_ == 0) {
        // Rare touch of the near rows restores THEIR charge (so the
        // attack's collateral disturbance never flips v±1 first) while
        // keeping their activation counts orders of magnitude below any
        // MAC a tracker would act on.
        mem_.access(pid_, near_low_, AccessType::kLoad);
        mem_.access(pid_, near_high_, AccessType::kLoad);
        mem_.clflush(pid_, near_low_);
        mem_.clflush(pid_, near_high_);
    }
}

TrackerThrash::TrackerThrash(mem::MemorySystem &mem, Pid pid,
                             std::vector<Addr> rows)
    : Hammer(mem, pid), rows_(std::move(rows))
{
    if (rows_.empty())
        throw std::runtime_error("tracker thrash needs a non-empty row set");
}

void
TrackerThrash::iteration()
{
    // Every iteration activates a DIFFERENT row: maximal unique-row
    // pressure on tracker tables, negligible disturbance per victim.
    const Addr va = rows_[index_];
    index_ = (index_ + 1) % rows_.size();
    mem_.access(pid_, va, AccessType::kLoad);
    mem_.clflush(pid_, va);
}

}  // namespace anvil::attack
