#include "attack/hammer.hh"

#include <stdexcept>

namespace anvil::attack {

namespace {

using Op = cache::AccessProgram::Op;

/** A load (or @p type access) of @p va. */
Op
touch(Addr va, AccessType type = AccessType::kLoad)
{
    return {va, type, false};
}

/** A CLFLUSH of @p va. */
Op
flush(Addr va)
{
    return {va, AccessType::kLoad, true};
}

/**
 * The lines that evict @p target's aggressors from their shared LLC set.
 * @throw std::runtime_error if the aggressors cannot share one.
 */
std::vector<Addr>
conflict_set(const mem::MemorySystem &mem, Pid pid,
             const DoubleSidedTarget &target, const MemoryLayout &layout)
{
    if (!ClflushFreeDoubleSided::slice_compatible(mem, pid, target)) {
        throw std::runtime_error(
            "target aggressors cannot share an LLC set/slice");
    }
    // ways - 1 conflicts + the two aggressors = ways + 1 lines contending
    // for the set: on the 12-way LLC, the same set pressure as the
    // paper's 13-address eviction set.
    return layout.build_eviction_set(
        target.low_aggressor_va, mem.hierarchy().config().llc_ways - 1);
}

/**
 * One iteration of Figure 1b. Steady state: a0 and a1 alternate in a
 * single way of the set. Each access of one evicts the other; the
 * ways - 1 touches between them re-set the remaining ways' MRU bits,
 * forcing the Bit-PLRU global reset that exposes the aggressors' way as
 * the next victim.
 */
std::vector<Op>
eviction_pattern(Addr a0, Addr a1, const std::vector<Addr> &touches)
{
    std::vector<Op> ops;
    for (const Addr aggressor : {a0, a1}) {
        ops.push_back(touch(aggressor));
        for (const Addr t : touches)
            ops.push_back(touch(t));
    }
    return ops;
}

}  // namespace

Hammer::Hammer(mem::MemorySystem &mem, Pid pid, std::vector<Op> program,
               std::uint64_t aggressor_accesses)
    : mem_(mem),
      pid_(pid),
      program_(std::move(program)),
      aggressor_accesses_(aggressor_accesses)
{
}

HammerResult
Hammer::run(Tick max_duration, Tick step_gap)
{
    const dram::DramSystem &dram = mem_.dram();
    const std::size_t base_flips = dram.flips().size();
    const Tick start = mem_.now();

    HammerResult result;
    while (mem_.now() - start < max_duration) {
        iteration();
        ++result.iterations;
        if (step_gap != 0)
            mem_.advance(step_gap);
        if (dram.flips().size() > base_flips) {
            result.flipped = true;
            break;
        }
    }

    result.aggressor_accesses = result.iterations * aggressor_accesses_;
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
    // Figure 1a: access both aggressors, then flush both so the next
    // iteration's accesses reach DRAM.
    : Hammer(mem, pid,
             {touch(target.low_aggressor_va, type),
              touch(target.high_aggressor_va, type),
              flush(target.low_aggressor_va),
              flush(target.high_aggressor_va)},
             2)
{
}

ClflushSingleSided::ClflushSingleSided(mem::MemorySystem &mem, Pid pid,
                                       const SingleSidedTarget &target)
    // The far same-bank access forces the aggressor's row closed so the
    // next iteration re-activates it.
    : Hammer(mem, pid,
             {touch(target.aggressor_va), touch(target.closer_va),
              flush(target.aggressor_va), flush(target.closer_va)},
             1)
{
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
    : Hammer(mem, pid,
             eviction_pattern(target.low_aggressor_va,
                              target.high_aggressor_va,
                              conflict_set(mem, pid, target, layout)),
             2)
{
}

std::vector<Addr>
ClflushFreeDoubleSided::touch_set() const
{
    const std::vector<Op> &ops = program_.ops();
    std::vector<Addr> touches;
    for (std::size_t i = 1; i < ops.size() / 2; ++i)
        touches.push_back(ops[i].addr);
    return touches;
}

ClflushHalfDouble::ClflushHalfDouble(mem::MemorySystem &mem, Pid pid,
                                     const HalfDoubleTarget &target,
                                     std::uint64_t near_touch_interval)
    // Hammer only the distance-2 aggressors; the victim v between the
    // near rows accrues second-neighbour disturbance from both.
    : Hammer(mem, pid,
             {touch(target.far_low_va), touch(target.far_high_va),
              flush(target.far_low_va), flush(target.far_high_va)},
             2),
      // Rare touch of the near rows restores THEIR charge (so the
      // attack's collateral disturbance never flips v±1 first) while
      // keeping their activation counts orders of magnitude below any
      // MAC a tracker would act on.
      far_near_({touch(target.far_low_va), touch(target.far_high_va),
                 flush(target.far_low_va), flush(target.far_high_va),
                 touch(target.near_low_va), touch(target.near_high_va),
                 flush(target.near_low_va), flush(target.near_high_va)}),
      near_touch_interval_(near_touch_interval)
{
    if (near_touch_interval_ == 0)
        throw std::runtime_error("near_touch_interval must be nonzero");
}

void
ClflushHalfDouble::iteration()
{
    mem_.run(pid_, ++iterations_ % near_touch_interval_ == 0 ? far_near_
                                                            : program_);
}

TrackerThrash::TrackerThrash(mem::MemorySystem &mem, Pid pid,
                             std::vector<Addr> rows)
    : Hammer(mem, pid, {}, 1), rows_(std::move(rows))
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
