#include "scenario/testbed.hh"

#include <algorithm>

namespace anvil::scenario {

Attacker::Attacker(mem::MemorySystem &machine)
    : space(&machine.create_process()),
      buffer(space->mmap(kDefaultAttackBufferBytes)),
      layout(*space, machine.dram().address_map(), machine.hierarchy())
{
    layout.scan(buffer, kDefaultAttackBufferBytes);
}

bool
is_weakest_victim(const mem::MemorySystem &machine,
                  std::uint32_t flat_bank, std::uint32_t victim_row)
{
    return machine.dram().disturbance(flat_bank).threshold_of(victim_row) ==
           machine.dram().config().flip_threshold;
}

std::optional<attack::DoubleSidedTarget>
weakest_double_sided(mem::MemorySystem &machine, Attacker &attacker,
                     bool require_slice_compatible)
{
    for (const auto &t : attacker.layout.find_double_sided_targets(1024)) {
        if (!is_weakest_victim(machine, t.flat_bank, t.victim_row))
            continue;
        if (require_slice_compatible &&
            !attack::ClflushFreeDoubleSided::slice_compatible(
                machine, attacker.pid(), t)) {
            continue;
        }
        return t;
    }
    return std::nullopt;
}

std::optional<attack::SingleSidedTarget>
weakest_single_sided(mem::MemorySystem &machine, Attacker &attacker)
{
    for (const auto &t :
         attacker.layout.find_single_sided_targets(1024, 64)) {
        if (is_weakest_victim(machine, t.flat_bank, t.aggressor_row + 1))
            return t;
    }
    return std::nullopt;
}

std::optional<attack::HalfDoubleTarget>
weakest_half_double(mem::MemorySystem &machine, Attacker &attacker)
{
    for (const auto &t : attacker.layout.find_half_double_targets(1024)) {
        if (is_weakest_victim(machine, t.flat_bank, t.victim_row))
            return t;
    }
    return std::nullopt;
}

void
align_to_refresh(mem::MemorySystem &machine, std::uint32_t victim_row)
{
    const auto &schedule = machine.dram().refresh_schedule();
    machine.advance(schedule.next_refresh(victim_row, machine.now()) + 10 -
                    machine.now());
}

double
boost_thrash_rate(workload::SpecProfile &profile,
                  double target_component_rate, double max_total_rate)
{
    const double rate = profile.thrash_phases_per_sec;
    if (rate <= 0.0)
        return 1.0;
    double min_fraction = 1.0;
    const double weak_fraction = 1.0 - profile.thrash_burst_fraction -
                                 profile.thrash_strong_fraction;
    for (const double f : {profile.thrash_burst_fraction,
                           profile.thrash_strong_fraction, weak_fraction}) {
        if (f > 1e-9)
            min_fraction = std::min(min_fraction, f);
    }
    double boost = target_component_rate / (rate * min_fraction);
    boost = std::max(1.0, std::min(boost, max_total_rate / rate));
    profile.thrash_phases_per_sec = rate * boost;
    return boost;
}

}  // namespace anvil::scenario
