#include "mem/memory_system.hh"

#include <stdexcept>

#include "common/compiler.hh"

namespace anvil::mem {

MemorySystem::MemorySystem(const SystemConfig &config)
    : config_(config),
      frames_(config.dram.capacity_bytes(), config.vm_seed),
      dram_(config.dram),
      hierarchy_(config.cache)
{
    const auto idx = [](DataSource s) {
        return static_cast<std::size_t>(s);
    };
    on_chip_ticks_[idx(DataSource::kL1)] =
        config_.core.cycles_to_ticks(config_.cache.l1_latency);
    on_chip_ticks_[idx(DataSource::kL2)] =
        config_.core.cycles_to_ticks(config_.cache.l2_latency);
    on_chip_ticks_[idx(DataSource::kLlc)] =
        config_.core.cycles_to_ticks(config_.cache.llc_latency);
    on_chip_ticks_[idx(DataSource::kDram)] =
        config_.core.cycles_to_ticks(config_.cache.llc_latency);
    clflush_ticks_ = config_.core.cycles_to_ticks(config_.clflush_cycles);
}

AddressSpace &
MemorySystem::create_process()
{
    const Pid pid = static_cast<Pid>(spaces_.size());
    spaces_.push_back(std::make_unique<AddressSpace>(pid, frames_));
    return *spaces_.back();
}

ANVIL_FLATTEN AccessInfo
MemorySystem::access(Pid pid, Addr va, AccessType type)
{
    AddressSpace &space = process(pid);
    const Addr pa = space.translate(va);
    if (pa == kInvalidAddr)
        throw std::out_of_range("access to unmapped virtual address");

    const auto on_chip = hierarchy_.access(pa, type);
    Tick latency = on_chip_ticks_[static_cast<std::size_t>(on_chip.source)];
    if (on_chip.llc_miss)
        latency = dram_.access(pa, clock_.now()).latency;

    clock_.elapse(latency);

    AccessInfo info;
    info.pid = pid;
    info.va = va;
    info.pa = pa;
    info.type = type;
    info.source = on_chip.source;
    info.latency = latency;
    info.llc_miss = on_chip.llc_miss;
    info.complete_time = clock_.now();

    space.note_access();
    if (listener_ != nullptr)
        listener_->on_access(info);
    for (const auto &observer : observers_)
        observer(info);
    return info;
}

ANVIL_FLATTEN void
MemorySystem::clflush(Pid pid, Addr va)
{
    AddressSpace &space = process(pid);
    const Addr pa = space.translate(va);
    if (pa == kInvalidAddr)
        throw std::out_of_range("clflush of unmapped virtual address");
    hierarchy_.clflush(pa);
    clock_.elapse(clflush_ticks_);
}

void
MemorySystem::advance_cycles(Cycles n)
{
    clock_.elapse(config_.core.cycles_to_ticks(n));
}

void
MemorySystem::refresh_row_phys(Addr pa)
{
    const Tick latency = dram_.refresh_row(pa, clock_.now());
    clock_.elapse(latency);
}

void
MemorySystem::add_observer(Observer observer)
{
    observers_.push_back(std::move(observer));
}

}  // namespace anvil::mem
