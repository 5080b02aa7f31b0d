#include "scenario/scheduler.hh"

#include <algorithm>
#include <map>

namespace anvil::scenario {
namespace {

constexpr Tick kNoDeadline = ~static_cast<Tick>(0);

}  // namespace

std::vector<std::string>
tenant_labels(const ScenarioSpec &spec)
{
    std::vector<std::string> labels;
    labels.reserve(spec.tenants.size());
    std::map<std::string, std::uint32_t> used;
    for (const TenantSpec &t : spec.tenants) {
        std::string base = t.name;
        if (base.empty()) {
            if (t.attack)
                base = "attacker";
            else if (t.workload && !t.workload->profile.empty())
                base = t.workload->profile;
            else
                base = "tenant";
        }
        const std::uint32_t n = ++used[base];
        labels.push_back(n == 1 ? base : base + "#" + std::to_string(n));
    }
    return labels;
}

void
TenantScheduler::add(ScheduledTenant tenant)
{
    if (tenant.quantum_accesses == 0)
        tenant.quantum_accesses = 1;
    tenants_.push_back(std::move(tenant));
    stats_.emplace_back();
}

void
TenantScheduler::run_quantum(std::size_t index, Tick deadline)
{
    ScheduledTenant &t = tenants_[index];
    TenantRunStats &s = stats_[index];
    const bool track = t.pid != kInvalidPid;
    std::uint64_t consumed = 0;
    bool stepped = false;
    while (consumed < t.quantum_accesses) {
        if (mem_.now() >= deadline)
            break;
        const std::uint64_t before =
            track ? mem_.process(t.pid).accesses() : 0;
        t.step();
        ++s.steps;
        stepped = true;
        const std::uint64_t delta =
            track ? mem_.process(t.pid).accesses() - before : 1;
        s.accesses += delta;
        // A step that completed no counted access (a pure-CLFLUSH
        // hammer iteration, say) still consumes one unit: the quantum
        // always drains and the schedule can never livelock.
        consumed += std::max<std::uint64_t>(1, delta);
    }
    if (stepped)
        ++s.quanta;
}

void
TenantScheduler::run_until(Tick deadline)
{
    if (tenants_.empty()) {
        if (mem_.now() < deadline)
            mem_.advance(deadline - mem_.now());
        return;
    }
    while (mem_.now() < deadline) {
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            run_quantum(i, deadline);
    }
}

void
TenantScheduler::run_rounds(const std::function<bool()> &more)
{
    if (tenants_.empty())
        return;
    while (more()) {
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            run_quantum(i, kNoDeadline);
    }
}

}  // namespace anvil::scenario
