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
        std::string base = "tenant";
        if (t.attack)
            base = "attacker";
        else if (t.workload && !t.workload->profile.empty())
            base = t.workload->profile;
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
}

void
TenantScheduler::run_quantum(std::size_t index, Tick deadline)
{
    const ScheduledTenant &t = tenants_[index];
    std::visit(
        [&](auto *tenant) {
            const mem::AddressSpace &space = mem_.process(tenant->pid());
            std::uint64_t consumed = 0;
            while (consumed < t.quantum_accesses && mem_.now() < deadline) {
                const std::uint64_t before = space.accesses();
                tenant->step();
                // A step that completed no counted access (a pure-CLFLUSH
                // hammer iteration, say) still consumes one unit: the
                // quantum always drains and the schedule can never
                // livelock.
                consumed +=
                    std::max<std::uint64_t>(1, space.accesses() - before);
            }
        },
        t.payload);
}

void
TenantScheduler::run_until(Tick deadline)
{
    if (tenants_.empty()) {
        if (mem_.now() < deadline)
            mem_.advance(deadline - mem_.now());
        return;
    }
    if (tenants_.size() == 1) {
        // With nobody to yield to, quanta only cut the same step
        // sequence into turns: check the deadline before every step.
        std::visit(
            [&](auto *tenant) {
                while (mem_.now() < deadline)
                    tenant->step();
            },
            tenants_.front().payload);
        return;
    }
    while (mem_.now() < deadline) {
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            run_quantum(i, deadline);
    }
}

void
TenantScheduler::run_rounds(const workload::Workload &lead,
                            std::uint64_t quota)
{
    const std::uint64_t start_ops = lead.ops();
    while (lead.ops() - start_ops < quota) {
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            run_quantum(i, kNoDeadline);
    }
}

}  // namespace anvil::scenario
