#include "mitigations/dapper.hh"

namespace anvil::mitigations {

Dapper::Dapper(dram::DramSystem &dram, const DapperConfig &config)
    : Mitigation(dram), config_(config), t_refi_(dram.config().t_refi())
{
    for (std::uint32_t b = 0; b < dram.config().total_banks(); ++b)
        tables_.emplace_back(config_.table_size);
}

bool
Dapper::spend_budget(Tick now)
{
    const std::uint64_t window = now / t_refi_;
    if (window != budget_window_) {
        budget_window_ = window;
        budget_spent_ = 0;
    }
    if (budget_spent_ >= config_.refresh_budget)
        return false;
    ++budget_spent_;
    return true;
}

void
Dapper::on_activation(std::uint32_t flat_bank, std::uint32_t row, Tick now)
{
    TrackerTable<std::uint64_t> &table = tables_[flat_bank];
    if (table.roll(now / dram_.config().refresh_period))
        table.clear();

    std::size_t slot = table.find(row);
    if (slot == table.npos) {
        if (table.full()) {
            // Misra-Gries step: a cold row at a full table decrements
            // every counter instead of evicting. Thrash traffic drains
            // state; it cannot manufacture refreshes.
            for (std::uint64_t &count : table.values()) {
                if (count > 0)
                    --count;
            }
            table.remove_if([](std::uint64_t count) { return count == 0; },
                            stats_);
            return;
        }
        slot = table.append(row, stats_);
    }

    std::uint64_t &count = table.value(slot);
    ++count;
    if (count >= config_.mac) {
        // Budgeted response: past the per-tREFI cap the counter stays
        // armed (count is preserved) and the refresh retries on the
        // row's next activation, in a later interval.
        if (spend_budget(now)) {
            count = 0;
            refresh_neighbors(flat_bank, row, now,
                              config_.refresh_radius);
        } else {
            ++stats_.refreshes_suppressed;
        }
    }
}

}  // namespace anvil::mitigations
