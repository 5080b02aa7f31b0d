#include "mitigations/rvc.hh"

namespace anvil::mitigations {

Rvc::Rvc(dram::DramSystem &dram, const RvcConfig &config)
    : Mitigation(dram), config_(config)
{
    for (std::uint32_t b = 0; b < dram.config().total_banks(); ++b)
        tables_.emplace_back(config_.table_size);
}

void
Rvc::credit(std::uint32_t flat_bank, std::int64_t row, double weight,
            Tick now)
{
    if (row < 0 ||
        row >= static_cast<std::int64_t>(dram_.config().rows_per_bank))
        return;
    const auto victim = static_cast<std::uint32_t>(row);
    TrackerTable<double> &table = tables_[flat_bank];

    std::size_t slot = table.find(victim);
    if (slot == table.npos) {
        if (table.full()) {
            // Displace the coldest victim (least charge, ties broken
            // oldest-first): a cold victim is by definition the one
            // furthest from its flip threshold.
            slot = table.coldest();
            table.replace(slot, victim, stats_);
        } else {
            slot = table.append(victim, stats_);
        }
    }

    double &charge = table.value(slot);
    charge += weight;
    if (charge >= config_.threshold) {
        charge = 0.0;
        // Victim-centric response: restore the victim itself. No
        // neighbourhood guessing, so it is blast-radius independent.
        refresh_row(flat_bank, row, now);
    }
}

void
Rvc::on_activation(std::uint32_t flat_bank, std::uint32_t row, Tick now)
{
    TrackerTable<double> &table = tables_[flat_bank];
    // Window rollover: the periodic refresh sweep restored every row, so
    // accumulated credit is stale.
    if (table.roll(now / dram_.config().refresh_period))
        table.clear();

    // The activation restored the accessed row's own charge; its
    // accumulated credit (if tracked) is gone with it.
    if (const std::size_t slot = table.find(row); slot != table.npos)
        table.value(slot) = 0.0;

    const auto r = static_cast<std::int64_t>(row);
    credit(flat_bank, r - 1, 1.0, now);
    credit(flat_bank, r + 1, 1.0, now);
    if (config_.second_neighbor_weight > 0.0) {
        credit(flat_bank, r - 2, config_.second_neighbor_weight, now);
        credit(flat_bank, r + 2, config_.second_neighbor_weight, now);
    }
}

}  // namespace anvil::mitigations
