#include "mitigations/mitigation.hh"

namespace anvil::mitigations {

Mitigation::Mitigation(dram::DramSystem &dram) : dram_(dram)
{
    dram_.attach(*this);
}

void
Mitigation::on_activate(std::uint32_t flat_bank, std::uint32_t row, Tick now)
{
    if (in_refresh_)
        return;  // our own refresh reads do not re-trigger
    ++stats_.activations_observed;
    on_activation(flat_bank, row, now);
}

void
Mitigation::refresh_row(std::uint32_t flat_bank, std::int64_t row, Tick now)
{
    if (row < 0 ||
        row >= static_cast<std::int64_t>(dram_.config().rows_per_bank))
        return;
    in_refresh_ = true;
    dram_.refresh_row(flat_bank, static_cast<std::uint32_t>(row), now);
    ++stats_.neighbor_refreshes;
    in_refresh_ = false;
}

void
Mitigation::refresh_neighbors(std::uint32_t flat_bank, std::uint32_t row,
                              Tick now, std::uint32_t radius)
{
    const auto r = static_cast<std::int64_t>(row);
    for (std::uint32_t d = 1; d <= radius; ++d) {
        refresh_row(flat_bank, r - d, now);
        refresh_row(flat_bank, r + d, now);
    }
}

}  // namespace anvil::mitigations
