#include "dram/disturbance.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hh"

namespace anvil::dram {

RefreshSchedule::RefreshSchedule(const DramConfig &config)
    : period_(config.refresh_period),
      t_refi_(config.t_refi()),
      rows_per_ref_(config.rows_per_ref())
{
}

Tick
RefreshSchedule::phase(std::uint32_t row) const
{
    return static_cast<Tick>(row / rows_per_ref_) * t_refi_;
}

Tick
RefreshSchedule::last_refresh(std::uint32_t row, Tick now) const
{
    const Tick p = phase(row);
    if (now < p)
        return 0;  // not yet swept this period; fully charged from t = 0
    return p + ((now - p) / period_) * period_;
}

Tick
RefreshSchedule::next_refresh(std::uint32_t row, Tick now) const
{
    const Tick p = phase(row);
    if (now < p)
        return p;
    return last_refresh(row, now) + period_;
}

DisturbanceModel::DisturbanceModel(const DramConfig &config,
                                   std::uint32_t flat_bank,
                                   const RefreshSchedule &schedule,
                                   std::vector<FlipEvent> &flip_log)
    : config_(config),
      flat_bank_(flat_bank),
      schedule_(schedule),
      flip_log_(flip_log)
{
    if (!thresholds_fit(config))
        throw std::invalid_argument(
            "per-row flip thresholds must fit in 32 bits");
}

bool
DisturbanceModel::thresholds_fit(const DramConfig &config)
{
    // In double, so a huge spread cannot overflow; a NaN spread fails.
    const double top = static_cast<double>(config.flip_threshold) *
                       (1.0 + config.variation_spread * 0.9);
    return top <=
           static_cast<double>(std::numeric_limits<std::uint32_t>::max());
}

std::uint64_t
DisturbanceModel::threshold_of(std::uint32_t row) const
{
    // Deterministic per-row sensitivity in ten discrete grades; one row in
    // ten sits at the minimum threshold (the "most sensitive" victims).
    const double u = hash_unit_double(
        config_.variation_seed ^ (static_cast<std::uint64_t>(flat_bank_)
                                  << 32),
        row);
    const double grade = std::floor(u * 10.0) / 10.0;
    const double factor = 1.0 + config_.variation_spread * grade;
    return static_cast<std::uint64_t>(
        static_cast<double>(config_.flip_threshold) * factor);
}

void
DisturbanceModel::sync_window(std::uint32_t row, RowState &state,
                              Tick now) const
{
    // last_refresh(now) > window start exactly when now has reached the
    // first refresh after it, so caching that deadline reduces the
    // steady-state check to one comparison.
    Window &w = state.window;
    if (w.refresh_due == 0)
        w.refresh_due = schedule_.next_refresh(row, w.start);
    if (now < w.refresh_due)
        return;
    w = Window();
    w.start = schedule_.last_refresh(row, now);
    state.flipped = false;
}

double
DisturbanceModel::disturbance(const Window &w) const
{
    const auto l = static_cast<double>(w.left);
    const auto r = static_cast<double>(w.right);
    return l + r + config_.double_sided_alpha * std::min(l, r) +
           w.second_neighbor;
}

std::size_t
DisturbanceModel::probe(std::uint32_t row) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(row);
    while (slots_[i].row != row && slots_[i].row != kEmptySlot)
        i = (i + 1) & mask;
    return i;
}

const DisturbanceModel::RowState *
DisturbanceModel::find(std::uint32_t row) const
{
    if (slots_.empty())
        return nullptr;
    const RowState &slot = slots_[probe(row)];
    return slot.row == row ? &slot : nullptr;
}

void
DisturbanceModel::grow()
{
    std::vector<RowState> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    shift_ = 32 - static_cast<std::uint32_t>(std::countr_zero(slots_.size()));
    for (const RowState &state : old) {
        if (state.row != kEmptySlot)
            slots_[probe(state.row)] = state;
    }
    // The memo points into the old array.
    memo_.fill(Memo{});
}

DisturbanceModel::RowState &
DisturbanceModel::row_state(std::uint32_t row)
{
    assert(row != kEmptySlot);
    Memo &m = memo_[row & (kMemoSize - 1)];
    if (m.state != nullptr && m.row == row)
        return *m.state;
    if (slots_.empty())
        grow();
    std::size_t i = probe(row);
    if (slots_[i].row != row) {
        // Keep the load factor at or below 3/4.
        if (4 * (std::size_t{used_} + 1) > 3 * slots_.size()) {
            grow();
            i = probe(row);
        }
        slots_[i].row = row;
        ++used_;
    }
    m = Memo{row, &slots_[i]};
    return slots_[i];
}

void
DisturbanceModel::disturb(std::uint32_t victim, std::uint32_t aggressor,
                          Tick now)
{
    RowState &state = row_state(victim);
    sync_window(victim, state, now);
    Window &w = state.window;

    const auto dist = static_cast<std::int64_t>(aggressor) -
                      static_cast<std::int64_t>(victim);
    if (dist == -1) {
        ++w.left;
    } else if (dist == 1) {
        ++w.right;
    } else {
        w.second_neighbor += config_.second_neighbor_weight;
    }

    if (state.flipped)
        return;
    if (state.threshold == 0) {
        // Fits: the constructor checked thresholds_fit().
        const std::uint64_t threshold = threshold_of(victim);
        state.threshold = static_cast<std::uint32_t>(threshold);
        // D = L + R + alpha * min(L, R) + w2-term
        //   <= (L + R) * max(1, 1 + alpha / 2) when the w2 term is zero
        // (min(L, R) <= (L + R) / 2 for alpha >= 0, and the alpha term
        // only subtracts for alpha < 0), so no flip is possible while
        // L + R stays below this floor (floor-rounded, hence
        // conservative).
        state.flip_floor = static_cast<std::uint32_t>(
            static_cast<double>(threshold) /
            std::max(1.0, 1.0 + config_.double_sided_alpha * 0.5));
    }
    if (w.second_neighbor == 0.0 && w.left + w.right < state.flip_floor)
        return;
    if (disturbance(w) >= static_cast<double>(state.threshold))
        record_flip(victim, state, now);
}

void
DisturbanceModel::record_flip(std::uint32_t victim, RowState &state,
                              Tick now)
{
    state.flipped = true;
    flip_log_.push_back(FlipEvent{now, flat_bank_, victim,
                                  disturbance(state.window),
                                  state.threshold});
}

void
DisturbanceModel::on_activate(std::uint32_t row, Tick now)
{
    // An activation restores the accessed row's own charge. The cached
    // threshold and flip floor survive (they are properties of the row,
    // not the window); refresh_due is left 0 for lazy recomputation if
    // the row is ever disturbed.
    RowState &self = row_state(row);
    self.window = Window();
    self.window.start = now;
    self.flipped = false;

    const auto last_row = config_.rows_per_bank - 1;
    if (row > 0)
        disturb(row - 1, row, now);
    if (row < last_row)
        disturb(row + 1, row, now);
    if (config_.second_neighbor_weight > 0.0) {
        if (row > 1)
            disturb(row - 2, row, now);
        if (row < last_row - 1)
            disturb(row + 2, row, now);
    }
}

double
DisturbanceModel::disturbance_of(std::uint32_t row, Tick now) const
{
    const RowState *slot = find(row);
    if (slot == nullptr)
        return 0.0;
    RowState state = *slot;  // copy; sync without mutating
    sync_window(row, state, now);
    return disturbance(state.window);
}

std::pair<std::uint64_t, std::uint64_t>
DisturbanceModel::neighbor_activations(std::uint32_t row, Tick now) const
{
    const RowState *slot = find(row);
    if (slot == nullptr)
        return {0, 0};
    RowState state = *slot;
    sync_window(row, state, now);
    return {state.window.left, state.window.right};
}

}  // namespace anvil::dram
