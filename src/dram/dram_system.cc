#include "dram/dram_system.hh"

#include <cassert>
#include <stdexcept>

#include "common/compiler.hh"

namespace anvil::dram {

Bank::Bank(const DramConfig &config, std::uint32_t flat_bank,
           const RefreshSchedule &schedule, std::vector<FlipEvent> &flip_log)
    : disturbance_(config, flat_bank, schedule, flip_log),
      model_disturbance_(config.model_disturbance)
{
}

bool
Bank::access(std::uint32_t row, Tick now, Tick window_start)
{
    // A REF command precharges all banks; if one was issued since our last
    // access, the row buffer no longer holds our row.
    if (window_start != window_start_) {
        open_row_.reset();
        window_start_ = window_start;
    }

    if (open_row_ && *open_row_ == row)
        return true;

    open_row_ = row;
    ++activations_;
    if (model_disturbance_)
        disturbance_.on_activate(row, now);
    return false;
}

namespace {

const DramConfig &
checked_refresh(const DramConfig &config)
{
    if (!DramSystem::refresh_fits(config))
        throw std::invalid_argument(
            "tREFI (refresh_period / refresh_slots) must exceed t_rfc");
    return config;
}

}  // namespace

DramSystem::DramSystem(const DramConfig &config)
    // Checked first: the schedule and t_refi_ divide by refresh_slots,
    // and refresh_stall by tREFI.
    : config_(checked_refresh(config)),
      map_(config),
      schedule_(config),
      t_refi_(config.t_refi())
{
    banks_.reserve(config_.total_banks());
    for (std::uint32_t b = 0; b < config_.total_banks(); ++b)
        banks_.emplace_back(config_, b, schedule_, flips_);
}

bool
DramSystem::refresh_fits(const DramConfig &config)
{
    return config.refresh_slots != 0 && config.t_refi() > config.t_rfc;
}

Tick
DramSystem::refresh_stall(Tick now)
{
    // Roll the cached tREFI window forward to the one containing `now`;
    // accesses arrive in (nearly) monotonic time order, so the window
    // start almost never needs the divide.
    if (now >= stall_window_start_ + t_refi_) {
        if (now < stall_window_start_ + 2 * t_refi_)
            stall_window_start_ += t_refi_;
        else
            stall_window_start_ = now - now % t_refi_;
    } else if (now < stall_window_start_) {
        stall_window_start_ = now - now % t_refi_;
    }
    const Tick window_end = stall_window_start_ + config_.t_rfc;
    return now < window_end ? window_end - now : 0;
}

ANVIL_FLATTEN DramSystem::AccessResult
DramSystem::access(Addr pa, Tick now)
{
    const DramCoord coord = map_.decode(pa);
    const std::uint32_t fb = map_.flat_bank(coord);
    assert(fb < banks_.size());

    // start stays in the window of now: a stall ends at the window's
    // start + t_rfc, which refresh_fits() keeps below tREFI.
    const Tick stall = refresh_stall(now);
    const Tick start = now + stall;

    const bool hit =
        banks_[fb].access(coord.row, start, stall_window_start_);

    ++stats_.accesses;
    stats_.refresh_stall += stall;
    if (hit) {
        ++stats_.row_hits;
    } else {
        ++stats_.row_misses;
        if (observer_ != nullptr)
            observer_->on_activate(fb, coord.row, start);
    }

    return AccessResult{stall + (hit ? config_.t_row_hit
                                     : config_.t_row_miss),
                        hit};
}

Addr
DramSystem::row_to_addr(std::uint32_t flat_bank, std::uint32_t row) const
{
    DramCoord coord;
    const std::uint32_t banks = config_.banks_per_rank;
    const std::uint32_t ranks = config_.ranks_per_channel;
    coord.bank = flat_bank % banks;
    coord.rank = (flat_bank / banks) % ranks;
    coord.channel = flat_bank / (banks * ranks);
    coord.row = row;
    coord.column = 0;
    return map_.encode(coord);
}

Tick
DramSystem::refresh_row(Addr pa, Tick now)
{
    ++stats_.selective_refreshes;
    // The refreshing read goes through the normal access path: it opens the
    // row (restoring its charge) and — honestly — also disturbs the row's
    // own neighbours. The protection is sound because ANVIL's selective
    // read rate is orders of magnitude below the hammering threshold
    // (Section 3.3).
    return access(pa, now).latency;
}

Tick
DramSystem::refresh_row(std::uint32_t flat_bank, std::uint32_t row, Tick now)
{
    return refresh_row(row_to_addr(flat_bank, row), now);
}

}  // namespace anvil::dram
