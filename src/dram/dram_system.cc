#include "dram/dram_system.hh"

#include <cassert>

#include "common/compiler.hh"

namespace anvil::dram {

Bank::Bank(const DramConfig &config, std::uint32_t flat_bank,
           const RefreshSchedule &schedule, std::vector<FlipEvent> &flip_log)
    : config_(config),
      disturbance_(config, flat_bank, schedule, flip_log),
      t_refi_(config.t_refi()),
      window_end_(t_refi_)
{
}

bool
Bank::access(std::uint32_t row, Tick now)
{
    // A REF command precharges all banks; if one was issued since our last
    // access, the row buffer no longer holds our row. The bank tracks the
    // bounds of the tREFI window containing its last access and only
    // recomputes them on a window crossing — the common case (same window,
    // or the immediately following one) costs no divide.
    if (now >= window_end_ || now + t_refi_ < window_end_) {
        open_row_.reset();
        if (now < window_end_ + t_refi_ && now >= window_end_)
            window_end_ += t_refi_;  // adjacent window: roll forward
        else
            window_end_ = (now / t_refi_ + 1) * t_refi_;  // far jump
    }

    if (open_row_ && *open_row_ == row)
        return true;

    open_row_ = row;
    ++activations_;
    disturbance_.on_activate(row, now);
    return false;
}

DramSystem::DramSystem(const DramConfig &config)
    : config_(config),
      map_(config),
      schedule_(config),
      t_refi_(config.t_refi())
{
    banks_.reserve(config_.total_banks());
    for (std::uint32_t b = 0; b < config_.total_banks(); ++b)
        banks_.emplace_back(config_, b, schedule_, flips_);
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

    const Tick stall = refresh_stall(now);
    const Tick start = now + stall;

    const bool hit = banks_[fb].access(coord.row, start);

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
