#include "mitigations/counter_trr.hh"

namespace anvil::mitigations {

CounterTrr::CounterTrr(dram::DramSystem &dram,
                       const CounterTrrConfig &config, std::uint64_t seed)
    : Mitigation(dram), config_(config), rng_(seed)
{
    for (std::uint32_t b = 0; b < dram.config().total_banks(); ++b)
        tables_.emplace_back(config_.table_size);
}

void
CounterTrr::on_activation(std::uint32_t flat_bank, std::uint32_t row,
                          Tick now)
{
    TrackerTable<std::uint64_t> &table = tables_[flat_bank];
    if (table.roll(now / dram_.config().refresh_period)) {
        switch (config_.reset) {
          case CounterTrrConfig::Reset::kClear:
              table.clear();
              break;
          case CounterTrrConfig::Reset::kHalve:
              for (std::uint64_t &count : table.values())
                  count /= 2;
              break;
        }
    }

    std::size_t slot = table.find(row);
    if (slot == table.npos) {
        // Sampler: only a fraction of untracked activations earn a table
        // entry. The coin is drawn per candidate so the stream is a pure
        // function of the tracker's seed and the activation sequence.
        if (config_.sample_probability < 1.0 &&
            !rng_.next_bool(config_.sample_probability))
            return;
        if (table.full()) {
            slot = config_.evict == CounterTrrConfig::Evict::kMinCount
                       ? table.coldest()
                       : table.oldest();
            const std::uint32_t evicted_row = table.row(slot);
            table.replace(slot, row, stats_);
            if (config_.refresh_on_evict) {
                // The displaced row's history is lost; refresh its
                // neighbourhood so laundering counters through eviction
                // cannot build up disturbance unseen.
                refresh_neighbors(flat_bank, evicted_row, now,
                                  config_.refresh_radius);
            }
        } else {
            slot = table.append(row, stats_);
        }
    }

    std::uint64_t &count = table.value(slot);
    if (count < config_.counter_max())
        ++count;
    if (count >= config_.mac) {
        count = 0;
        refresh_neighbors(flat_bank, row, now, config_.refresh_radius);
    }
}

}  // namespace anvil::mitigations
