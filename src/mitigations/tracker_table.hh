/**
 * @file
 * The per-bank tracking table CounterTrr, Rvc and Dapper share: tracked
 * rows, their values (a count or a charge) and unique insertion sequence
 * numbers, in parallel arrays reserved once to the table size. Every
 * victim choice is by (value, order) or by order alone, so a slot's
 * position never matters and a displaced row is overwritten in place.
 * The table keeps the window epoch and the table_evictions /
 * table_peak_entries statistics; each tracker keeps its own policy.
 */
#ifndef ANVIL_MITIGATIONS_TRACKER_TABLE_HH
#define ANVIL_MITIGATIONS_TRACKER_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mitigations/mitigation.hh"

namespace anvil::mitigations {

/** One bank's fixed-capacity table of (row, value, order) slots. */
template <typename Value>
class TrackerTable
{
  public:
    static constexpr std::size_t npos = ~std::size_t{0};  ///< untracked

    explicit TrackerTable(std::uint32_t capacity) : capacity_(capacity)
    {
        rows_.reserve(capacity);
        values_.reserve(capacity);
        order_.reserve(capacity);
    }

    std::size_t size() const { return rows_.size(); }
    bool full() const { return size() >= capacity_; }
    std::uint32_t row(std::size_t slot) const { return rows_[slot]; }
    Value &value(std::size_t slot) { return values_[slot]; }
    std::span<Value> values() { return values_; }

    /** Slot tracking @p row, or npos. */
    std::size_t
    find(std::uint32_t row) const
    {
        const auto it = std::ranges::find(rows_, row);
        return it == rows_.end() ? npos : std::size_t(it - rows_.begin());
    }

    /** Value of @p row, or zero if untracked. */
    Value
    value_of(std::uint32_t row) const
    {
        const std::size_t slot = find(row);
        return slot == npos ? Value{} : values_[slot];
    }

    /** Enters refresh window @p epoch; true if that is a new window. */
    bool
    roll(std::uint64_t epoch)
    {
        return std::exchange(epoch_, epoch) != epoch;
    }

    void
    clear()
    {
        rows_.clear();
        values_.clear();
        order_.clear();
    }

    /** Tracks @p row at zero in a new slot (the table is not full). */
    std::size_t
    append(std::uint32_t row, MitigationStats &stats)
    {
        rows_.push_back(row);
        values_.push_back(Value{});
        order_.push_back(next_order_++);
        stats.table_peak_entries =
            std::max<std::uint64_t>(stats.table_peak_entries, size());
        return size() - 1;
    }

    /** Evicts @p slot's row; @p row takes the slot at zero. */
    void
    replace(std::size_t slot, std::uint32_t row, MitigationStats &stats)
    {
        rows_[slot] = row;
        values_[slot] = Value{};
        order_[slot] = next_order_++;
        ++stats.table_evictions;
    }

    /** Least-valued slot, ties broken oldest-first (non-empty table). */
    std::size_t
    coldest() const
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < size(); ++i) {
            if (values_[i] < values_[best] ||
                (values_[i] == values_[best] && order_[i] < order_[best]))
                best = i;
        }
        return best;
    }

    /** Slot inserted longest ago (non-empty table). */
    std::size_t
    oldest() const
    {
        return std::size_t(std::ranges::min_element(order_) - order_.begin());
    }

    /** Evicts every slot whose value is @p dead, compacting the rest. */
    template <typename Pred>
    void
    remove_if(Pred dead, MitigationStats &stats)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < size(); ++i) {
            if (dead(values_[i]))
                continue;
            rows_[kept] = rows_[i];
            values_[kept] = values_[i];
            order_[kept++] = order_[i];
        }
        stats.table_evictions += size() - kept;
        rows_.resize(kept);
        values_.resize(kept);
        order_.resize(kept);
    }

  private:
    std::uint32_t capacity_;
    std::vector<std::uint32_t> rows_;
    std::vector<Value> values_;
    std::vector<std::uint64_t> order_;  ///< insertion sequence numbers
    std::uint64_t next_order_ = 0;
    std::uint64_t epoch_ = 0;  ///< refresh-window epoch of the values
};

}  // namespace anvil::mitigations

#endif  // ANVIL_MITIGATIONS_TRACKER_TABLE_HH
