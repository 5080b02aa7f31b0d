/**
 * @file
 * The DRAM subsystem facade: banks with row buffers, the periodic refresh
 * machinery, the disturbance model, and selective row refresh (ANVIL's
 * protection primitive).
 */
#ifndef ANVIL_DRAM_DRAM_SYSTEM_HH
#define ANVIL_DRAM_DRAM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "dram/address_map.hh"
#include "dram/config.hh"
#include "dram/disturbance.hh"

namespace anvil::dram {

/**
 * What an in-DRAM / in-controller rowhammer tracker implements to see a
 * device's row activations. on_activate runs after the activation's
 * disturbance (when modelled) is applied; a refresh read issued from it
 * re-enters DramSystem::access, so it must guard against recursion
 * itself.
 */
class ActivationObserver
{
  public:
    virtual void on_activate(std::uint32_t flat_bank, std::uint32_t row,
                             Tick now) = 0;

  protected:
    ~ActivationObserver() = default;
};

/**
 * One DRAM bank: an open-row (row buffer) tracker wired to the
 * disturbance model, which every activation feeds unless the config
 * turns it off.
 */
class Bank
{
  public:
    Bank(const DramConfig &config, std::uint32_t flat_bank,
         const RefreshSchedule &schedule, std::vector<FlipEvent> &flip_log);

    /**
     * Performs an access to @p row at time @p now, which lies in the
     * tREFI window starting at @p window_start.
     * @return true if the access hit the open row buffer.
     */
    bool access(std::uint32_t row, Tick now, Tick window_start);

    /** Currently open row, if any. */
    std::optional<std::uint32_t> open_row() const { return open_row_; }

    /** Total row activations performed by this bank. */
    std::uint64_t activations() const { return activations_; }

    const DisturbanceModel &disturbance() const { return disturbance_; }

  private:
    DisturbanceModel disturbance_;
    bool model_disturbance_;  ///< DramConfig::model_disturbance
    std::optional<std::uint32_t> open_row_;
    Tick window_start_ = 0;  ///< tREFI window of the last access
    std::uint64_t activations_ = 0;
};

/**
 * The full DRAM device.
 *
 * Time is supplied by the caller (the memory system) on every access; the
 * device is purely reactive, computing refresh effects lazily, which keeps
 * it fast and independently unit-testable.
 */
class DramSystem
{
  public:
    /** Outcome of one DRAM access. */
    struct AccessResult {
        Tick latency = 0;    ///< includes any refresh stall
        bool row_hit = false;
    };

    /** Aggregate counters. */
    struct Stats {
        std::uint64_t accesses = 0;
        std::uint64_t row_hits = 0;
        std::uint64_t row_misses = 0;
        std::uint64_t selective_refreshes = 0;
        Tick refresh_stall = 0;
    };

    /** @throw std::invalid_argument unless refresh_fits(config). */
    explicit DramSystem(const DramConfig &config);

    /**
     * True when each REF command ends before the next one starts:
     * tREFI = refresh_period / refresh_slots exceeds t_rfc (so is
     * nonzero, which the refresh window arithmetic divides by).
     */
    static bool refresh_fits(const DramConfig &config);

    /** Reads or writes @p pa at time @p now. */
    AccessResult access(Addr pa, Tick now);

    /**
     * ANVIL's protection primitive: refreshes the row containing @p pa by
     * reading one word from it (a read fully restores the row's charge).
     * @return the latency of the refreshing read.
     */
    Tick refresh_row(Addr pa, Tick now);

    /** Row-coordinate variant of refresh_row. */
    Tick refresh_row(std::uint32_t flat_bank, std::uint32_t row, Tick now);

    /** Encodes (flat_bank, row, column 0) into a physical address. */
    Addr row_to_addr(std::uint32_t flat_bank, std::uint32_t row) const;

    const AddressMap &address_map() const { return map_; }
    const DramConfig &config() const { return config_; }
    const RefreshSchedule &refresh_schedule() const { return schedule_; }
    const Stats &stats() const { return stats_; }

    /**
     * All bit flips recorded so far, in time order.
     * @throws std::logic_error if the device does not model disturbance
     *         (an empty log would read as "no flips", not "not modelled").
     */
    const std::vector<FlipEvent> &
    flips() const
    {
        if (!config_.model_disturbance)
            throw std::logic_error("DramSystem::flips: this device runs "
                                   "without the disturbance model "
                                   "(DramConfig::model_disturbance)");
        return flips_;
    }

    /** Disturbance telemetry for tests. */
    const DisturbanceModel &
    disturbance(std::uint32_t flat_bank) const
    {
        return banks_[flat_bank].disturbance();
    }

    const Bank &bank(std::uint32_t flat_bank) const
    {
        return banks_[flat_bank];
    }

    /**
     * Makes @p observer the device's one activation observer (not owned:
     * an observer that dies first detaches itself).
     * @throws std::logic_error if one is already attached.
     */
    void
    attach(ActivationObserver &observer)
    {
        if (observer_ != nullptr)
            throw std::logic_error("DramSystem::attach: the device already "
                                   "has an activation observer");
        observer_ = &observer;
    }

    /** Empties the observer slot if @p observer holds it. */
    void
    detach(const ActivationObserver &observer)
    {
        if (observer_ == &observer)
            observer_ = nullptr;
    }

  private:
    /**
     * Stall until any in-progress REF command completes. Also rolls
     * stall_window_start_ to the tREFI window containing @p now.
     */
    Tick refresh_stall(Tick now);

    DramConfig config_;
    AddressMap map_;
    RefreshSchedule schedule_;
    std::vector<FlipEvent> flips_;
    std::vector<Bank> banks_;
    ActivationObserver *observer_ = nullptr;
    Stats stats_;

    // The tREFI window of the latest access, for refresh_stall and the
    // banks' row buffers: rolled forward monotonically instead of
    // re-dividing by tREFI on every access.
    Tick t_refi_;
    Tick stall_window_start_ = 0;
};

}  // namespace anvil::dram

#endif  // ANVIL_DRAM_DRAM_SYSTEM_HH
