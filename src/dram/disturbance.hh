/**
 * @file
 * Rowhammer disturbance model.
 *
 * Physics abstraction: every activation of row r partially discharges the
 * cells of nearby rows. A victim row v accumulates disturbance from its
 * neighbours *since v's own charge was last restored* — by the periodic
 * refresh sweep, by an activation of v itself (a DRAM read fully refreshes
 * the accessed row, Section 3.2 of the paper), or by ANVIL's selective
 * refresh. When the accumulated disturbance crosses the row's flip
 * threshold, a bit flip is recorded.
 *
 * Disturbance for victim v with adjacent activation counts L (row v-1) and
 * R (row v+1) in the current window:
 *
 *     D(v) = L + R + alpha * min(L, R) + w2 * (L2 + R2)
 *
 * The alpha term models the super-linear effect of double-sided hammering;
 * with the paper's calibration (Table 1) a single threshold H = 400 K
 * reproduces both the single-sided (400 K) and double-sided (2 x 110 K)
 * flip counts. L2/R2 are distance-2 activation counts with small weight w2
 * (0 by default).
 */
#ifndef ANVIL_DRAM_DISTURBANCE_HH
#define ANVIL_DRAM_DISTURBANCE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/compiler.hh"
#include "dram/config.hh"

namespace anvil::dram {

/** One recorded rowhammer-induced bit flip. */
struct FlipEvent {
    Tick time = 0;
    std::uint32_t flat_bank = 0;
    std::uint32_t row = 0;
    double disturbance = 0.0;
    std::uint64_t threshold = 0;
};

/**
 * The per-bank periodic refresh schedule.
 *
 * Rows are refreshed round-robin: REF command k (issued every tREFI)
 * refreshes rows [k * rows_per_ref, (k+1) * rows_per_ref) of every bank,
 * wrapping each refresh period. All rows start fully charged at time 0.
 */
class RefreshSchedule
{
  public:
    explicit RefreshSchedule(const DramConfig &config);

    /** Time at which @p row was most recently refreshed, as of @p now. */
    Tick last_refresh(std::uint32_t row, Tick now) const;

    /** First time strictly after @p now at which @p row is refreshed. */
    Tick next_refresh(std::uint32_t row, Tick now) const;

    /** Phase offset of @p row's refresh slot within the period. */
    Tick phase(std::uint32_t row) const;

  private:
    Tick period_;
    Tick t_refi_;
    std::uint32_t rows_per_ref_;
};

/**
 * Tracks disturbance accumulation and detects bit flips for one bank.
 *
 * State is kept sparsely (one slot per row ever activated or disturbed,
 * in a flat open-addressing table), and refresh is applied lazily from
 * the RefreshSchedule so no per-row events are needed.
 */
class DisturbanceModel
{
  public:
    /** @throw std::invalid_argument unless thresholds_fit(config). */
    DisturbanceModel(const DramConfig &config, std::uint32_t flat_bank,
                     const RefreshSchedule &schedule,
                     std::vector<FlipEvent> &flip_log);

    /**
     * Records an activation of @p row at time @p now: restores the charge
     * of @p row itself and disturbs its neighbours, logging any flips.
     */
    void on_activate(std::uint32_t row, Tick now);

    /** Current accumulated disturbance of @p row (for tests/telemetry). */
    double disturbance_of(std::uint32_t row, Tick now) const;

    /** Flip threshold of @p row (deterministic per-row variation). */
    std::uint64_t threshold_of(std::uint32_t row) const;

    /**
     * Whether every per-row threshold of @p config fits the 32 bits the
     * row table stores it in, i.e. flip_threshold at the top variation
     * grade (0.9) stays below 2^32.
     */
    static bool thresholds_fit(const DramConfig &config);

    /** Activations of @p row's neighbours in its current window (L, R). */
    std::pair<std::uint64_t, std::uint64_t>
    neighbor_activations(std::uint32_t row, Tick now) const;

  private:
    /** Per-window accumulation; reset by every refresh of the row. */
    struct Window {
        Tick start = 0;
        /// First refresh strictly after start; 0 = not yet computed.
        /// Cached so the per-disturb window check is a single comparison
        /// instead of two divides in the refresh schedule.
        Tick refresh_due = 0;
        std::uint64_t left = 0;        ///< activations of row-1
        std::uint64_t right = 0;       ///< activations of row+1
        double second_neighbor = 0.0;  ///< weighted distance-2 activations
    };

    /** One slot of the open-addressing row table (56 bytes). */
    struct RowState {
        std::uint32_t row = kEmptySlot;  ///< key; kEmptySlot if unused
        /// Cached threshold_of(row); 0 = not yet computed. The threshold
        /// is time-invariant, so it survives window resets. 32 bits is
        /// enough: the constructor requires thresholds_fit().
        std::uint32_t threshold = 0;
        /// Conservative integer bound cached with threshold: while
        /// left + right < flip_floor (and no distance-2 disturbance has
        /// accrued), disturbance() cannot reach threshold, so the
        /// floating-point evaluation is skipped.
        std::uint32_t flip_floor = 0;
        bool flipped = false;  ///< a flip was logged in this window
        Window window;
    };
    static_assert(sizeof(RowState) <= 56, "row table slots stay compact");
    static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

    /** Applies lazy refresh to @p state if the sweep passed since start. */
    void sync_window(std::uint32_t row, RowState &state, Tick now) const;

    double disturbance(const Window &window) const;

    void disturb(std::uint32_t victim, std::uint32_t aggressor, Tick now);

    /** Marks @p victim flipped for this window and logs the flip. */
    ANVIL_COLD void record_flip(std::uint32_t victim, RowState &state,
                                Tick now);

    /** Index of @p row's slot, or of the empty slot it would take.
     * @pre table non-empty */
    std::size_t probe(std::uint32_t row) const;

    /** The slot of @p row, or nullptr if the row was never touched. */
    const RowState *find(std::uint32_t row) const;

    /**
     * The slot of @p row, inserted if absent, through a small
     * direct-mapped memo of recent lookups. Hammering touches the same
     * few rows millions of times; the memo turns the table probe into an
     * array load in the common case. The reference is invalidated by the
     * next row_state() call that inserts (the table may grow).
     */
    RowState &row_state(std::uint32_t row);

    /** Doubles the table (16 slots at first) and rehashes every row. */
    ANVIL_COLD void grow();

    /** Home slot of @p row (Fibonacci hashing). @pre table non-empty */
    std::size_t
    home(std::uint32_t row) const
    {
        return (row * 0x9e3779b9U) >> shift_;
    }

    struct Memo {
        std::uint32_t row = 0;
        RowState *state = nullptr;
    };
    static constexpr std::uint32_t kMemoSize = 8;

    const DramConfig &config_;
    std::uint32_t flat_bank_;
    const RefreshSchedule &schedule_;
    std::vector<FlipEvent> &flip_log_;
    std::array<Memo, kMemoSize> memo_;
    /// Open-addressing (linear probing) table of every row touched since
    /// construction; rows are never removed. Power-of-two size, at most
    /// 3/4 full.
    std::vector<RowState> slots_;
    std::uint32_t used_ = 0;  ///< occupied slots
    std::uint32_t shift_ = 32;  ///< 32 - log2(slots_.size())
};

}  // namespace anvil::dram

#endif  // ANVIL_DRAM_DISTURBANCE_HH
