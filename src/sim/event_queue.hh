/**
 * @file
 * Discrete-event queue and simulated clock.
 *
 * The simulator is driver-paced: workloads and attacks issue memory
 * accesses, each of which elapses simulated time; any events (DRAM refresh
 * bookkeeping, ANVIL window timers, PMU sample flushes) whose deadline was
 * crossed fire in timestamp order before the access result is returned.
 */
#ifndef ANVIL_SIM_EVENT_QUEUE_HH
#define ANVIL_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/compiler.hh"
#include "common/types.hh"

namespace anvil::sim {

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/**
 * Simulated clock plus a queue of one-shot callbacks ordered by deadline.
 *
 * Ties are broken by scheduling order (FIFO among equal deadlines), which
 * keeps runs deterministic.
 *
 * Implementation: a binary min-heap keyed on (when, id) — ids increase
 * monotonically, so the (when, id) order reproduces the FIFO tie-break
 * exactly. cancel() is O(1): the event's id is simply dropped from the
 * live set and its heap entry becomes a tombstone that is skipped when it
 * surfaces; when tombstones outnumber live events the heap is compacted
 * in one pass (deferred compaction). ANVIL schedules *and* cancels a
 * window event on every stage transition, which made the previous
 * map + linear-scan-cancel implementation a per-transition hot spot.
 */
class EventQueue
{
  public:
    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedules @p fn to run at absolute time @p when.
     * @pre when >= now()
     * @return a handle usable with cancel().
     */
    EventId schedule_at(Tick when, std::function<void()> fn);

    /** Schedules @p fn to run @p delay ticks from now. */
    EventId schedule_in(Tick delay, std::function<void()> fn);

    /**
     * Cancels a pending event.
     * @return true if the event was pending and is now removed.
     */
    bool cancel(EventId id);

    /**
     * Advances the clock to @p t, firing every event with deadline <= t in
     * order. Handlers observe now() == their deadline and may schedule
     * further events (which also fire if due before @p t).
     */
    void
    advance_to(Tick t)
    {
        // Fast path: the heap top is the minimum deadline of all entries
        // (live or tombstone), so if it is beyond @p t nothing can be due
        // and the per-call cost is one comparison — no liveness lookup.
        // This runs on every simulated memory access.
        if (heap_.empty() || heap_.front().when > t) {
            if (t > now_)
                now_ = t;
            return;
        }
        run_due(t);
    }

    /** Advances the clock by @p dt ticks (see advance_to). */
    void elapse(Tick dt) { advance_to(now_ + dt); }

    /** Number of events still pending. */
    std::size_t pending() const { return live_.size(); }

    /** Deadline of the earliest pending event, or max Tick if none. */
    Tick next_deadline() const;

    /** Heap entries occupied by cancelled events (for tests). */
    std::size_t tombstones() const { return heap_.size() - live_.size(); }

  private:
    struct Entry {
        Tick when;
        EventId id;
        std::function<void()> fn;
    };

    /** Min-heap "greater" comparator over (when, id). */
    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when > b.when : a.id > b.id;
    }

    /** Pops tombstones off the heap top until a live event (or empty). */
    void prune_top() const;

    /** Slow path of advance_to: at least one heap entry has deadline <= t. */
    ANVIL_COLD void run_due(Tick t);

    /** One-pass removal of all tombstones once they dominate the heap. */
    void maybe_compact();

    Tick now_ = 0;
    EventId next_id_ = 1;
    mutable std::vector<Entry> heap_;
    std::unordered_set<EventId> live_;  ///< scheduled, not fired/cancelled
};

/**
 * Repeating timer built on an EventQueue.
 *
 * Used for ANVIL's tc/ts windows: the callback runs every @p period ticks
 * until stop() is called. The callback may call stop() or reschedule().
 */
class PeriodicTimer
{
  public:
    PeriodicTimer(EventQueue &queue, Tick period, std::function<void()> fn);
    ~PeriodicTimer();

    PeriodicTimer(const PeriodicTimer &) = delete;
    PeriodicTimer &operator=(const PeriodicTimer &) = delete;

    /** Starts (or restarts) the timer; first fire is one period from now. */
    void start();

    /** Stops the timer; no further fires. */
    void stop();

    Tick period() const { return period_; }
    bool running() const { return running_; }

  private:
    void arm();

    EventQueue &queue_;
    Tick period_;
    std::function<void()> fn_;
    EventId pending_ = 0;
    bool running_ = false;
};

}  // namespace anvil::sim

#endif  // ANVIL_SIM_EVENT_QUEUE_HH
