/**
 * @file
 * The simulated clock and its one alarm.
 *
 * The simulator is driver-paced: workloads and attacks issue memory
 * accesses, each of which elapses simulated time. The only timed event
 * is ANVIL's current window (Stage-1 tc or Stage-2 ts), so the clock
 * holds one alarm slot rather than a queue; DRAM refresh is computed
 * lazily and PMU interrupts come from the counters themselves.
 */
#ifndef ANVIL_MEM_CLOCK_HH
#define ANVIL_MEM_CLOCK_HH

#include <cassert>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/compiler.hh"
#include "common/types.hh"

namespace anvil::mem {

/** Simulated time plus at most one pending alarm. */
class Clock
{
  public:
    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Sets the alarm to run @p fn @p delay ticks from now.
     * @throws std::logic_error if an alarm is already pending: the slot
     *         is never queued and never silently replaced.
     */
    void
    set_alarm_in(Tick delay, std::function<void()> fn)
    {
        if (alarm_pending())
            throw std::logic_error("Clock::set_alarm_in: an alarm is "
                                   "already pending");
        assert(fn && delay < kNever - now_);
        deadline_ = now_ + delay;
        alarm_ = std::move(fn);
    }

    /** Clears the alarm, if one is pending. */
    void
    cancel_alarm()
    {
        deadline_ = kNever;
        alarm_ = nullptr;
    }

    bool alarm_pending() const { return deadline_ != kNever; }

    /**
     * Advances the clock to @p t, ringing the alarm if its deadline is
     * <= t. The handler observes now() == its deadline and may set the
     * alarm again (which also rings if due by @p t) or elapse time itself;
     * the clock never runs backwards.
     */
    void
    advance_to(Tick t)
    {
        // Runs on every simulated access: one compare when nothing is due.
        if (deadline_ > t) {
            if (t > now_)
                now_ = t;
            return;
        }
        ring(t);
    }

    /** Advances the clock by @p dt ticks (see advance_to). */
    void elapse(Tick dt) { advance_to(now_ + dt); }

  private:
    static constexpr Tick kNever = std::numeric_limits<Tick>::max();

    ANVIL_COLD void
    ring(Tick t)
    {
        while (deadline_ <= t) {
            // Empty the slot before the handler runs, so it may set the
            // alarm again or re-enter advance_to.
            assert(deadline_ >= now_);
            now_ = deadline_;
            deadline_ = kNever;
            std::exchange(alarm_, nullptr)();
        }
        // A handler that elapsed time may have moved now_ past t.
        if (t > now_)
            now_ = t;
    }

    Tick now_ = 0;
    Tick deadline_ = kNever;
    std::function<void()> alarm_;
};

}  // namespace anvil::mem

#endif  // ANVIL_MEM_CLOCK_HH
