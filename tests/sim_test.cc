/**
 * @file
 * Unit tests for the simulated clock and its one alarm slot, including
 * the nested time-advance behaviour the ANVIL module relies on. The
 * suites keep the test names they had when the clock was an event queue.
 */
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "mem/clock.hh"

namespace anvil::mem {
namespace {

TEST(EventQueue, StartsAtZero)
{
    Clock clock;
    EXPECT_EQ(clock.now(), 0u);
    EXPECT_FALSE(clock.alarm_pending());
}

TEST(EventQueue, HandlerObservesItsDeadline)
{
    Clock clock;
    Tick seen = 0;
    clock.set_alarm_in(42, [&] { seen = clock.now(); });
    clock.advance_to(100);
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(clock.now(), 100u);
    EXPECT_FALSE(clock.alarm_pending());
}

TEST(EventQueue, EventsBeyondTargetStayPending)
{
    Clock clock;
    bool fired = false;
    clock.set_alarm_in(50, [&] { fired = true; });
    clock.advance_to(49);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(clock.alarm_pending());
    clock.advance_to(50);
    EXPECT_TRUE(fired);
    EXPECT_FALSE(clock.alarm_pending());
}

TEST(EventQueue, CancelPreventsFiring)
{
    Clock clock;
    bool fired = false;
    clock.set_alarm_in(10, [&] { fired = true; });
    clock.cancel_alarm();
    EXPECT_FALSE(clock.alarm_pending());
    clock.cancel_alarm();  // nothing pending: a no-op
    clock.advance_to(20);
    EXPECT_FALSE(fired);
    EXPECT_EQ(clock.now(), 20u);
    // The emptied slot takes a new alarm.
    clock.set_alarm_in(5, [&] { fired = true; });
    clock.advance_to(25);
    EXPECT_TRUE(fired);
}

TEST(EventQueue, SecondAlarmIsRefused)
{
    // Like DramSystem::attach, the slot refuses a second occupant rather
    // than queueing it or replacing the first.
    Clock clock;
    std::vector<int> fires;
    clock.set_alarm_in(10, [&] { fires.push_back(1); });
    EXPECT_THROW(clock.set_alarm_in(5, [&] { fires.push_back(2); }),
                 std::logic_error);
    EXPECT_TRUE(clock.alarm_pending());
    clock.advance_to(100);
    EXPECT_EQ(fires, (std::vector<int>{1}));
}

TEST(EventQueue, HandlersMayScheduleFurtherDueEvents)
{
    // The slot is empty while the handler runs, so it may set the alarm
    // again; a re-armed alarm due by the target rings in the same call.
    Clock clock;
    std::vector<Tick> fires;
    clock.set_alarm_in(10, [&] {
        fires.push_back(clock.now());
        clock.set_alarm_in(5, [&] { fires.push_back(clock.now()); });
    });
    clock.advance_to(20);
    EXPECT_EQ(fires, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, NestedElapseKeepsClockMonotonic)
{
    // An alarm handler that itself elapses time (ANVIL charging detector
    // overhead) must not make the clock run backwards afterwards.
    Clock clock;
    std::vector<Tick> trace;
    clock.set_alarm_in(10, [&] {
        clock.set_alarm_in(40, [&] { trace.push_back(clock.now()); });
        clock.elapse(100);  // nested: pushes now to 110
        trace.push_back(clock.now());
    });
    clock.advance_to(60);
    ASSERT_EQ(trace.size(), 2u);
    // The re-armed alarm rings *during* the nested elapse (at its own
    // deadline, t=50), before the outer handler resumes at t=110.
    EXPECT_EQ(trace[0], 50u);
    EXPECT_EQ(trace[1], 110u);
    EXPECT_EQ(clock.now(), 110u);  // never pulled back to 60
}

TEST(EventQueue, ScheduleInIsRelative)
{
    Clock clock;
    clock.advance_to(100);
    Tick fired_at = 0;
    clock.set_alarm_in(5, [&] { fired_at = clock.now(); });
    clock.advance_to(200);
    EXPECT_EQ(fired_at, 105u);
}

TEST(EventQueueStress, CancelFromHandlerSuppressesLaterEvent)
{
    // A handler that re-arms and then cancels leaves the slot empty, and
    // the ringing stops there.
    Clock clock;
    int fires = 0;
    clock.set_alarm_in(10, [&] {
        ++fires;
        clock.set_alarm_in(10, [&] { ++fires; });
        clock.cancel_alarm();
    });
    clock.advance_to(30);
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(clock.alarm_pending());
    EXPECT_EQ(clock.now(), 30u);
}

TEST(EventQueueStress, RearmFromHandlerChainsWithinOneAdvance)
{
    // A handler re-arming itself (a periodic timer) must keep ringing
    // within the same advance_to while deadlines remain due.
    Clock clock;
    std::vector<Tick> fires;
    std::function<void()> rearm = [&] {
        fires.push_back(clock.now());
        if (fires.size() < 5)
            clock.set_alarm_in(10, rearm);
    };
    clock.set_alarm_in(10, rearm);
    clock.advance_to(35);
    EXPECT_EQ(fires, (std::vector<Tick>{10, 20, 30}));
    clock.advance_to(100);
    EXPECT_EQ(fires, (std::vector<Tick>{10, 20, 30, 40, 50}));
    EXPECT_FALSE(clock.alarm_pending());
}

}  // namespace
}  // namespace anvil::mem
