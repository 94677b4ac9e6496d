/**
 * @file
 * Tests for the discrete-event kernel: time ordering, same-tick priority
 * ordering, insertion-order determinism, the run helpers, and the
 * drained-queue checkpoint round trip.
 */

#include <gtest/gtest.h>

#include <vector>

#include "event/event_queue.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickPriorityOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(4); }, EventPriority::Cpu);
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Snoop);
    eq.schedule(5, [&] { order.push_back(3); }, EventPriority::Data);
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Memory);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, SameTickSamePriorityIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
    eq.schedule(1, [] {});
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunWithLimit)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++fired; });
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, RunUntilStopsBeforeTick)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {5u, 10u, 15u, 20u})
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.runUntil(15);
    EXPECT_EQ(fired, (std::vector<Tick>{5, 10}));
    EXPECT_EQ(eq.now(), 15u);
    eq.run();
    EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilAdvancesTimeOverEmptySpans)
{
    EventQueue eq;
    // No events at all: time still advances to `until`.
    EXPECT_EQ(eq.runUntil(100), 0u);
    EXPECT_EQ(eq.now(), 100u);
    // Back-to-back empty spans keep advancing monotonically.
    EXPECT_EQ(eq.runUntil(250), 0u);
    EXPECT_EQ(eq.now(), 250u);
    // An event beyond `until` does not fire but time reaches `until`.
    bool fired = false;
    eq.schedule(1000, [&] { fired = true; });
    EXPECT_EQ(eq.runUntil(900), 0u);
    EXPECT_EQ(eq.now(), 900u);
    EXPECT_FALSE(fired);
    // `until` in the past (or present) never moves time backwards.
    eq.runUntil(10);
    EXPECT_EQ(eq.now(), 900u);
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, WheelWraparoundKeepsOrder)
{
    // Delays straddling the wheel horizon land in the overflow heap and
    // must still execute in (tick, priority, seq) order.
    EventQueue eq;
    std::vector<int> order;
    const Tick w = EventQueue::kWheelTicks;
    eq.schedule(2 * w + 3, [&] { order.push_back(5); });
    eq.schedule(w, [&] { order.push_back(3); });
    eq.schedule(w - 1, [&] { order.push_back(2); });
    eq.schedule(w + 1, [&] { order.push_back(4); });
    eq.schedule(1, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 2 * w + 3);
}

TEST(EventQueue, SameSlotDifferentTicksStaySeparate)
{
    // Ticks t and t + kWheelTicks map to the same wheel slot; the second
    // must wait in the overflow heap until the horizon reaches it.
    EventQueue eq;
    const Tick w = EventQueue::kWheelTicks;
    std::vector<Tick> fired;
    eq.schedule(7, [&] { fired.push_back(eq.now()); });
    eq.schedule(7 + w, [&] { fired.push_back(eq.now()); });
    eq.schedule(7 + 2 * w, [&] { fired.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{7, 7 + w, 7 + 2 * w}));
}

TEST(EventQueue, HeapMigrationPrecedesLaterSameTickInserts)
{
    // An event scheduled while its tick was beyond the horizon (heap)
    // has a smaller sequence number than a same-tick same-priority event
    // scheduled later from close range, so it must run first.
    EventQueue eq;
    const Tick target = EventQueue::kWheelTicks + 500;
    std::vector<int> order;
    eq.schedule(target, [&] { order.push_back(1); }); // far: heap
    eq.schedule(target - 10, [&] {
        // Close range now: this insert goes straight to the wheel.
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, HeapMigrationRespectsPriorityClasses)
{
    // Priority still dominates seq across the heap/wheel boundary: a
    // late near-range Snoop event outranks an early far-range Cpu event
    // at the same tick.
    EventQueue eq;
    const Tick target = EventQueue::kWheelTicks + 500;
    std::vector<int> order;
    eq.schedule(target, [&] { order.push_back(2); }, EventPriority::Cpu);
    eq.schedule(target - 10, [&] {
        eq.schedule(target, [&] { order.push_back(1); },
                    EventPriority::Snoop);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbackCanRaiseSameTickPriority)
{
    // While a Data event runs, a newly scheduled same-tick Snoop event
    // must execute before the remaining Data events (heap contract).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(1);
        eq.schedule(5, [&] { order.push_back(2); },
                    EventPriority::Snoop);
    }, EventPriority::Data);
    eq.schedule(5, [&] { order.push_back(3); }, EventPriority::Data);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, ClearDropsEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.clear();
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ClearResetsWheelAndHeap)
{
    EventQueue eq;
    int fired = 0;
    // Populate both levels: near-future wheel and far-future heap.
    for (Tick t = 1; t <= 64; ++t)
        eq.schedule(t, [&] { ++fired; });
    for (Tick t = 0; t < 8; ++t)
        eq.schedule(EventQueue::kWheelTicks + 100 + t * 2000,
                    [&] { ++fired; });
    EXPECT_EQ(eq.pending(), 72u);
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    eq.run();
    EXPECT_EQ(fired, 0);
    // The queue is fully reusable after clear().
    eq.schedule(eq.now() + 5, [&] { ++fired; });
    eq.schedule(eq.now() + EventQueue::kWheelTicks + 5, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearInsideCallbackDropsRestOfTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3, [&] {
        order.push_back(1);
        eq.clear(); // Drops the two events still pending at tick 3.
    });
    eq.schedule(3, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(3); }, EventPriority::Snoop);
    eq.schedule(500, [&] { order.push_back(4); });
    // The Snoop event runs first, then the clearing event.
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{3, 1}));
    EXPECT_TRUE(eq.empty());
    // The drained bucket is clean for reuse.
    eq.schedule(eq.now() + 1, [&] { order.push_back(5); });
    eq.run();
    EXPECT_EQ(order.back(), 5);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100u);
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduled in the past");
}

TEST(EventQueue, ZeroDelayScheduleInRunsAtSameTick)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&] { eq.scheduleIn(0, [&] { ran = true; }); });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, FarFutureEventRunsAtItsExactTick)
{
    EventQueue eq;
    const Tick far = 5 * EventQueue::kWheelTicks + 17;
    Tick seen = 0;
    eq.schedule(far, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, far);
    EXPECT_EQ(eq.now(), far);
}

TEST(EventQueue, PendingCountsWheelAndOverflowEvents)
{
    EventQueue eq;
    eq.schedule(3, [] {});
    eq.schedule(4, [] {});
    eq.schedule(3 * EventQueue::kWheelTicks, [] {});
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.pending(), 2u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunReturnsEventsExecutedIncludingChildren)
{
    EventQueue eq;
    for (int i = 0; i < 4; ++i)
        eq.schedule(i, [&eq] { eq.scheduleIn(2, [] {}); });
    EXPECT_EQ(eq.run(), 8u);
    EXPECT_EQ(eq.executed(), 8u);
}

TEST(EventQueue, ClearKeepsClockAndExecutedCount)
{
    EventQueue eq;
    eq.schedule(40, [] {});
    eq.schedule(90, [] {});
    eq.runUntil(50);
    ASSERT_EQ(eq.now(), 50u);
    ASSERT_EQ(eq.executed(), 1u);
    eq.clear();
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, SerializeRoundTripRestoresClockAndExecutedCount)
{
    EventQueue src;
    src.schedule(7, [] {});
    src.schedule(300, [] {});
    src.schedule(2 * EventQueue::kWheelTicks + 1, [] {});
    src.run();
    Serializer s;
    src.serialize(s);

    EventQueue dst;
    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(), "eq");
    dst.deserialize(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(dst.now(), src.now());
    EXPECT_EQ(dst.executed(), 3u);
}

TEST(EventQueue, RestoredQueueSchedulesRelativeToRestoredClock)
{
    EventQueue src;
    src.schedule(5000, [] {});
    src.run();
    Serializer s;
    src.serialize(s);

    EventQueue dst;
    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(), "eq");
    dst.deserialize(r);
    std::vector<Tick> fired;
    dst.scheduleIn(3, [&] { fired.push_back(dst.now()); });
    dst.scheduleIn(EventQueue::kWheelTicks + 3,
                   [&] { fired.push_back(dst.now()); });
    dst.run();
    EXPECT_EQ(fired, (std::vector<Tick>{5003,
                                        5003 + EventQueue::kWheelTicks}));
    EXPECT_EQ(dst.executed(), 3u);
}

TEST(EventQueueDeath, SerializeWithPendingEventsPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    Serializer s;
    EXPECT_DEATH(eq.serialize(s), "drained system");
}

TEST(EventQueueDeath, DeserializeIntoBusyQueuePanics)
{
    EventQueue drained;
    Serializer s;
    drained.serialize(s);

    EventQueue busy;
    busy.schedule(10, [] {});
    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(), "eq");
    EXPECT_DEATH(busy.deserialize(r), "events pending");
}

} // namespace
} // namespace cgct
