/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * cancellation, clock domains, statistics, and the PRNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/clock.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace {

using namespace pm;
using pm::sim::ClockDomain;
using pm::sim::EventQueue;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    (void)q.schedule(30, [&] { order.push_back(3); });
    (void)q.schedule(10, [&] { order.push_back(1); });
    (void)q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        (void)q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    (void)q.schedule(1, [&] {
        ++fired;
        (void)q.schedule(2, [&] {
            ++fired;
            (void)q.scheduleIn(3, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue q;
    int fired = 0;
    (void)q.schedule(10, [&] { ++fired; });
    (void)q.schedule(100, [&] { ++fired; });
    EXPECT_EQ(q.run(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    auto id = q.schedule(10, [&] { ++fired; });
    (void)q.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // already cancelled
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelInvalidHandleFails)
{
    EventQueue q;
    sim::EventHandle h; // default-constructed: invalid
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(q.cancel(h));
    EXPECT_FALSE(q.scheduled(h));
}

TEST(EventQueue, CancelAfterExecuteFailsAndKeepsPendingConsistent)
{
    // Regression: the old kernel accepted a cancel of an id that had
    // already run, underflowing pending() (size_t wrap) and wedging
    // empty()/run().
    EventQueue q;
    int fired = 0;
    auto h = q.schedule(10, [&] { ++fired; });
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.scheduled(h));
    EXPECT_FALSE(q.cancel(h)); // must reject: already executed
    EXPECT_EQ(q.pending(), 0u); // and never underflow
    EXPECT_TRUE(q.empty());
    (void)q.schedule(20, [&] { ++fired; });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, DoubleCancelFails)
{
    EventQueue q;
    int fired = 0;
    auto h = q.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, StaleHandleToRecycledSlotFails)
{
    // A handle outlives its event; its slab slot is recycled by later
    // schedulings. The stale handle must not cancel the new occupant.
    EventQueue q;
    int first = 0, second = 0;
    auto stale = q.schedule(10, [&] { ++first; });
    q.run();
    EXPECT_EQ(first, 1);
    auto fresh = q.schedule(20, [&] { ++second; }); // recycles the slot
    EXPECT_NE(stale.id(), fresh.id());
    EXPECT_FALSE(q.cancel(stale));
    EXPECT_TRUE(q.scheduled(fresh));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(second, 1);
}

TEST(EventQueue, PendingAndEmptyStayConsistentUnderChurn)
{
    EventQueue q;
    std::vector<sim::EventHandle> hs;
    for (int i = 0; i < 100; ++i)
        hs.push_back(q.schedule(static_cast<Tick>(10 + i), [] {}));
    EXPECT_EQ(q.pending(), 100u);
    for (int i = 0; i < 100; i += 2)
        EXPECT_TRUE(q.cancel(hs[i]));
    EXPECT_EQ(q.pending(), 50u);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.run(), 50u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
    for (auto &h : hs)
        EXPECT_FALSE(q.cancel(h)); // executed or already cancelled
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, SameTickFifoSurvivesInterleavedCancels)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<sim::EventHandle> hs;
    for (int i = 0; i < 8; ++i)
        hs.push_back(q.schedule(5, [&order, i] { order.push_back(i); }));
    q.cancel(hs[0]);
    q.cancel(hs[3]);
    q.cancel(hs[7]);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6}));
}

TEST(EventQueue, RunLimitLeavesNowAtLastExecutedEvent)
{
    // now() must never exceed the run limit, and draining cancelled
    // tombstones must not advance it.
    EventQueue q;
    int fired = 0;
    (void)q.schedule(10, [&] { ++fired; });
    auto h = q.schedule(40, [&] { ++fired; });
    (void)q.schedule(90, [&] { ++fired; });
    q.cancel(h);
    EXPECT_EQ(q.run(50), 1u); // executes tick 10; tick-40 is a tombstone
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.now(), 90u);
    // Fully drained queue with only tombstones left behind.
    auto h2 = q.schedule(200, [&] { ++fired; });
    q.cancel(h2);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
    EXPECT_EQ(q.now(), 90u); // unchanged: nothing executed
}

TEST(EventQueue, SlabSlotsAreRecycled)
{
    // Steady-state scheduling must reuse slab records instead of
    // growing — the allocation-free guarantee.
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < 4; ++i)
        (void)q.schedule(static_cast<Tick>(i), [&] { ++sink; });
    q.run();
    const std::size_t watermark = q.slabSize();
    for (int round = 0; round < 64; ++round) {
        for (int i = 0; i < 4; ++i)
            (void)q.scheduleIn(static_cast<Tick>(1 + i), [&] { ++sink; });
        q.run();
    }
    EXPECT_EQ(q.slabSize(), watermark);
    EXPECT_EQ(sink, 4 + 64 * 4);
}

TEST(EventQueue, MoveOnlyAndLargeCapturesWork)
{
    EventQueue q;
    // Move-only capture (std::function would reject this).
    auto ptr = std::make_unique<int>(41);
    int got = 0;
    (void)q.schedule(1, [p = std::move(ptr), &got] { got = *p + 1; });
    // Capture larger than the inline buffer: heap fallback path.
    struct Big
    {
        std::uint64_t words[16] = {};
    } big;
    big.words[15] = 7;
    std::uint64_t gotBig = 0;
    static_assert(sizeof(Big) > sim::EventFn::kInlineBytes);
    (void)q.schedule(2, [big, &gotBig] { gotBig = big.words[15]; });
    q.run();
    EXPECT_EQ(got, 42);
    EXPECT_EQ(gotBig, 7u);
}

TEST(EventQueue, CancelReleasesCapturedResourcesEagerly)
{
    EventQueue q;
    auto alive = std::make_shared<int>(1);
    std::weak_ptr<int> watch = alive;
    auto h = q.schedule(10, [keep = std::move(alive)] { (void)keep; });
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(q.cancel(h));
    EXPECT_TRUE(watch.expired()); // capture destroyed at cancel time
}

TEST(EventQueue, PendingCountsUncancelled)
{
    EventQueue q;
    auto a = q.schedule(10, [] {});
    (void)q.schedule(20, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int fired = 0;
    (void)q.schedule(1, [&] { ++fired; });
    (void)q.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, FifoOrderAcrossFullBucketSpill)
{
    // Same-tick events past a full near bucket spill to the far heap;
    // once pops free bucket slots, later same-tick events land back in
    // the bucket. Execution must still follow schedule order.
    EventQueue q;
    std::vector<int> order;
    const int first = static_cast<int>(EventQueue::kBucketSlots) + 8;
    int next = 0;
    for (; next < first; ++next)
        (void)q.schedule(100, [&order, i = next] { order.push_back(i); });
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.step());
    for (int i = 0; i < 4; ++i, ++next)
        (void)q.schedule(100, [&order, i = next] { order.push_back(i); });
    EXPECT_EQ(q.pending(), static_cast<std::size_t>(next - 4));
    EXPECT_EQ(q.run(), static_cast<std::uint64_t>(next - 4));
    ASSERT_EQ(order.size(), static_cast<std::size_t>(next));
    for (int i = 0; i < next; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, WheelWrapAroundKeepsTimeOrder)
{
    // Park now() in the wheel's last bucket, then schedule into the
    // buckets that wrap to the front of the wheel, the last bucket
    // inside the horizon, the first past it, and one far beyond.
    EventQueue q;
    const Tick w = EventQueue::kBucketTicks;
    const Tick horizon = w * EventQueue::kBuckets;
    const Tick start = 3 * horizon - w + 7; // last bucket, third lap
    std::vector<Tick> ran;
    const auto at = [&](Tick when) {
        (void)q.schedule(when, [&ran, &q] { ran.push_back(q.now()); });
    };
    at(start);
    EXPECT_EQ(q.run(), 1u);
    const Tick base = start - start % w; // now's bucket
    const std::vector<Tick> whens = {
        base + horizon + w,     // past the horizon: far tier
        base + horizon,         // exactly at the horizon: far tier
        base + horizon - 1,     // last near tick
        base + w + 5,           // wraps to bucket 0
        base + 2 * w,           // bucket 1
        start,                  // now
        base + w - 1,           // end of now's bucket
        base + 10 * horizon,    // far beyond
        base + 3 * w + 1,
    };
    for (Tick t : whens)
        at(t);
    std::vector<Tick> expect = whens;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(q.run(), whens.size());
    ran.erase(ran.begin());
    EXPECT_EQ(ran, expect);

    // A self-rescheduling chain laps the wheel several times, always
    // landing in the bucket just behind now's (the wheel's last).
    int laps = 0;
    std::function<void()> hop = [&] {
        if (++laps < 40)
            (void)q.scheduleIn(horizon - w, [&] { hop(); });
    };
    (void)q.schedule(q.now(), [&] { hop(); });
    q.run();
    EXPECT_EQ(laps, 40);
    EXPECT_EQ(q.now(), base + 10 * horizon + 39 * (horizon - w));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.liveRecords(), 0u);
}

TEST(EventQueue, MatchesReferenceOrderUnderRandomChurn)
{
    // Random schedule / cancel / step / run(limit) against a plain
    // sorted (when, seq) model. The deltas cover now(), the current
    // bucket, later buckets, the horizon edge and the far tier; bursts
    // overflow one bucket and cancels leave tombstones in both tiers.
    const Tick w = EventQueue::kBucketTicks;
    const Tick horizon = w * EventQueue::kBuckets;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        sim::SplitMix64 rng(seed);
        EventQueue q;
        std::map<std::pair<Tick, std::uint64_t>, int> model;
        std::vector<std::pair<sim::EventHandle, Tick>> handles;
        std::vector<int> ran, expect;
        Tick modelNow = 0;
        int nextId = 0;

        const auto deltaFor = [&](unsigned kind) -> Tick {
            const Tick now = q.now();
            const Tick bucketEnd = now - now % w + w;
            const Tick edge = now - now % w + horizon;
            switch (kind) {
              case 0: return 0;
              case 1: return rng.below(bucketEnd - now); // current bucket
              case 2: return rng.below(horizon);         // across buckets
              case 3: return edge - now - rng.below(2);  // horizon edge
              default: return horizon + rng.below(4 * horizon); // far
            }
        };
        const auto add = [&](Tick delta) {
            const int id = nextId++;
            const sim::EventHandle h =
                q.scheduleIn(delta, [&ran, id] { ran.push_back(id); });
            model.emplace(std::make_pair(q.now() + delta, h.id()), id);
            handles.emplace_back(h, q.now() + delta);
        };
        const auto modelStep = [&](Tick limit) {
            if (model.empty() || model.begin()->first.first > limit)
                return false;
            modelNow = model.begin()->first.first;
            expect.push_back(model.begin()->second);
            model.erase(model.begin());
            return true;
        };

        for (int op = 0; op < 6000; ++op) {
            const unsigned r = static_cast<unsigned>(rng.below(100));
            if (r < 40) {
                add(deltaFor(static_cast<unsigned>(rng.below(5))));
            } else if (r < 44) {
                // Burst into one bucket, past its capacity.
                const Tick d = deltaFor(static_cast<unsigned>(rng.below(3)));
                const int n = static_cast<int>(EventQueue::kBucketSlots) +
                              static_cast<int>(rng.below(8));
                for (int i = 0; i < n; ++i)
                    add(d);
            } else if (r < 64 && !handles.empty()) {
                const std::size_t i = rng.below(handles.size());
                const auto [h, when] = handles[i];
                const bool live = model.erase({when, h.id()}) > 0;
                EXPECT_EQ(q.cancel(h), live);
                EXPECT_FALSE(q.scheduled(h));
                handles[i] = handles.back();
                handles.pop_back();
            } else if (r < 90) {
                const Tick limit = rng.below(4) == 0
                                       ? kTickNever
                                       : q.now() + deltaFor(2);
                EXPECT_EQ(q.step(limit), modelStep(limit));
            } else {
                const Tick limit = q.now() + deltaFor(
                    static_cast<unsigned>(1 + rng.below(4)));
                std::uint64_t n = 0;
                while (modelStep(limit))
                    ++n;
                EXPECT_EQ(q.run(limit), n);
            }
            ASSERT_EQ(ran, expect) << "op " << op;
            ASSERT_EQ(q.now(), modelNow) << "op " << op;
            ASSERT_EQ(q.pending(), model.size()) << "op " << op;
            ASSERT_EQ(q.liveRecords(), q.pending()) << "op " << op;
        }
        while (modelStep(kTickNever)) {}
        q.run();
        EXPECT_EQ(ran, expect);
        EXPECT_EQ(q.now(), modelNow);
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.liveRecords(), 0u);
    }
}

TEST(ClockDomain, PeriodsAreRoundedPicoseconds)
{
    ClockDomain mhz60(60.0);
    EXPECT_EQ(mhz60.period(), 16667u); // 16.666... ns
    ClockDomain mhz180(180.0);
    EXPECT_EQ(mhz180.period(), 5556u);
}

TEST(ClockDomain, CyclesScaleLinearly)
{
    ClockDomain clk(100.0); // 10 ns period
    EXPECT_EQ(clk.period(), 10000u);
    EXPECT_EQ(clk.cycles(0), 0u);
    EXPECT_EQ(clk.cycles(7), 70000u);
}

TEST(ClockDomain, NextEdgeAlignsUp)
{
    ClockDomain clk(100.0);
    EXPECT_EQ(clk.nextEdge(0), 0u);
    EXPECT_EQ(clk.nextEdge(1), 10000u);
    EXPECT_EQ(clk.nextEdge(10000), 10000u);
    EXPECT_EQ(clk.nextEdge(10001), 20000u);
}

TEST(ClockDomain, TicksToCyclesFloors)
{
    ClockDomain clk(100.0);
    EXPECT_EQ(clk.ticksToCycles(9999), 0u);
    EXPECT_EQ(clk.ticksToCycles(10000), 1u);
    EXPECT_EQ(clk.ticksToCycles(25000), 2u);
}

TEST(Stats, ScalarAccumulates)
{
    sim::Scalar s("s");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 4.0;
    EXPECT_EQ(s.value(), 5.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionMoments)
{
    sim::Distribution d("d");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.variance(), 4.0);
}

TEST(Stats, VarianceIsExactForOffsetSamples)
{
    // Regression: the old sum-of-squares variance cancels
    // catastrophically when the mean dwarfs the spread — exactly the
    // latency-in-ticks regime (~1e9). Welford's update must recover
    // the exact variance of mean-shifted samples.
    sim::Distribution d("lat");
    const double base = 1e9;
    for (double off : {1.0, 2.0, 3.0})
        d.sample(base + off);
    EXPECT_DOUBLE_EQ(d.mean(), base + 2.0);
    EXPECT_NEAR(d.variance(), 2.0 / 3.0, 1e-9);

    // Same shape, bigger offset: must stay exact and non-negative.
    d.reset();
    for (double off : {5.0, 5.0, 9.0, 9.0})
        d.sample(1e12 + off);
    EXPECT_NEAR(d.variance(), 4.0, 1e-3);
    EXPECT_GE(d.variance(), 0.0);
}

TEST(Stats, EmptyDistributionIsZero)
{
    sim::Distribution d("d");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
}

TEST(Stats, GroupDumpAndReset)
{
    sim::StatGroup root("root");
    sim::Scalar s("hits", "demand hits");
    sim::Distribution d("lat");
    root.add(&s);
    root.add(&d);
    s += 3;
    d.sample(1.0);

    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("root.hits 3"), std::string::npos);
    EXPECT_NE(out.find("root.lat::count 1"), std::string::npos);

    root.reset();
    EXPECT_EQ(s.value(), 0.0);
    EXPECT_EQ(d.count(), 0u);
}

TEST(Stats, NestedGroupsPrefixNames)
{
    sim::StatGroup root("node");
    sim::StatGroup child("l1");
    sim::Scalar s("misses");
    child.add(&s);
    root.add(&child);
    s += 1;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("node.l1.misses 1"), std::string::npos);
}

TEST(Random, Deterministic)
{
    sim::SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    sim::SplitMix64 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Random, BelowIsInRange)
{
    sim::SplitMix64 r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, UniformIsInUnitInterval)
{
    sim::SplitMix64 r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Types, TickConversions)
{
    EXPECT_DOUBLE_EQ(ticksToUs(kTicksPerUs), 1.0);
    EXPECT_DOUBLE_EQ(ticksToNs(2500), 2.5);
    EXPECT_DOUBLE_EQ(ticksToSec(kTicksPerSec), 1.0);
}

TEST(Logging, AssertPassesQuietly)
{
    const int three = 3;
    pm_assert(three == 3);
    pm_assert(three > 0, "context %d never printed", three);
}

TEST(Logging, AssertPrintsCondition)
{
    const int three = 3;
    EXPECT_DEATH(pm_assert(three == 4),
                 "assertion failed: three == 4");
}

TEST(Logging, AssertPrintsFormattedMessageWithCondition)
{
    // Regression: the message after the condition used to be silently
    // dropped — only the stringified condition was ever printed.
    const unsigned seq = 41;
    EXPECT_DEATH(pm_assert(seq + 1 == 41, "dst %u lost seq %u", 3u, seq),
                 "assertion failed: seq \\+ 1 == 41: dst 3 lost seq 41");
}

} // namespace
