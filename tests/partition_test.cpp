/**
 * @file
 * Tests for the partitioned conservative-parallel event kernel
 * (sim/partition.hh) and its integration into msg::System.
 *
 * The load-bearing guarantee is the PR 5 determinism bar extended to
 * the kernel itself: a partitioned machine produces byte-identical
 * results — probe rows AND forensic dumps — at any worker-thread
 * count, and a single-cluster machine behaves identically whether the
 * kernel is classic (kernelThreads = 0) or partitioned.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/context.hh"
#include "sim/partition.hh"

namespace {

using namespace pm;

// ---- Kernel unit tests (direct sim::Partitioned use). ---------------------

TEST(Partition, SinglePartitionRunsLikeAnEventQueue)
{
    sim::Partitioned k(1);
    std::vector<int> order;
    (void)k.queue(0).schedule(30, [&] { order.push_back(3); });
    (void)k.queue(0).schedule(10, [&] { order.push_back(1); });
    (void)k.queue(0).schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(k.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(k.empty());
    EXPECT_EQ(k.crossPosts(), 0u);
}

/**
 * Cross-partition mailbox merge order: entries land in the destination
 * queue sorted by (when, src partition, append index) — regardless of
 * which tick inside the window each post was issued at, and regardless
 * of the thread count executing the window.
 */
void
mailboxOrderCase(unsigned threads)
{
    sim::Partitioned k(3, threads);
    k.setLookahead(100);
    std::vector<std::string> log;

    // Partitions 0 and 1 both execute events inside the first window
    // [0, 100) and post into partition 2 at ticks beyond the horizon.
    // Same-when entries must tie-break on (src, append index).
    (void)k.queue(0).schedule(0, [&] {
        k.post(0, 2, 200, [&] { log.push_back("a0"); });
        k.post(0, 2, 150, [&] { log.push_back("a1"); });
    });
    (void)k.queue(1).schedule(5, [&] {
        k.post(1, 2, 150, [&] { log.push_back("b0"); });
        k.post(1, 2, 200, [&] { log.push_back("b1"); });
        k.post(1, 2, 150, [&] { log.push_back("b2"); });
    });

    k.run();
    // when=150: src0 ("a1"), then src1 in append order ("b0", "b2");
    // when=200: src0 ("a0"), then src1 ("b1").
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "b0", "b2", "a0", "b1"}))
        << "threads=" << threads;
    EXPECT_EQ(k.crossPosts(), 5u);
    EXPECT_TRUE(k.empty());
    EXPECT_GE(k.queue(2).now(), Tick(200));
}

TEST(Partition, MailboxMergeOrderIsDeterministic)
{
    mailboxOrderCase(1);
    mailboxOrderCase(3);
}

TEST(Partition, ChainedCrossPostsRespectLookaheadWindows)
{
    // A relay bouncing between two partitions: each hop adds exactly
    // the lookahead, so every hop lands in a later window and the
    // window count tracks the hop count.
    sim::Partitioned k(2);
    const Tick la = 50;
    k.setLookahead(la);
    std::vector<Tick> arrivals;
    unsigned hops = 0;
    constexpr unsigned kHops = 8;

    std::function<void(unsigned)> hop = [&](unsigned at) {
        arrivals.push_back(k.queue(at).now());
        if (++hops >= kHops)
            return;
        const unsigned next = 1 - at;
        k.post(at, next, k.queue(at).now() + la,
               [&hop, next] { hop(next); });
    };
    (void)k.queue(0).schedule(0, [&] { hop(0); });

    k.run();
    ASSERT_EQ(arrivals.size(), kHops);
    for (unsigned i = 0; i < kHops; ++i)
        EXPECT_EQ(arrivals[i], Tick(i) * la) << "hop " << i;
    EXPECT_EQ(k.crossPosts(), kHops - 1);
    EXPECT_GE(k.windows(), kHops - 1);
}

TEST(Partition, RunHonoursLimitAcrossPartitions)
{
    sim::Partitioned k(2);
    k.setLookahead(10);
    int ran = 0;
    (void)k.queue(0).schedule(5, [&] { ++ran; });
    (void)k.queue(1).schedule(25, [&] { ++ran; });
    k.run(/*limit=*/15);
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(k.empty()); // the tick-25 event is still pending
    k.run();
    EXPECT_EQ(ran, 2);
}

// ---- System-level determinism (the PR 5 bar). -----------------------------

msg::SystemParams
fabricParams(unsigned clusters, unsigned kernelThreads)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric = machines::powerMannaFabric(clusters, 2);
    sp.kernelThreads = kernelThreads;
    return sp;
}

/** One probe point: a latency row plus the System's forensic dump. */
struct Point
{
    std::string row;
    std::string dump;
};

Point
measurePoint(const msg::SystemParams &sp, unsigned a, unsigned b,
             unsigned bytes)
{
    msg::System sys(sp);
    Point res;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%u %.3f", bytes,
                  msg::measureOneWayLatencyUs(sys, a, b, bytes, 4));
    res.row = buf;
    std::ostringstream os;
    {
        sim::Context::Scope scope(sys.context());
        sim::Context::current().runDumpHooks(os);
    }
    res.dump = os.str();
    return res;
}

/** Cross-cluster latency sweep on a 2x2 machine (3 partitions). */
std::vector<Point>
crossClusterSweep(unsigned kernelThreads)
{
    const msg::SystemParams sp = fabricParams(2, kernelThreads);
    std::vector<Point> out;
    for (unsigned bytes : {8u, 64u, 512u})
        out.push_back(measurePoint(sp, 0, 2, bytes)); // distinct clusters
    return out;
}

TEST(Partition, TwoRunsAreByteIdentical)
{
    const auto a = crossClusterSweep(1);
    const auto b = crossClusterSweep(1);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].row, b[i].row) << "point " << i;
        EXPECT_EQ(a[i].dump, b[i].dump) << "point " << i;
        EXPECT_FALSE(a[i].dump.empty()) << "point " << i;
    }
}

TEST(Partition, FourThreadsMatchOneThreadByteForByte)
{
    const auto seq = crossClusterSweep(1);
    const auto par = crossClusterSweep(4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].row, par[i].row) << "point " << i;
        EXPECT_EQ(seq[i].dump, par[i].dump) << "point " << i;
        EXPECT_FALSE(seq[i].dump.empty()) << "point " << i;
    }
}

TEST(Partition, SingleClusterPartitionedMatchesClassic)
{
    // One cluster needs one partition, so the partitioned build at any
    // thread count must reproduce the classic kernel exactly — this is
    // what keeps the Figure 9/11/12 anchors byte-identical.
    const auto classic = measurePoint(fabricParams(1, 0), 0, 1, 64);
    const auto one = measurePoint(fabricParams(1, 1), 0, 1, 64);
    const auto four = measurePoint(fabricParams(1, 4), 0, 1, 64);
    EXPECT_EQ(classic.row, one.row);
    EXPECT_EQ(classic.row, four.row);
    EXPECT_EQ(classic.dump, one.dump);
    EXPECT_EQ(classic.dump, four.dump);
}

TEST(Partition, CrossClusterTrafficFlowsThroughMailboxes)
{
    msg::System sys(fabricParams(2, 1));
    ASSERT_TRUE(sys.partitioned());
    EXPECT_EQ(sys.kernel().partitions(), 3u); // 2 clusters + hub
    EXPECT_GT(sys.fabric().lookahead(), Tick(0));
    EXPECT_EQ(sys.kernel().lookahead(), sys.fabric().lookahead());

    const double us = msg::measureOneWayLatencyUs(sys, 0, 3, 64, 2);
    EXPECT_GT(us, 0.0);
    // Every symbol crossing a cluster boundary rode a mailbox, and the
    // kernel had to close windows to deliver them.
    EXPECT_GT(sys.kernel().crossPosts(), 0u);
    EXPECT_GT(sys.kernel().windows(), 0u);
}

TEST(Partition, BandwidthProbesAreThreadCountInvariant)
{
    // The streaming probes (Figure 11/12 shapes) stress the bridge
    // credit path far harder than ping-pong: back-to-back symbols
    // throttle on mailbox credit and resume via barrier wakes.
    for (unsigned bytes : {512u, 4096u}) {
        msg::System one(fabricParams(2, 1));
        msg::System four(fabricParams(2, 4));
        const double uniOne =
            msg::measureUnidirectionalMBps(one, 0, 2, bytes, 8);
        const double uniFour =
            msg::measureUnidirectionalMBps(four, 0, 2, bytes, 8);
        EXPECT_EQ(uniOne, uniFour) << "uni " << bytes;
        const double biOne =
            msg::measureBidirectionalMBps(one, 1, 3, bytes, 8);
        const double biFour =
            msg::measureBidirectionalMBps(four, 1, 3, bytes, 8);
        EXPECT_EQ(biOne, biFour) << "bi " << bytes;
    }
}

} // namespace
