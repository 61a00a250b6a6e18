/**
 * @file
 * Workloads on a machine partitioned into clusters: a 2x2 PowerMANNA
 * (two 2-node clusters joined by the second crossbar level), so every
 * test below sends traffic across the cluster partition.
 *
 * The contract is byte-identity run to run — probe rows, counters,
 * stats dumps, forensic dumps and peer-death reports — plus the
 * results each workload must compute. It covers the plain message
 * layer, fault injection, the collectives and the EARTH runtime.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "earth/runtime.hh"
#include "machines/machines.hh"
#include "msg/collectives.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/context.hh"
#include "sim/fault.hh"

namespace {

using namespace pm;

/** A 2x2 PowerMANNA machine: two clusters of two nodes. */
msg::SystemParams
twoClusterParams()
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric = machines::powerMannaFabric(2, 2);
    return sp;
}

/** Run the machine until no event is left (ACK timers, polls). */
void
drainCompletely(msg::System &sys)
{
    sim::Context::Scope scope(sys.context());
    while (sys.queue().step()) {
    }
}

// ---- Message layer. -------------------------------------------------------

/** One probe point: a latency row plus the System's forensic dump. */
struct Point
{
    std::string row;
    std::string dump;
};

Point
measurePoint(unsigned a, unsigned b, unsigned bytes)
{
    msg::System sys(twoClusterParams());
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

/** Latency sweep between nodes 0 and 2, which sit in distinct clusters. */
std::vector<Point>
crossClusterSweep()
{
    std::vector<Point> out;
    for (unsigned bytes : {8u, 64u, 512u})
        out.push_back(measurePoint(0, 2, bytes));
    return out;
}

TEST(Partition, TwoRunsAreByteIdentical)
{
    const auto a = crossClusterSweep();
    const auto b = crossClusterSweep();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].row, b[i].row) << "point " << i;
        EXPECT_EQ(a[i].dump, b[i].dump) << "point " << i;
        EXPECT_NE(a[i].dump.find("=== health dump"), std::string::npos)
            << "point " << i;
    }
}

// ---- Fault injection. -----------------------------------------------------

/**
 * A faulty cross-cluster soak plus every observable: soak counters, a
 * latency probe row, the fault model's stats, endpoint NI stats, and
 * the full forensic dump. BER and drop faults ride the defaults; one
 * uplink transceiver additionally goes down for a window mid-soak, so
 * the link-down stall path runs on the second crossbar level.
 */
std::string
faultySweepFingerprint()
{
    sim::FaultModel fault(4242);
    fault.defaults.ber = 1e-4;
    fault.defaults.drop = 2e-5;
    sim::FaultConfig flaky = fault.defaults;
    flaky.down.push_back({40000, 90000});
    fault.configure("xcvr.up.c0.u0*", flaky);
    msg::SystemParams sp = twoClusterParams();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    std::ostringstream os;
    const auto soak = msg::runDeliverySoak(sys, 0, 2, 128, 120);
    os << "delivered=" << soak.delivered << " intact=" << soak.intact
       << " us=" << soak.elapsedUs << " retrans=" << soak.retransmits
       << " crc=" << soak.crcDrops << " dup=" << soak.duplicateDiscards
       << " ooo=" << soak.outOfOrderDiscards << " to=" << soak.timeouts
       << " acks=" << soak.acksSent << " nacks=" << soak.nacksSent
       << "\n";
    os << "lat=" << msg::measureOneWayLatencyUs(sys, 1, 3, 64, 4)
       << "\n";
    drainCompletely(sys);
    os << "now=" << sys.simNow() << "\n";
    fault.stats().dump(os);
    sys.ni(0).stats().dump(os);
    sys.ni(2).stats().dump(os);
    {
        sim::Context::Scope scope(sys.context());
        sim::Context::current().runDumpHooks(os);
    }
    return os.str();
}

TEST(FaultPartition, TwoFaultyPartitionedRunsAreByteIdentical)
{
    const std::string first = faultySweepFingerprint();
    const std::string second = faultySweepFingerprint();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(FaultPartition, FaultyRunsMatchClassicByteForByte)
{
    // Probe rows, fault stats and forensic dump all land in the
    // fingerprint, and the faults really corrupted traffic.
    const std::string run = faultySweepFingerprint();
    EXPECT_NE(run.find("delivered=120 intact=1"), std::string::npos)
        << run;
    EXPECT_NE(run.find("=== health dump"), std::string::npos);
    EXPECT_NE(run.find("fault.words_corrupted "), std::string::npos)
        << run;
    EXPECT_EQ(run.find("fault.words_corrupted 0 "), std::string::npos)
        << run;
    EXPECT_EQ(run.find("fault.bits_flipped 0 "), std::string::npos)
        << run;
}

TEST(FaultPartition, DeferredCountersAreMergedBeforeStatsReads)
{
    // The soak's quiescence audit reads the fault stats mid-lifetime:
    // every corruption the soak saw must already be counted by then,
    // not left pending until the machine is destroyed.
    sim::FaultModel fault(99);
    fault.defaults.ber = 1e-4;
    msg::SystemParams sp = twoClusterParams();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    const auto soak = msg::runDeliverySoak(sys, 0, 3, 128, 60);
    EXPECT_EQ(soak.delivered, 60u);
    EXPECT_TRUE(soak.intact);
    EXPECT_GT(fault.wordsCorrupted.value(), 0.0);
    EXPECT_GT(fault.bitsFlipped.value(), 0.0);
}

// ---- Collectives. ---------------------------------------------------------

/** Every collective op once, durations and results. */
std::string
collectiveFingerprint()
{
    msg::System sys(twoClusterParams());
    msg::Communicator comm(sys, {0, 1, 2, 3});

    std::ostringstream os;
    os << "barrier=" << comm.barrier();
    os << " bcast=" << comm.broadcast(1, {0xDEADBEEFull, 42, 7});
    std::vector<std::uint64_t> sum;
    os << " reduce="
       << comm.reduceSum(0, {{1, 10}, {2, 20}, {3, 30}, {4, 40}}, sum);
    os << " sum=" << sum[0] << "," << sum[1];
    std::vector<std::uint64_t> all;
    os << " allreduce="
       << comm.allReduceSum({{5}, {6}, {7}, {8}}, all);
    os << " allsum=" << all[0];
    return os.str();
}

TEST(CollectivesPartition, ResultsAndTimingsMatchClassic)
{
    const std::string run = collectiveFingerprint();
    EXPECT_NE(run.find("sum=10,100"), std::string::npos) << run;
    EXPECT_NE(run.find("allsum=26"), std::string::npos) << run;
    // Every op took simulated time.
    for (const char *op : {"barrier=0 ", "bcast=0 ", "reduce=0 ",
                           "allreduce=0 "})
        EXPECT_EQ(run.find(op), std::string::npos) << op << " in " << run;
}

TEST(CollectivesPartition, TwoPartitionedRunsAreByteIdentical)
{
    EXPECT_EQ(collectiveFingerprint(), collectiveFingerprint());
}

// ---- EARTH runtime. -------------------------------------------------------

/**
 * A healthy EARTH workload spanning both clusters: a remote get, a
 * split-phase put and a remote invoke. Fingerprints the run duration,
 * the fetched and stored values, and every node's counters.
 */
std::string
earthCrossClusterFingerprint()
{
    msg::System sys(twoClusterParams());
    earth::Runtime rt(sys);

    // Node 0 (cluster 0) gets from node 3 (cluster 1); node 2 puts to
    // node 1 across the boundary; node 3 invokes a function on 0.
    rt.registerFunction(1, [](earth::NodeRt &self,
                              const std::vector<std::uint64_t> &args) {
        self.storeLocal(0x500, args.at(0) * 2);
    });
    rt.node(3).storeLocal(0x100, 777);

    std::uint64_t fetched = 0;
    bool getDone = false, putDone = false;
    const earth::SlotRef gslot =
        rt.node(0).makeSlot(1, [&](earth::NodeRt &) { getDone = true; });
    rt.node(0).spawnLocal([&, gslot](earth::NodeRt &self) {
        self.getRemote(3, 0x100, &fetched, gslot);
    });
    const earth::SlotRef pslot =
        rt.node(2).makeSlot(1, [&](earth::NodeRt &) { putDone = true; });
    rt.node(2).spawnLocal([&, pslot](earth::NodeRt &self) {
        self.putRemote(1, 0x200, 4242, pslot);
    });
    rt.node(3).spawnLocal([](earth::NodeRt &self) {
        self.invokeRemote(0, 1, {21});
    });

    const Tick t = rt.run();
    EXPECT_TRUE(getDone);
    EXPECT_TRUE(putDone);

    std::ostringstream os;
    os << "t=" << t << " fetched=" << fetched
       << " put=" << rt.node(1).loadLocal(0x200)
       << " invoked=" << rt.node(0).loadLocal(0x500) << "\n";
    for (unsigned n = 0; n < rt.numNodes(); ++n)
        os << "n" << n << " fibers=" << rt.node(n).fibersRun.value()
           << " syncs=" << rt.node(n).syncsHandled.value()
           << " remote=" << rt.node(n).remoteOps.value() << "\n";
    return os.str();
}

TEST(EarthPartition, CrossClusterWorkloadMatchesClassic)
{
    const std::string first = earthCrossClusterFingerprint();
    EXPECT_NE(first.find("fetched=777"), std::string::npos) << first;
    EXPECT_NE(first.find("put=4242"), std::string::npos) << first;
    EXPECT_NE(first.find("invoked=42"), std::string::npos) << first;
    EXPECT_EQ(first, earthCrossClusterFingerprint());
}

/**
 * The peer-death soak: node 3 (cluster 1) is unreachable for good, so
 * node 0 (cluster 0) discovers the death across the second crossbar
 * level. The survivors — including node 2 in the dead node's own
 * cluster — must keep exactly-once delivery through the failure and
 * through a second post-death round.
 */
std::string
earthPeerDeathOutcome()
{
    // Node 3 is dead: everything it sends and everything sent to it
    // vanishes. Drops (not down-windows) so the shared downlink into
    // cluster 1 keeps draining — a permanently-down crossbar port
    // would head-of-line-block the survivors' traffic behind the dead
    // node's, which is a network partition, not a node death.
    sim::FaultModel fault(5);
    sim::FaultConfig dead;
    dead.drop = 1.0;
    fault.configure("xbar.c1.net0.out1", dead); // node 3's inbound port
    fault.configure("ni.n3.net0.tx", dead);
    msg::SystemParams sp = twoClusterParams();
    sp.fabric.fault = &fault;
    msg::System sys(sp);

    earth::EarthCosts costs;
    costs.driver.retransBase = 2000; // fail fast: the test waits on it
    costs.driver.maxRetries = 2;
    earth::Runtime rt(sys, costs);

    std::vector<std::pair<unsigned, unsigned>> deaths;
    rt.onPeerDeath([&](unsigned node, unsigned dead) {
        deaths.emplace_back(node, dead);
    });

    // Node 0 GETs from the doomed node; the value can never arrive.
    std::uint64_t fetched = 0xABCD;
    bool getFired = false;
    const earth::SlotRef slot0 =
        rt.node(0).makeSlot(1, [&](earth::NodeRt &) { getFired = true; });
    rt.node(0).spawnLocal([&, slot0](earth::NodeRt &self) {
        self.getRemote(3, 0x10, &fetched, slot0);
    });

    // Survivors exchange cross-cluster split-phase stores meanwhile.
    bool put1Done = false, put2Done = false;
    const earth::SlotRef slot1 =
        rt.node(1).makeSlot(1, [&](earth::NodeRt &) { put1Done = true; });
    rt.node(1).spawnLocal([&, slot1](earth::NodeRt &self) {
        self.putRemote(2, 0x20, 111, slot1);
    });
    const earth::SlotRef slot2 =
        rt.node(2).makeSlot(1, [&](earth::NodeRt &) { put2Done = true; });
    rt.node(2).spawnLocal([&, slot2](earth::NodeRt &self) {
        self.putRemote(1, 0x30, 222, slot2);
    });

    rt.run();
    EXPECT_TRUE(put1Done);
    EXPECT_TRUE(put2Done);
    EXPECT_FALSE(getFired);
    EXPECT_EQ(fetched, 0xABCDu);

    // Post-death round: the degraded machine still delivers
    // exactly-once among the survivors.
    bool roundTwo = false;
    const earth::SlotRef slot3 =
        rt.node(2).makeSlot(1, [&](earth::NodeRt &) { roundTwo = true; });
    rt.node(2).spawnLocal([&, slot3](earth::NodeRt &self) {
        self.putRemote(0, 0x40, 333, slot3);
    });
    rt.run();
    EXPECT_TRUE(roundTwo);

    std::ostringstream os;
    os << "dead=";
    for (unsigned d : rt.deadPeers())
        os << d << ",";
    os << " reports=";
    for (const auto &[n, d] : deaths)
        os << n << ":" << d << ",";
    os << " getsFailed=" << rt.node(0).getsFailed.value()
       << " v20=" << rt.node(2).loadLocal(0x20)
       << " v30=" << rt.node(1).loadLocal(0x30)
       << " v40=" << rt.node(0).loadLocal(0x40) << "\n";
    for (unsigned n = 0; n < rt.numNodes(); ++n)
        os << "n" << n << " fibers=" << rt.node(n).fibersRun.value()
           << " syncs=" << rt.node(n).syncsHandled.value()
           << " remote=" << rt.node(n).remoteOps.value() << "\n";
    return os.str();
}

TEST(EarthPartition, CrossPartitionPeerDeathDegradesIdentically)
{
    const std::string run = earthPeerDeathOutcome();
    EXPECT_NE(run.find("dead=3,"), std::string::npos) << run;
    EXPECT_NE(run.find("reports=0:3,"), std::string::npos) << run;
    EXPECT_NE(run.find("getsFailed=1"), std::string::npos) << run;
    EXPECT_NE(run.find("v20=111 v30=222 v40=333"), std::string::npos)
        << run;
}

TEST(EarthPartition, TwoPeerDeathRunsAreByteIdentical)
{
    EXPECT_EQ(earthPeerDeathOutcome(), earthPeerDeathOutcome());
}

} // namespace
