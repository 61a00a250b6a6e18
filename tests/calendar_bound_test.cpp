/**
 * @file
 * State bounds for the node-bus calendars: the live reservation
 * intervals must not grow with the length of a run. A PIO message
 * stream (pruned by the driver engine's queue floor) and a two-CPU
 * MatMult (pruned by the processor scheduler's floor) each run at 1x
 * and 10x their work, and the peak live-interval count over every
 * bus must be the same small number in both runs.
 *
 * The floor pushed on the communication path must also bound every
 * other processor of the node: a CPU whose clock lags the event queue
 * (a compute phase after another CPU's message phase, or a driver's
 * processor gone quiet while the node's second driver runs on) still
 * requests at or above the floor, so pruning never changes its timing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/sched.hh"
#include "machines/machines.hh"
#include "msg/driver.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "node/node.hh"
#include "workloads/matmult.hh"
#include "workloads/stream.hh"

namespace {

using namespace pm;

/**
 * Stream `messages` 1 KB messages from node 0 to node 1 and return the
 * peak of the two buses' live calendar intervals, sampled after every
 * event.
 */
std::size_t
peakIntervalsOverStream(unsigned messages)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 2;
    msg::System sys(sp);
    sys.resetForRun();
    msg::PmComm a(sys, 0), b(sys, 1);
    unsigned received = 0;
    for (unsigned i = 0; i < messages; ++i) {
        const auto payload = msg::makePayload(1024, i);
        a.postSend(1, payload);
        b.postRecv([&received, payload](std::vector<std::uint64_t> got,
                                        bool crcOk) {
            EXPECT_TRUE(crcOk);
            EXPECT_EQ(got, payload);
            ++received;
        });
    }
    std::size_t peak = 0;
    while (received < messages && sys.queue().step()) {
        peak = std::max(peak, sys.node(0).bus().calendarIntervals() +
                                  sys.node(1).bus().calendarIntervals());
    }
    EXPECT_EQ(received, messages);
    return peak;
}

TEST(CalendarBound, PmCommStreamStaysFlatOverTenfoldMessages)
{
    const std::size_t peak1 = peakIntervalsOverStream(8);
    const std::size_t peak10 = peakIntervalsOverStream(80);
    EXPECT_GT(peak1, 0u);
    EXPECT_EQ(peak10, peak1);
    // One engine event moves at most one 32-word link-interface FIFO
    // of PIO beats, each holding the address phase, the CPU port and
    // the I/O port, and the floor rises at every event. Two buses.
    EXPECT_LE(peak10, 2u * 32 * 3);
}

/** Forwards to a workload and samples the bus after each chunk. */
class CensusWorkload : public cpu::Workload
{
  public:
    CensusWorkload(cpu::Workload &inner, const mem::NodeBus &bus,
                   std::size_t &peak)
        : _inner(inner), _bus(bus), _peak(peak) {}

    bool
    step(cpu::Proc &proc) override
    {
        const bool more = _inner.step(proc);
        _peak = std::max(_peak, _bus.calendarIntervals());
        return more;
    }

  private:
    cpu::Workload &_inner;
    const mem::NodeBus &_bus;
    std::size_t &_peak;
};

/** Peak live intervals of a cooperative 2-CPU MatMult of `rows` rows. */
std::size_t
peakIntervalsOverMatMult(unsigned rows)
{
    node::Node node(machines::powerManna());
    node.reset();
    std::vector<std::unique_ptr<workloads::MatMult>> works;
    std::vector<std::unique_ptr<CensusWorkload>> census;
    std::vector<cpu::Job> jobs;
    std::size_t peak = 0;
    for (unsigned c = 0; c < 2; ++c) {
        workloads::MatMultParams p;
        p.n = 256;
        p.rowsToSimulate = rows;
        p.cpuIndex = c;
        p.cpuCount = 2;
        works.push_back(std::make_unique<workloads::MatMult>(p));
        census.push_back(
            std::make_unique<CensusWorkload>(*works.back(), node.bus(), peak));
        jobs.push_back(cpu::Job{&node.proc(c), census.back().get()});
    }
    cpu::runJobs(jobs);
    return peak;
}

TEST(CalendarBound, MatMultStaysFlatOverTenfoldRows)
{
    const std::size_t peak1 = peakIntervalsOverMatMult(4);
    const std::size_t peak10 = peakIntervalsOverMatMult(40);
    EXPECT_GT(peak1, 0u);
    EXPECT_EQ(peak10, peak1);
    // A scheduler chunk is one inner product: at most n = 256 line
    // misses, each holding a few calendars (address phase, DRAM bank,
    // memory and CPU ports). The floor trails the leading CPU by a
    // chunk or two, so the bound is set by n, not by the row count.
    EXPECT_LE(peak10, 16u * 256);
}

/**
 * Sweep `bytes` from `base` on every CPU of `node` (each CPU its own
 * region) under the processor scheduler, then line the CPUs up at the
 * latest one's time, as a bulk-synchronous step does.
 */
Tick
sweepAllCpus(node::Node &node, Addr base, std::uint64_t bytes)
{
    std::vector<std::unique_ptr<workloads::MemStream>> works;
    std::vector<cpu::Job> jobs;
    for (unsigned c = 0; c < node.numCpus(); ++c) {
        workloads::MemStreamParams p;
        p.base = base + Addr(c) * 0x0100'0000;
        p.bytes = bytes;
        p.passes = 1;
        p.storeEvery = 4;
        works.push_back(std::make_unique<workloads::MemStream>(p));
        jobs.push_back(cpu::Job{&node.proc(c), works.back().get()});
    }
    cpu::runJobs(jobs);
    Tick t = 0;
    for (unsigned c = 0; c < node.numCpus(); ++c)
        t = std::max(t, node.proc(c).time());
    for (unsigned c = 0; c < node.numCpus(); ++c)
        node.proc(c).advanceTo(t);
    return t;
}

TEST(CalendarFloor, CommPhaseDoesNotOutrunTheIdleCpuOfAComputeStep)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 2;
    msg::System sys(sp);
    sys.resetForRun();
    msg::PmComm a(sys, 0), b(sys, 1);
    node::Node &n0 = sys.node(0);

    const Tick t = sweepAllCpus(n0, 0x1000'0000, 64 * 1024);

    // CPU 0's driver runs the event queue well past CPU 1's clock.
    bool delivered = false;
    a.postSend(1, msg::makePayload(4096, 1));
    b.postRecv([&](std::vector<std::uint64_t>, bool ok) {
        EXPECT_TRUE(ok);
        delivered = true;
    });
    while (!delivered && sys.queue().step()) {
    }
    ASSERT_TRUE(delivered);
    ASSERT_GT(sys.queue().now(), t);
    EXPECT_EQ(n0.proc(1).time(), t);
    EXPECT_LE(n0.bus().timeFloor(), t);

    // The next compute step starts CPU 1 at t on lines no cache holds:
    // its misses reach the bus at t, behind the queue's now().
    const double missesBefore = n0.l2(1).misses.value();
    sweepAllCpus(n0, 0x3000'0000, 64 * 1024);
    EXPECT_GT(n0.l2(1).misses.value(), missesBefore);
}

TEST(CalendarFloor, DriverCpuRunsBehindTheOtherDriverOfItsNode)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 2;
    sp.fabric.networks = 2;
    msg::System sys(sp);
    sys.resetForRun();
    // One driver per CPU and network on both nodes.
    msg::PmComm a0(sys, 0, 0, 0), a1(sys, 0, 1, 1);
    msg::PmComm b0(sys, 1, 0, 0), b1(sys, 1, 1, 1);
    node::Node &n0 = sys.node(0);

    // Node 0's CPU 0 takes one short message and goes quiet; CPU 1's
    // driver streams on for much longer.
    bool early = false;
    b0.postSend(0, msg::makePayload(256, 7));
    a0.postRecv([&](std::vector<std::uint64_t>, bool ok) {
        EXPECT_TRUE(ok);
        early = true;
    });
    constexpr unsigned kStream = 32;
    unsigned streamed = 0;
    for (unsigned i = 0; i < kStream; ++i) {
        b1.postSend(0, msg::makePayload(1024, i));
        a1.postRecv([&](std::vector<std::uint64_t>, bool ok) {
            EXPECT_TRUE(ok);
            ++streamed;
        });
    }
    while (streamed < kStream && sys.queue().step()) {
    }
    ASSERT_TRUE(early);
    ASSERT_EQ(streamed, kStream);
    const Tick t0 = n0.proc(0).time();
    ASSERT_LT(t0, sys.queue().now());
    EXPECT_LE(n0.bus().timeFloor(), t0);

    // CPU 0 computes on from its own clock, on cold lines.
    workloads::MemStreamParams p;
    p.base = 0x3000'0000;
    p.bytes = 64 * 1024;
    p.passes = 1;
    workloads::MemStream work(p);
    std::vector<cpu::Job> jobs{cpu::Job{&n0.proc(0), &work}};
    const double missesBefore = n0.l2(0).misses.value();
    cpu::runJobs(jobs);
    EXPECT_GT(n0.l2(0).misses.value(), missesBefore);
}

} // namespace
