/**
 * @file
 * Tests for the one tracing path: component EventRings narrate to
 * stderr under the current sim::Context's trace flags.
 *
 *  - Tracing is pure observation: a Fig 9 latency and a faulty
 *    delivery soak give identical results, counters and stat dumps
 *    with every flag on and with none.
 *  - The traced run prints lines for all four flags, stamped with the
 *    queue's now() and so in nondecreasing tick order.
 *  - A Context with no flags prints nothing, and a System takes its
 *    flags from the Context it is built under.
 *  - Fault events reach the forensic dump like every other record.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "machines/machines.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "sim/context.hh"
#include "sim/fault.hh"

namespace {

using namespace pm;

msg::SystemParams
twoNodes(sim::FaultModel *fault = nullptr)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric.clusters = 1;
    sp.fabric.nodesPerCluster = 2;
    sp.fabric.fault = fault;
    return sp;
}

/** What one run shows: its results and stat dumps, and its stderr. */
struct Observed
{
    std::string results;
    std::string trace;
};

/** Fig 9's 8-byte one-way latency. */
Observed
latencyRun()
{
    testing::internal::CaptureStderr();
    msg::System sys(twoNodes());
    const double us = msg::measureOneWayLatencyUs(sys, 0, 1, 8);
    std::ostringstream os;
    char buf[64];
    std::snprintf(buf, sizeof buf, "latency %.17g us\n", us);
    os << buf;
    sys.ni(0).stats().dump(os);
    sys.ni(1).stats().dump(os);
    return Observed{os.str(), testing::internal::GetCapturedStderr()};
}

/** A short soak under bit errors and word drops. */
Observed
faultySoakRun()
{
    testing::internal::CaptureStderr();
    sim::FaultModel fault(4242);
    fault.defaults.ber = 1e-4;
    fault.defaults.drop = 1e-3;
    msg::System sys(twoNodes(&fault));
    std::ostringstream os;
    os.precision(17);
    const msg::SoakResult r =
        msg::runDeliverySoak(sys, 0, 1, 256, 16, 12345, 16, &os);
    os << "delivered=" << r.delivered << " intact=" << r.intact
       << " elapsedUs=" << r.elapsedUs << " retrans=" << r.retransmits
       << " crc=" << r.crcDrops << " dup=" << r.duplicateDiscards
       << " ooo=" << r.outOfOrderDiscards << " to=" << r.timeouts
       << " acks=" << r.acksSent << " nacks=" << r.nacksSent
       << " fail=" << r.deliveryFailures << "/" << r.receiverFailures
       << " dead=" << r.senderDead << r.receiverDead
       << " executed=" << sys.queue().executed() << "\n";
    fault.stats().dump(os);
    sys.ni(0).stats().dump(os);
    sys.ni(1).stats().dump(os);
    return Observed{os.str(), testing::internal::GetCapturedStderr()};
}

/** The trace lines of `text` carrying "[flag] ". */
std::vector<std::string>
linesOf(const std::string &text, const char *flag)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    const std::string tag = std::string("[") + flag + "] ";
    for (std::string line; std::getline(is, line);)
        if (line.rfind(tag, 0) == 0)
            out.push_back(line);
    return out;
}

/** The "[tick T]" of every line of `text`, in order. */
std::vector<Tick>
ticksOf(const std::string &text)
{
    std::vector<Tick> ticks;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
        const std::size_t at = line.find("[tick ");
        EXPECT_NE(at, std::string::npos) << line;
        if (at != std::string::npos)
            ticks.push_back(std::stoull(line.substr(at + 6)));
    }
    return ticks;
}

bool
nondecreasing(const std::vector<Tick> &ticks)
{
    for (std::size_t i = 1; i < ticks.size(); ++i)
        if (ticks[i] < ticks[i - 1])
            return false;
    return true;
}

TEST(Trace, TracingChangesNoResults)
{
    Observed quietLatency, quietSoak, loudLatency, loudSoak;
    {
        sim::Context quiet;
        sim::Context::Scope scope(quiet);
        quietLatency = latencyRun();
        quietSoak = faultySoakRun();
    }
    {
        sim::Context loud(sim::kTraceAll);
        sim::Context::Scope scope(loud);
        loudLatency = latencyRun();
        loudSoak = faultySoakRun();
    }
    EXPECT_EQ(quietLatency.results, loudLatency.results);
    EXPECT_EQ(quietSoak.results, loudSoak.results);
    EXPECT_NE(quietSoak.results.find("intact=1"), std::string::npos);

    for (const char *flag : {"xbar", "ni", "driver"})
        EXPECT_FALSE(linesOf(loudLatency.trace, flag).empty()) << flag;
    for (const char *flag : {"xbar", "ni", "driver", "fault"})
        EXPECT_FALSE(linesOf(loudSoak.trace, flag).empty()) << flag;
    EXPECT_TRUE(nondecreasing(ticksOf(loudLatency.trace)));
    EXPECT_TRUE(nondecreasing(ticksOf(loudSoak.trace)));
}

TEST(Trace, ContextWithoutFlagsPrintsNothing)
{
    sim::Context quiet;
    sim::Context::Scope scope(quiet);
    EXPECT_EQ(latencyRun().trace, "");
    EXPECT_EQ(faultySoakRun().trace, "");
}

TEST(Trace, FaultLinesCarryTheirTicks)
{
    sim::Context faults(sim::kTraceFault);
    sim::Context::Scope scope(faults);
    const Observed run = faultySoakRun();
    const std::vector<std::string> lines = linesOf(run.trace, "fault");
    ASSERT_FALSE(lines.empty());
    // Only the fault flag is on: every line is a fault line.
    EXPECT_EQ(ticksOf(run.trace).size(), lines.size());
    const std::vector<Tick> ticks = ticksOf(run.trace);
    EXPECT_TRUE(nondecreasing(ticks));
    EXPECT_GT(ticks.front(), 0u);
}

TEST(Trace, MachineDumpShowsRecentFaultEvents)
{
    // The fault sites record into rings like every other component;
    // a forensic dump shows them under the NI or crossbar that owns
    // the faulty link.
    sim::FaultModel fault(4242);
    fault.defaults.ber = 1e-4;
    fault.defaults.drop = 1e-3;
    msg::System sys(twoNodes(&fault));
    (void)msg::runDeliverySoak(sys, 0, 1, 256, 16);
    std::ostringstream os;
    sys.health().dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("  fault site "), std::string::npos);
    EXPECT_NE(text.find("-word a="), std::string::npos);
}

TEST(Trace, SystemCopiesItsCreatorsFlags)
{
    sim::Context creator(sim::kTraceNi | sim::kTraceXbar);
    sim::Context::Scope scope(creator);
    msg::System sys(twoNodes());
    EXPECT_EQ(sys.context().traceFlags(), creator.traceFlags());
    creator.setTraceFlags(0);
    msg::System quiet(twoNodes());
    EXPECT_EQ(quiet.context().traceFlags(), 0u);
}

} // namespace
