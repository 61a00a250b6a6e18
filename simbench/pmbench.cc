/**
 * @file
 * pmbench: the measuring half of the simulator benchmark (run.py is
 * the other half: it builds this program, checks its outputs against
 * the committed references and prints the metrics).
 *
 *   pmbench --workload W --seed N --seconds S --trace 0|1
 *           [--trace-out FILE]
 *   pmbench --anchors
 *
 * A run repeats *passes* of one workload until S host seconds are
 * spent. A pass constructs the machine, simulates, resets it for the
 * next run and destroys it; each phase is timed from outside, around
 * the public call that performs it. Every simulated output and public
 * counter a pass produces goes into a digest; every pass of a run must
 * produce the same digest, and run.py compares it with the reference.
 *
 * With --trace 1 the run alternates untraced and traced passes: the
 * traced ones record a span around each call (kept in memory, written
 * as Chrome trace-event JSON at the end), the untraced ones give the
 * tracing overhead, and both must produce the same digest. Layer
 * probes then replay the workload's own operation counts against
 * single layers (event queue, bus calendars, L1 cache) to give host
 * time per operation.
 *
 * Everything runs single-threaded on the classic kernel. Host time is
 * always in *_s / ns_per_* fields; simulated time in *_us / *_ticks.
 * The result is one JSON object on the last line of stdout.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cpu/sched.hh"
#include "machines/machines.hh"
#include "mem/bus.hh"
#include "msg/driver.hh"
#include "msg/probes.hh"
#include "msg/system.hh"
#include "node/node.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"
#include "workloads/matmult.hh"

namespace {

using namespace pm;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- Build guard and host record. ----------------------------------------

/** Why this build must not report timings, or nullptr if it may. */
const char *
unfitBuild()
{
#if !defined(__OPTIMIZE__)
    return "without optimisation";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "with a sanitizer";
#else
    if (std::strstr(PMB_CXX_FLAGS, "-fsanitize") != nullptr)
        return "with a sanitizer";
    return nullptr;
#endif
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** Peak resident set of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

// ---- Tracing. -------------------------------------------------------------

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    unsigned point = 0;
};

/**
 * In-memory span recorder. When off, begin/end cost one branch; the
 * phase timings a pass reports are taken separately, in every mode.
 */
class Tracer
{
  public:
    Tracer() : _t0(Clock::now()) {}

    void enable(bool on) { _on = on; }
    void setPoint(unsigned point) { _point = point; }
    const std::vector<Span> &spans() const { return _spans; }

    int
    begin(const char *name)
    {
        if (!_on)
            return -1;
        const int id = static_cast<int>(_spans.size());
        _spans.push_back({name, nowUs(), 0.0,
                          _stack.empty() ? -1 : _stack.back(), _point});
        _stack.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        _spans[id].endUs = nowUs();
        _stack.pop_back();
    }

  private:
    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         _t0)
            .count();
    }

    Clock::time_point _t0;
    bool _on = false;
    unsigned _point = 0;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** Run `f` inside span `name`; return its host seconds. */
template <typename F>
double
timed(Tracer &tr, const char *name, F &&f)
{
    const int id = tr.begin(name);
    const auto t0 = Clock::now();
    f();
    const double s = secondsBetween(t0, Clock::now());
    tr.end(id);
    return s;
}

// ---- Passes and their outputs. --------------------------------------------

/** Simulated outputs and public counters, by name (sorted). */
using Outputs = std::map<std::string, double>;

struct Pass
{
    double setupS = 0.0; //!< Machine construction.
    double simS = 0.0; //!< Simulation calls.
    double resetS = 0.0; //!< System::resetForRun / Node::reset.
    double dtorS = 0.0; //!< Destruction.
    double wallS = 0.0; //!< The whole pass.
    double simUs = 0.0; //!< Simulated time advanced.
    Outputs out;
    std::vector<std::string> failures;
};

/** One workload at one seed: its passes and its reference class. */
struct Workload
{
    std::string inputClass; //!< The reference this seed is checked against.
    std::function<Pass(Tracer &)> pass;
    /** Construct and destroy the machine; return construction seconds. */
    std::function<double()> setup;
};

std::string
digestOf(const Outputs &out)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    char buf[64];
    for (const auto &[name, value] : out) {
        std::string line = name;
        std::snprintf(buf, sizeof(buf), "=%.17g\n", value);
        line += buf;
        for (const char c : line) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
    }
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

/** Per-layer counters of one node, summed into `o`. */
void
addNodeCounters(node::Node &node, Tick elapsed, Outputs &o)
{
    mem::NodeBus &bus = node.bus();
    o["mem.pio_beats"] += bus.pioBeats.value();
    o["mem.bus_transactions"] += bus.transactions.value();
    o["mem.snoop_probes"] += bus.snoopProbes.value();
    o["mem.dram_reads"] += bus.dramReads.value();
    o["mem.addr_wait_sum_ticks"] += bus.addrWait.sum();
    o["mem.addr_wait_count"] += static_cast<double>(bus.addrWait.count());
    if (elapsed > 0)
        o["mem.addr_phase_util"] =
            std::max(o["mem.addr_phase_util"],
                     bus.addrBusyTicks.value() / double(elapsed));
    for (unsigned c = 0; c < node.numCpus(); ++c) {
        mem::Cache &l1 = node.l1(c);
        o["mem.l1_accesses"] += l1.hits.value() + l1.misses.value();
        o["mem.l1_misses"] += l1.misses.value();
        o["mem.l2_misses"] += node.l2(c).misses.value();
        cpu::Proc &p = node.proc(c);
        o["cpu.loads"] += p.loads.value();
        o["cpu.stores"] += p.stores.value();
        o["cpu.tlb_misses"] += p.tlbMisses.value();
        o["cpu.miss_stall_ticks"] += p.missStalls.value();
    }
}

/** Every public counter of a machine: sim, mem, cpu, ni, net. */
void
addSystemCounters(msg::System &sys, Outputs &o)
{
    sim::EventQueue &q = sys.queue();
    o["sim.events"] = static_cast<double>(q.executed());
    o["sim.cancelled"] = static_cast<double>(q.cancelledTotal());
    o["sim.slab_slots"] = static_cast<double>(q.slabSize());
    o["msg.sim_end_us"] = ticksToUs(sys.simNow());
    for (unsigned n = 0; n < sys.numNodes(); ++n)
        addNodeCounters(sys.node(n), sys.simNow(), o);
    const fabric::FabricParams &fp = sys.params().fabric;
    for (unsigned net = 0; net < fp.networks; ++net) {
        for (unsigned n = 0; n < sys.numNodes(); ++n) {
            ni::LinkInterface &ni = sys.ni(n, net);
            o["ni.words_sent"] += ni.wordsSent.value();
            o["ni.words_received"] += ni.wordsReceived.value();
            o["ni.crc_errors"] += ni.crcErrors.value();
        }
        const auto addXbar = [&o](net::Crossbar &x) {
            o["net.routes"] += x.routesEstablished.value();
            o["net.symbols"] += x.symbolsForwarded.value();
            o["net.route_conflicts"] += x.routeConflicts.value();
        };
        for (unsigned c = 0; c < fp.clusters; ++c)
            addXbar(sys.fabric().clusterXbar(c, net));
        if (fp.clusters > 1)
            for (unsigned u = 0; u < fp.uplinksPerCluster; ++u)
                addXbar(sys.fabric().levelTwoXbar(u, net));
    }
}

msg::SystemParams
commParams(unsigned clusters, unsigned nodesPerCluster)
{
    msg::SystemParams sp;
    sp.node = machines::powerManna();
    sp.fabric = machines::powerMannaFabric(clusters, nodesPerCluster);
    return sp;
}

/** Paper anchors, compared as the figures print them. */
void
checkAnchor(const char *what, const char *fmt, double value,
            const char *paper, std::vector<std::string> &failures)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, value);
    if (std::strcmp(buf, paper) != 0)
        failures.push_back(std::string(what) + " reads " + buf +
                           ", the paper anchor is " + paper);
}

// ---- Workload: bidir-stream (Figure 12 machine). ---------------------------

// Watchdog scan period and stall deadline: a 256 KB message keeps its
// sender unacknowledged for ~6 ms of simulated time, legitimately.
constexpr Tick kWatchdogInterval = kTicksPerMs;
constexpr Tick kWatchdogDeadline = 50 * kTicksPerMs;

// 64 KB x 12 is Figure 12's anchor point; 256 KB messages make the bus
// calendars long. Two of them keep a pass near one host second.
constexpr unsigned kBidirCount64 = 12;
constexpr unsigned kBidirCount256 = 2;

Pass
bidirPass(unsigned a, unsigned b, Tracer &tr)
{
    Pass p;
    std::unique_ptr<msg::System> sys;
    p.setupS = timed(tr, "msg.System()", [&] {
        sys = std::make_unique<msg::System>(commParams(1, 8));
    });
    // A wedged stream trips the watchdog (a trapped panic) instead of
    // polling forever.
    sys->health().enableWatchdog(kWatchdogInterval, kWatchdogDeadline);
    double mbps64 = 0.0;
    double mbps256 = 0.0;
    p.simS = timed(tr, "msg.measureBidirectionalMBps", [&] {
        mbps64 = msg::measureBidirectionalMBps(*sys, a, b, 65536,
                                               kBidirCount64);
        mbps256 = msg::measureBidirectionalMBps(*sys, a, b, 262144,
                                                kBidirCount256);
    });
    p.simUs = ticksToUs(sys->simNow());
    addSystemCounters(*sys, p.out);
    p.out["msg.sim_bidir_mbps"] = mbps64;
    p.out["msg.sim_bidir_mbps_256k"] = mbps256;
    checkAnchor("Fig 12 64 KB bidirectional MB/s", "%.1f", mbps64,
                "85.7", p.failures);
    p.resetS = timed(tr, "msg.resetForRun", [&] { sys->resetForRun(); });
    p.dtorS = timed(tr, "msg.~System", [&] { sys.reset(); });
    return p;
}

// ---- Workload: ring-4cluster. -----------------------------------------------

constexpr unsigned kRingClusters = 4;
constexpr unsigned kRingNodesPerCluster = 4;
constexpr std::uint64_t kRingMsgBytes = 256;
constexpr unsigned kRingMsgCount = 160; //!< Messages per stream.
constexpr unsigned kRingWindow = 8; //!< Sends in flight per stream.

/** Ring order of the clusters: order[i] sends to order[i + 1]. */
std::vector<unsigned>
ringOrder(std::uint64_t seed)
{
    std::vector<unsigned> order(kRingClusters);
    for (unsigned i = 0; i < kRingClusters; ++i)
        order[i] = i;
    sim::SplitMix64 rng(sim::sweep::pointSeed(seed, 0));
    for (unsigned i = kRingClusters - 1; i > 1; --i)
        std::swap(order[i], order[1 + rng.below(i)]);
    return order;
}

std::uint64_t
ringPayloadSeed(std::uint64_t seed, unsigned stream, unsigned msg)
{
    return sim::sweep::pointSeed(seed, std::size_t(stream) * 65536 + msg);
}

/** The ring's inputs: each stream's destination and payloads. */
struct RingInputs
{
    std::vector<unsigned> dst; //!< Stream n sends to node dst[n].
    std::vector<unsigned> src; //!< Node n receives from node src[n].
    std::vector<std::vector<std::vector<std::uint64_t>>> payload;
};

RingInputs
ringInputs(std::uint64_t seed)
{
    const unsigned kStreams = kRingClusters * kRingNodesPerCluster;
    const std::vector<unsigned> order = ringOrder(seed);
    std::vector<unsigned> nextCluster(kRingClusters);
    for (unsigned i = 0; i < kRingClusters; ++i)
        nextCluster[order[i]] = order[(i + 1) % kRingClusters];
    RingInputs in;
    in.dst.resize(kStreams);
    in.src.resize(kStreams);
    in.payload.resize(kStreams);
    for (unsigned n = 0; n < kStreams; ++n) {
        const unsigned local = n % kRingNodesPerCluster;
        in.dst[n] = nextCluster[n / kRingNodesPerCluster] *
                        kRingNodesPerCluster +
                    local;
        in.src[in.dst[n]] = n;
        for (unsigned m = 0; m < kRingMsgCount; ++m)
            in.payload[n].push_back(msg::makePayload(
                kRingMsgBytes, ringPayloadSeed(seed, n, m)));
    }
    return in;
}

Pass
ringPass(const RingInputs &in, Tracer &tr)
{
    const unsigned kStreams = kRingClusters * kRingNodesPerCluster;
    const auto &dst = in.dst;
    const auto &src = in.src;
    const auto &payload = in.payload;
    Pass p;
    std::unique_ptr<msg::System> sys;
    std::vector<std::unique_ptr<msg::PmComm>> comms;
    p.setupS = timed(tr, "msg.System()", [&] {
        sys = std::make_unique<msg::System>(
            commParams(kRingClusters, kRingNodesPerCluster));
        for (unsigned n = 0; n < kStreams; ++n)
            comms.push_back(std::make_unique<msg::PmComm>(*sys, n));
    });
    // Panics in the simulation resolve this machine's forensics. The
    // scope ends before the machine is destroyed.
    auto scope = std::make_unique<sim::Context::Scope>(sys->context());
    sys->health().enableWatchdog(kWatchdogInterval, kWatchdogDeadline);

    std::vector<unsigned> issued(kStreams, 0);
    std::vector<unsigned> received(kStreams, 0);
    unsigned corrupted = 0;
    std::vector<std::function<void()>> sendNext(kStreams);
    std::function<void(unsigned)> armRecv = [&](unsigned n) {
        comms[n]->postRecv([&, n](std::vector<std::uint64_t> got,
                                  bool crcOk) {
            const unsigned from = src[n];
            if (!crcOk || received[n] >= kRingMsgCount ||
                got != payload[from][received[n]])
                ++corrupted;
            ++received[n];
            armRecv(n);
        });
    };
    for (unsigned n = 0; n < kStreams; ++n) {
        sendNext[n] = [&, n] {
            if (issued[n] >= kRingMsgCount)
                return;
            const unsigned seq = issued[n]++;
            comms[n]->postSend(dst[n], payload[n][seq],
                               [&, n] { sendNext[n](); });
        };
        armRecv(n);
    }
    const auto allReceived = [&] {
        for (unsigned n = 0; n < kStreams; ++n)
            if (received[n] < kRingMsgCount)
                return false;
        return true;
    };
    const auto allQuiet = [&] {
        for (const auto &comm : comms)
            if (!comm->quiescent())
                return false;
        return sys->fabric().wireQuiet();
    };
    p.simS = timed(tr, "sim.pump", [&] {
        for (unsigned w = 0; w < kRingWindow; ++w)
            for (unsigned n = 0; n < kStreams; ++n)
                sendNext[n]();
        while (!allReceived() && sys->pump() != 0) {
        }
        while (!allQuiet() && sys->pump() != 0) {
        }
    });
    p.simUs = ticksToUs(sys->simNow());
    sys->health().disableWatchdog();

    for (unsigned n = 0; n < kStreams; ++n)
        if (received[n] != kRingMsgCount)
            p.failures.push_back("ring stream into node " +
                                 std::to_string(n) + " delivered " +
                                 std::to_string(received[n]) +
                                 " messages");
    if (corrupted != 0)
        p.failures.push_back(std::to_string(corrupted) +
                             " ring messages arrived corrupted");

    addSystemCounters(*sys, p.out);
    for (const auto &comm : comms) {
        p.out["msg.messages_sent"] += comm->messagesSent.value();
        p.out["msg.messages_received"] += comm->messagesReceived.value();
        p.out["msg.acks_sent"] += comm->acksSent.value();
        p.out["msg.nacks_sent"] += comm->nacksSent.value();
        p.out["msg.retransmits"] += comm->retransmits.value();
    }
    p.resetS = timed(tr, "msg.resetForRun", [&] { sys->resetForRun(); });
    scope.reset();
    p.dtorS = timed(tr, "msg.~System", [&] {
        comms.clear();
        sys.reset();
    });
    return p;
}

// ---- Workload: matmult-node. ------------------------------------------------

struct MatMultRun
{
    unsigned n;
    bool transposed;
    unsigned cpus; //!< 2 = Figure 8's independent copies.
};

// n=256 fits the 2 MB L2; n=512 does not. Rows are sampled as
// fig7/fig8 do, after a warm run that fills caches and TLBs.
constexpr MatMultRun kMatMultRuns[] = {
    {256, false, 1}, {256, true, 1}, {512, false, 1},
    {512, true, 1},  {512, false, 2},
};
constexpr unsigned kMatMultRows = 2;

/**
 * Figure 7/8 MatMult on `node` with every matrix moved by
 * `placement` bytes (workloads::runMatMult with a placement).
 * @return Simulated ticks of the warm and the measured run.
 */
Tick
runMatMult(node::Node &node, const MatMultRun &r, Addr placement,
           Outputs &o)
{
    node.reset();
    const auto makeJobs =
        [&](std::vector<std::unique_ptr<workloads::MatMult>> &works) {
            std::vector<cpu::Job> jobs;
            for (unsigned c = 0; c < r.cpus; ++c) {
                workloads::MatMultParams mp;
                mp.n = r.n;
                mp.transposed = r.transposed;
                mp.rowsToSimulate = kMatMultRows;
                // Independent copies sit at the offset runMatMult uses.
                const Addr off = placement + Addr(c) * 0x0843'7000;
                mp.baseA += off;
                mp.baseB += off;
                mp.baseBt += off;
                mp.baseC += off;
                works.push_back(std::make_unique<workloads::MatMult>(mp));
                jobs.push_back(cpu::Job{&node.proc(c), works.back().get()});
            }
            return jobs;
        };
    const auto maxTime = [&] {
        Tick t = 0;
        for (unsigned c = 0; c < r.cpus; ++c)
            t = std::max(t, node.proc(c).time());
        return t;
    };
    Tick warm = 0;
    {
        std::vector<std::unique_ptr<workloads::MatMult>> works;
        auto jobs = makeJobs(works);
        cpu::runJobs(jobs);
        warm = maxTime();
    }
    node.resetTimingOnly();
    std::vector<std::unique_ptr<workloads::MatMult>> works;
    auto jobs = makeJobs(works);
    cpu::runJobs(jobs);
    const Tick elapsed = maxTime();
    std::uint64_t flops = 0;
    for (const auto &w : works)
        flops += w->flopsDone();

    char key[64];
    std::snprintf(key, sizeof(key), "workloads.n%u_%s_%ucpu", r.n,
                  r.transposed ? "transposed" : "naive", r.cpus);
    o[std::string(key) + ".mflops"] =
        elapsed ? double(flops) / ticksToUs(elapsed) : 0.0;
    o[std::string(key) + ".flops"] = double(flops);
    o[std::string(key) + ".elapsed_ticks"] = double(elapsed);
    o["workloads.flops"] += double(flops);
    o["workloads.elapsed_us"] += ticksToUs(elapsed);
    return warm + elapsed;
}

Pass
matmultPass(Addr placement, Tracer &tr)
{
    Pass p;
    std::unique_ptr<node::Node> node;
    p.setupS = timed(tr, "node.Node()", [&] {
        node = std::make_unique<node::Node>(machines::powerManna());
    });
    Tick simTicks = 0;
    p.simS = timed(tr, "workloads.MatMult", [&] {
        for (const MatMultRun &r : kMatMultRuns)
            simTicks += runMatMult(*node, r, placement, p.out);
    });
    p.simUs = ticksToUs(simTicks);
    addNodeCounters(*node, simTicks, p.out);
    p.out["workloads.mflops"] =
        p.out["workloads.flops"] / p.out["workloads.elapsed_us"];
    for (const MatMultRun &r : kMatMultRuns) {
        char key[64];
        std::snprintf(key, sizeof(key), "workloads.n%u_%s_%ucpu.flops",
                      r.n, r.transposed ? "transposed" : "naive", r.cpus);
        const double expect =
            2.0 * r.n * r.n * kMatMultRows * double(r.cpus);
        if (p.out[key] != expect)
            p.failures.push_back(std::string(key) + " is not 2 n^2 rows");
    }
    p.resetS = timed(tr, "node.reset", [&] { node->reset(); });
    p.dtorS = timed(tr, "node.~Node", [&] { node.reset(); });
    return p;
}

// ---- Layer probes (traced run only). ----------------------------------------

/**
 * sim: an event queue holding `depth` pending events, each of which
 * reschedules itself, stepped `events` times.
 */
double
probeEventQueue(std::uint64_t events, unsigned depth, Tracer &tr)
{
    sim::EventQueue q;
    sim::SplitMix64 rng(7);
    std::uint64_t left = events;
    std::function<void()> fire;
    fire = [&] {
        if (left > 0) {
            --left;
            (void)q.scheduleIn(1 + rng.below(4000), [&] { fire(); });
        }
    };
    for (unsigned i = 0; i < depth; ++i)
        (void)q.scheduleIn(1 + rng.below(4000), [&] { fire(); });
    std::uint64_t ran = 0;
    const double s = timed(tr, "probe.sim.EventQueue::step",
                           [&] { ran = q.run(); });
    return ran ? 1e9 * s / double(ran) : 0.0;
}

/** mem: `beats` back-to-back PIO beats on a fresh node bus. */
double
probePioBeats(std::uint64_t beats, Tracer &tr)
{
    const node::NodeParams np = machines::powerManna();
    mem::NodeBus bus(np.bus, np.dram, np.numCpus);
    Tick t = 0;
    const double s = timed(tr, "probe.mem.NodeBus::pioBeat", [&] {
        for (std::uint64_t i = 0; i < beats; ++i)
            t = bus.pioBeat(0, t);
    });
    return beats ? 1e9 * s / double(beats) : 0.0;
}

/**
 * mem: `txns` line reads over a 16 MB sweep on a fresh node bus, with
 * the calendar floor raised as the processor scheduler raises it.
 */
double
probeBusTransactions(std::uint64_t txns, Tracer &tr)
{
    const node::NodeParams np = machines::powerManna();
    mem::NodeBus bus(np.bus, np.dram, np.numCpus);
    Tick t = 0;
    const double s = timed(tr, "probe.mem.NodeBus::request", [&] {
        for (std::uint64_t i = 0; i < txns; ++i) {
            mem::BusReq req;
            req.lineAddr = (i * 64) % (16u << 20);
            req.srcCpu = static_cast<int>(i & 1);
            t = bus.request(req, t).done;
            if (i % 1024 == 1023)
                bus.setTimeFloor(t);
        }
    });
    return txns ? 1e9 * s / double(txns) : 0.0;
}

/**
 * mem caches: `accesses` loads through CPU 0's L1 walking a column of
 * a 512-wide matrix (MatMult's naive inner loop), on a fresh node.
 */
double
probeL1(std::uint64_t accesses, Tracer &tr)
{
    node::Node node(machines::powerManna());
    Tick t = 0;
    const double s = timed(tr, "probe.mem.Cache::access", [&] {
        for (std::uint64_t i = 0; i < accesses; ++i) {
            mem::MemReq req;
            req.addr = 0x2001'5000 + (i % 512) * 4104 + (i / 512) % 512 * 8;
            t = node.l1(0).access(req, t).done;
        }
    });
    return accesses ? 1e9 * s / double(accesses) : 0.0;
}

// Probes replay the workload's own counts, capped so the traced run
// stays within its time. A layer the workload does not use reads 0.
constexpr double kProbeCap = 4e6;

void
runProbes(const Outputs &o, Tracer &tr, Outputs &probe)
{
    const auto replay = [&](const char *metric, const char *count,
                            const std::function<double(std::uint64_t)> &f) {
        const auto it = o.find(count);
        const auto n = static_cast<std::uint64_t>(
            std::min(it == o.end() ? 0.0 : it->second, kProbeCap));
        probe[metric] = n ? f(n) : 0.0;
    };
    replay("sim.probe_ns_per_event", "sim.events",
           [&](std::uint64_t n) { return probeEventQueue(n, 64, tr); });
    replay("mem.ns_per_pio_beat", "mem.pio_beats",
           [&](std::uint64_t n) { return probePioBeats(n, tr); });
    replay("mem.ns_per_bus_txn", "mem.bus_transactions",
           [&](std::uint64_t n) { return probeBusTransactions(n, tr); });
    replay("mem.ns_per_l1_access", "mem.l1_accesses",
           [&](std::uint64_t n) { return probeL1(n, tr); });
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    if (name == "bidir-stream") {
        // The seed picks the node pair; on one crossbar every pair
        // must measure the same.
        const unsigned a = static_cast<unsigned>(seed % 8);
        const unsigned b =
            static_cast<unsigned>((a + 1 + (seed / 8) % 7) % 8);
        w.inputClass = "any";
        w.pass = [a, b](Tracer &tr) { return bidirPass(a, b, tr); };
        w.setup = [] {
            const auto t0 = Clock::now();
            msg::System sys(commParams(1, 8));
            return secondsBetween(t0, Clock::now());
        };
    } else if (name == "ring-4cluster") {
        // The seed picks the clusters' ring order and the payloads.
        std::string cls = "order";
        for (const unsigned c : ringOrder(seed))
            cls += "-" + std::to_string(c);
        w.inputClass = cls;
        auto in = std::make_shared<const RingInputs>(ringInputs(seed));
        w.pass = [in](Tracer &tr) { return ringPass(*in, tr); };
        w.setup = [] {
            const auto t0 = Clock::now();
            msg::System sys(commParams(kRingClusters, kRingNodesPerCluster));
            std::vector<std::unique_ptr<msg::PmComm>> comms;
            for (unsigned n = 0; n < sys.numNodes(); ++n)
                comms.push_back(std::make_unique<msg::PmComm>(sys, n));
            const double s = secondsBetween(t0, Clock::now());
            comms.clear();
            return s;
        };
    } else if (name == "matmult-node") {
        // The seed moves all matrices by one of four multiples of
        // 64 MB. Cache sets and DRAM banks stay the same; the hashed
        // page table's PTE addresses do not, so each placement has a
        // reference of its own.
        const unsigned k = static_cast<unsigned>(seed % 4);
        const Addr placement = Addr(k) << 26;
        w.inputClass = "placement-" + std::to_string(k);
        w.pass = [placement](Tracer &tr) {
            return matmultPass(placement, tr);
        };
        w.setup = [] {
            const auto t0 = Clock::now();
            node::Node node(machines::powerManna());
            return secondsBetween(t0, Clock::now());
        };
    }
    return w;
}

// ---- Result output. -------------------------------------------------------

/** Print `,"key":{...}` into the result object. */
void
printNumberMap(const char *key, const Outputs &m)
{
    std::printf(",\"%s\":{", key);
    bool f = true;
    for (const auto &[k, v] : m) {
        std::printf("%s\"%s\":%.17g", f ? "" : ",", k.c_str(), v);
        f = false;
    }
    std::printf("}");
}

void
writeChromeTrace(const std::string &path, const std::string &workload,
                 const std::vector<Span> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "pmbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::size_t dot = s.name.find('.');
        const std::string layer = s.name.substr(0, dot);
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,"
                     "\"workload\":\"%s\",\"point\":%u}}\n",
                     i ? "," : "", jsonEscape(s.name).c_str(),
                     layer.c_str(), s.startUs, s.endUs - s.startUs, i,
                     s.parent, workload.c_str(), s.point);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

/** Self time of every span name: duration minus its children's. */
std::map<std::string, std::vector<double>>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = (spans[i].endUs - spans[i].startUs) * 1e-6;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[s.parent] -= (s.endUs - s.startUs) * 1e-6;
    std::map<std::string, std::vector<double>> byName;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byName[spans[i].name].push_back(self[i]);
    return byName;
}

constexpr double kSetupSecondsPerPass = 0.02;

int
usage()
{
    std::fprintf(stderr,
                 "usage: pmbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       pmbench --anchors\n");
    return 2;
}

/** Figures 9 and 11 on their own 2-node machine (ext_pkernel's). */
int
anchors()
{
    std::pair<double, double> vals;
    std::vector<std::string> errs;
    sim::sweep::Failure fail;
    if (!sim::sweep::detail::runTrapped(
            {0, 0},
            [](void *ctx, const sim::sweep::Point &) {
                auto *out = static_cast<std::pair<double, double> *>(ctx);
                msg::System sys(commParams(1, 2));
                out->first = msg::measureOneWayLatencyUs(sys, 0, 1, 8);
                out->second =
                    msg::measureUnidirectionalMBps(sys, 0, 1, 16384);
            },
            &vals, fail))
        errs.push_back("anchor run panicked: " + fail.message);
    checkAnchor("Fig 9 8-byte one-way latency us", "%.3f", vals.first,
                "2.746", errs);
    checkAnchor("Fig 11 16 KB unidirectional MB/s", "%.1f", vals.second,
                "59.9", errs);
    std::printf("{\"fig9_latency_us\":%.17g,\"fig11_unidir_mbps\":%.17g,"
                "\"failures\":[",
                vals.first, vals.second);
    for (std::size_t i = 0; i < errs.size(); ++i)
        std::printf("%s\"%s\"", i ? "," : "", jsonEscape(errs[i]).c_str());
    std::printf("]}\n");
    return errs.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    pm::setInformEnabled(false);
    if (const char *why = unfitBuild()) {
        std::fprintf(stderr,
                     "pmbench: refusing to report timings from a build "
                     "%s (flags: %s, build type %s)\n",
                     why, PMB_CXX_FLAGS, PMB_BUILD_TYPE);
        return 3;
    }

    std::string workload;
    std::string traceOut;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    unsigned trace = 0;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--anchors")
            return anchors();
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (arg == "--workload")
            workload = v;
        else if (arg == "--seed")
            haveSeed = sim::parse::u64(v, seed);
        else if (arg == "--seconds") {
            if (!sim::parse::f64(v, seconds) || seconds <= 0.0)
                return usage();
        } else if (arg == "--trace") {
            if (!sim::parse::u32(v, trace) || trace > 1)
                return usage();
        } else if (arg == "--trace-out")
            traceOut = v;
        else
            return usage();
    }
    Workload w = makeWorkload(workload, seed);
    if (!w.pass || !haveSeed || seconds <= 0.0)
        return usage();

    // Passes run trapped: a panic or a watchdog trip fails that pass
    // and the run continues with the next one.
    Tracer tracer;
    struct Ctx
    {
        Workload *w;
        Tracer *tr;
        Pass out;
    } ctx{&w, &tracer, {}};
    const auto runPass = [&](unsigned index, bool traced) {
        tracer.enable(traced);
        tracer.setPoint(index);
        sim::sweep::Failure fail;
        const auto t0 = Clock::now();
        const int id = tracer.begin("bench.pass");
        const bool ok = sim::sweep::detail::runTrapped(
            {index, seed},
            [](void *c, const sim::sweep::Point &) {
                auto *x = static_cast<Ctx *>(c);
                x->out = x->w->pass(*x->tr);
            },
            &ctx, fail);
        tracer.end(id);
        Pass p = ok ? std::move(ctx.out) : Pass{};
        p.wallS = secondsBetween(t0, Clock::now());
        if (!ok)
            p.failures.push_back("panic: " + fail.message);
        tracer.enable(false);
        return p;
    };

    // Set-up alone, repeated for a few ms before every pass: setup_s
    // is the median of these and of every pass's construction, sampled
    // across the whole run.
    std::vector<double> setupOnly;
    std::vector<Pass> passes;
    std::vector<bool> tracedPass;
    const auto start = Clock::now();
    unsigned index = 0;
    while (passes.size() < 3 ||
           secondsBetween(start, Clock::now()) < seconds) {
        const auto setupStart = Clock::now();
        do {
            setupOnly.push_back(w.setup());
        } while (secondsBetween(setupStart, Clock::now()) <
                 kSetupSecondsPerPass);
        const bool traced = trace == 1 && (index % 2 == 1);
        passes.push_back(runPass(index, traced));
        tracedPass.push_back(traced);
        ++index;
    }

    Outputs probe;
    if (trace == 1 && passes.front().failures.empty()) {
        tracer.enable(true);
        tracer.setPoint(index);
        const int id = tracer.begin("bench.probes");
        runProbes(passes.front().out, tracer, probe);
        tracer.end(id);
        tracer.enable(false);
        if (!traceOut.empty())
            writeChromeTrace(traceOut, workload, tracer.spans());
    }

    // ---- The result line. ----
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"input_class\":\"%s\","
                "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"cxx_flags\":\"%s\",\"peak_rss_mb\":%.17g,\"passes\":[",
                workload.c_str(), (unsigned long long)seed,
                w.inputClass.c_str(), std::thread::hardware_concurrency(),
                PMB_COMPILER, PMB_BUILD_TYPE, jsonEscape(PMB_CXX_FLAGS).c_str(),
                peakRssMb());
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        std::printf("%s{\"traced\":%s,\"wall_s\":%.17g,\"setup_s\":%.17g,"
                    "\"sim_s\":%.17g,\"reset_s\":%.17g,\"dtor_s\":%.17g,"
                    "\"sim_us\":%.17g,\"digest\":\"%s\",\"failures\":[",
                    i ? "," : "", tracedPass[i] ? "true" : "false",
                    p.wallS, p.setupS, p.simS, p.resetS, p.dtorS, p.simUs,
                    digestOf(p.out).c_str());
        for (std::size_t f = 0; f < p.failures.size(); ++f)
            std::printf("%s\"%s\"", f ? "," : "",
                        jsonEscape(p.failures[f]).c_str());
        std::printf("]}");
    }
    std::printf("],\"setup_only_s\":[");
    for (std::size_t i = 0; i < setupOnly.size(); ++i)
        std::printf("%s%.17g", i ? "," : "", setupOnly[i]);
    std::printf("]");
    printNumberMap("outputs", passes.front().out);
    printNumberMap("probes", probe);
    Outputs selfMedian;
    for (auto &[name, v] : selfTimes(tracer.spans())) {
        std::sort(v.begin(), v.end());
        selfMedian[name] = v[v.size() / 2];
    }
    printNumberMap("self_s", selfMedian);
    std::printf("}\n");
    return 0;
}
