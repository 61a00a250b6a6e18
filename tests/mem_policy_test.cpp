/**
 * @file
 * Unit tests for the memory-hierarchy policies (DESIGN.md §14):
 * replacement victim selection through a real Cache (LRU recency,
 * SRRIP known answers and scan resistance), MSI protocol semantics
 * against MESI, and the sparse directory's targeted invalidations —
 * probing exactly the true sharers where the broadcast snoop probes
 * everyone.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/req.hh"

namespace {

using namespace pm;
using mem::BusReq;
using mem::BusResult;
using mem::BusTarget;
using mem::Cache;
using mem::CacheParams;
using mem::CoherenceKind;
using mem::MemReq;
using mem::MesiState;
using mem::ReplacementKind;
using mem::TransportKind;
using mem::TxType;

// ---- Replacement policies through a real Cache ----------------------------

/** A bus stub granting every fill; enough for replacement tests. */
class StubBus : public BusTarget
{
  public:
    BusResult
    request(const BusReq &, Tick now) override
    {
        return BusResult{now + 100 * kTicksPerNs, false, false};
    }
};

/** Eight sets of `assoc` ways at 64 B lines. */
CacheParams
eightSetCache(ReplacementKind repl, std::uint32_t assoc = 2)
{
    CacheParams p;
    p.name = "repl_l2";
    p.sizeBytes = 8 * assoc * 64;
    p.assoc = assoc;
    p.lineSize = 64;
    p.hitCycles = 1;
    p.clockMhz = 100.0;
    p.replacement = repl;
    return p;
}

/** Addresses this far apart map to the same set of eightSetCache(). */
constexpr Addr kSetStride = 8 * 64;

/** Load line `n` of set 0; a cold set fills ways in load order. */
void
load(Cache &cache, unsigned n, Tick &t)
{
    cache.access(MemReq{n * kSetStride, false, 0}, t += 1000);
}

/** Which of lines 0..n-1 of set 0 the cache still holds. */
std::vector<bool>
resident(const Cache &cache, unsigned n)
{
    std::vector<bool> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(cache.lineState(i * kSetStride) != MesiState::Invalid);
    return out;
}

TEST(LruPolicy, TouchOrderPicksLeastRecentWay)
{
    StubBus bus;
    Cache cache(eightSetCache(ReplacementKind::Lru, 4), &bus);
    Tick t = 0;
    for (unsigned n = 0; n < 4; ++n)
        load(cache, n, t); // lines 0..3 fill ways 0..3
    load(cache, 0, t); // hit: line 0 becomes the most recent
    load(cache, 4, t); // evicts line 1, the least recent
    EXPECT_EQ(resident(cache, 5),
              (std::vector<bool>{true, false, true, true, true}));
    load(cache, 2, t); // hit: line 3 becomes the least recent
    load(cache, 5, t);
    EXPECT_EQ(resident(cache, 6),
              (std::vector<bool>{true, false, true, false, true, true}));
}

TEST(SrripPolicy, AgesColdSetAndVictimizesLowestWay)
{
    StubBus bus;
    Cache cache(eightSetCache(ReplacementKind::Srrip, 4), &bus);
    Tick t = 0;
    for (unsigned n = 0; n < 4; ++n)
        load(cache, n, t); // all RRPV = long (2)
    // No way is distant (3): the set ages once, then the tie among
    // all-distant ways breaks to way 0.
    load(cache, 4, t); // RRPV: [2,3,3,3]
    EXPECT_EQ(resident(cache, 5),
              (std::vector<bool>{false, true, true, true, true}));
    // Aging was persistent: the next victim needs no further aging and
    // is the lowest distant way (line 1), not the fresh line 4.
    load(cache, 5, t);
    EXPECT_EQ(resident(cache, 6),
              (std::vector<bool>{false, false, true, true, true, true}));
}

TEST(SrripPolicy, TouchPromotesToNearAndSurvivesAging)
{
    StubBus bus;
    Cache cache(eightSetCache(ReplacementKind::Srrip, 4), &bus);
    Tick t = 0;
    for (unsigned n = 0; n < 4; ++n)
        load(cache, n, t); // RRPV: [2,2,2,2]
    load(cache, 1, t); // hit: RRPV [2,0,2,2]
    // One aging pass: [3,1,3,3] -> victim way 0; the touched line is
    // two more aging rounds from eviction.
    load(cache, 4, t); // RRPV: [2,1,3,3]
    EXPECT_EQ(resident(cache, 5),
              (std::vector<bool>{false, true, true, true, true}));
    load(cache, 5, t); // first already-distant way: line 2
    EXPECT_EQ(resident(cache, 6),
              (std::vector<bool>{false, true, false, true, true, true}));
}

/**
 * The classic scan: a re-referenced line A against a stream B, C, D
 * mapping to the same set. LRU keeps recency and so evicts A the
 * moment the stream is longer than the set; SRRIP inserts streaming
 * lines at long re-reference prediction and keeps the proven-hot A.
 */
TEST(Replacement, SrripResistsScanWhereLruEvictsHotLine)
{
    const Addr stride = 8 * 64; // same set index
    const Addr a = 0, b = stride, c = 2 * stride, d = 3 * stride;
    Tick t = 0;
    for (const ReplacementKind repl :
         {ReplacementKind::Lru, ReplacementKind::Srrip}) {
        StubBus bus;
        Cache cache(eightSetCache(repl), &bus);
        for (const Addr addr : {a, b, a /* A becomes hot */, c, d})
            cache.access(MemReq{addr, false, 0}, t += 1000);
        if (repl == ReplacementKind::Lru) {
            // Recency: the stream pushed A out.
            EXPECT_EQ(cache.lineState(a), MesiState::Invalid);
        } else {
            // Re-reference interval: A survives the scan.
            EXPECT_NE(cache.lineState(a), MesiState::Invalid);
            EXPECT_EQ(cache.lineState(c), MesiState::Invalid);
        }
    }
}

// ---- Protocol and transport tests over a real NodeBus ---------------------

/** N private L2s on one NodeBus under the given policies. */
struct PolicyNode
{
    std::unique_ptr<mem::NodeBus> bus;
    std::vector<std::unique_ptr<Cache>> l2;

    PolicyNode(unsigned numCpus, CoherenceKind coh, TransportKind tr)
    {
        mem::BusParams bp;
        bp.lineBytes = 64;
        bp.transport = tr;
        mem::DramParams dp;
        bus = std::make_unique<mem::NodeBus>(bp, dp, numCpus);
        for (unsigned c = 0; c < numCpus; ++c) {
            CacheParams p;
            p.name = "l2_" + std::to_string(c);
            p.sizeBytes = 8 * 1024;
            p.assoc = 2;
            p.lineSize = 64;
            p.hitCycles = 4;
            p.coherence = coh;
            l2.push_back(std::make_unique<Cache>(p, bus.get()));
            bus->attachCache(c, l2.back().get());
        }
    }
};

TEST(MsiProtocol, UnsharedLoadGrantsSharedNotExclusive)
{
    PolicyNode msi(2, CoherenceKind::Msi, TransportKind::Snoop);
    auto r = msi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    EXPECT_EQ(r.granted, MesiState::Shared);
    EXPECT_EQ(msi.l2[0]->lineState(0x4000), MesiState::Shared);

    // The identical access under MESI mints Exclusive.
    PolicyNode mesi(2, CoherenceKind::Mesi, TransportKind::Snoop);
    auto e = mesi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    EXPECT_EQ(e.granted, MesiState::Exclusive);
}

TEST(MsiProtocol, StoreAfterPrivateLoadPaysBusUpgrade)
{
    // This is the ablation's signal: MSI cannot upgrade silently, so
    // every read-modify-write of private data crosses the bus.
    PolicyNode msi(2, CoherenceKind::Msi, TransportKind::Snoop);
    msi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    const double txBefore = msi.bus->transactions.value();
    msi.l2[0]->access(MemReq{0x4000, true, 0}, 1000000);
    EXPECT_EQ(msi.l2[0]->upgrades.value(), 1.0);
    EXPECT_EQ(msi.bus->transactions.value(), txBefore + 1.0);
    EXPECT_EQ(msi.l2[0]->lineState(0x4000), MesiState::Modified);

    PolicyNode mesi(2, CoherenceKind::Mesi, TransportKind::Snoop);
    mesi.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    const double txE = mesi.bus->transactions.value();
    mesi.l2[0]->access(MemReq{0x4000, true, 0}, 1000000);
    EXPECT_EQ(mesi.l2[0]->upgrades.value(), 0.0); // silent E -> M
    EXPECT_EQ(mesi.bus->transactions.value(), txE);
}

/**
 * Four processors, two of which share a line. A third's store must
 * probe exactly the two true sharers under the directory (the paper's
 * snoop-occupancy limiter is the broadcast), while broadcast snooping
 * probes all three peers. The uninvolved processor's hierarchy is
 * never disturbed either way.
 */
TEST(DirectoryTransport, StoreInvalidatesOnlyTrueSharers)
{
    const Addr line = 0x8000;
    for (const TransportKind tr :
         {TransportKind::Directory, TransportKind::Snoop}) {
        PolicyNode node(4, CoherenceKind::Mesi, tr);
        Tick t = 0;
        node.l2[1]->access(MemReq{line, false, 1}, t += 1000000);
        node.l2[2]->access(MemReq{line, false, 2}, t += 1000000);
        const double probesBefore = node.bus->snoopProbes.value();
        node.l2[0]->access(MemReq{line, true, 0}, t += 1000000);
        const double delta = node.bus->snoopProbes.value() - probesBefore;
        if (tr == TransportKind::Directory) {
            EXPECT_EQ(delta, 2.0) << "directory probed a non-sharer";
            EXPECT_EQ(node.bus->targetedInvals.value(), 2.0);
            // The directory now tracks the writer alone.
            EXPECT_EQ(node.bus->directorySharers(line), 0x1ull);
        } else {
            EXPECT_EQ(delta, 3.0) << "broadcast probes every peer";
        }
        // Both transports killed both real copies, and only those.
        EXPECT_EQ(node.l2[1]->snoopInvalidations.value(), 1.0);
        EXPECT_EQ(node.l2[2]->snoopInvalidations.value(), 1.0);
        EXPECT_EQ(node.l2[3]->snoopInvalidations.value(), 0.0);
        EXPECT_EQ(node.l2[0]->lineState(line), MesiState::Modified);
        EXPECT_EQ(node.l2[1]->lineState(line), MesiState::Invalid);
        EXPECT_EQ(node.l2[2]->lineState(line), MesiState::Invalid);
    }
}

TEST(DirectoryTransport, WritebackRetiresTheSharerBit)
{
    PolicyNode node(2, CoherenceKind::Mesi, TransportKind::Directory);
    const Addr a = 0x0;
    node.l2[0]->access(MemReq{a, true, 0}, 0);
    EXPECT_EQ(node.bus->directorySharers(a), 0x1ull);
    // Two more stores conflicting with `a` (64 sets of 2 ways) force a
    // dirty eviction; the writeback must clear cpu0's sharer bit so the
    // directory never probes a cache that gave the line up.
    const Addr stride = 64 * 64;
    node.l2[0]->access(MemReq{a + stride, true, 0}, 1000000);
    node.l2[0]->access(MemReq{a + 2 * stride, true, 0}, 2000000);
    EXPECT_EQ(node.l2[0]->lineState(a), MesiState::Invalid);
    EXPECT_EQ(node.bus->directorySharers(a), 0x0ull);
}

TEST(DirectoryTransport, ResetCoherenceForgetsAllSharers)
{
    PolicyNode node(2, CoherenceKind::Mesi, TransportKind::Directory);
    node.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    node.l2[1]->access(MemReq{0x8000, true, 1}, 1000000);
    ASSERT_NE(node.bus->directorySharers(0x4000), 0x0ull);
    // Node::reset() pairs these two calls: dropped lines must leave no
    // stale sharer bits behind.
    for (auto &c : node.l2)
        c->invalidateAll();
    node.bus->resetCoherence();
    EXPECT_EQ(node.bus->directorySharers(0x4000), 0x0ull);
    EXPECT_EQ(node.bus->directorySharers(0x8000), 0x0ull);
}

/** Snooping tracks nothing; the sharer query is defined to be empty. */
TEST(SnoopTransport, DirectorySharersAlwaysEmpty)
{
    PolicyNode node(2, CoherenceKind::Mesi, TransportKind::Snoop);
    node.l2[0]->access(MemReq{0x4000, false, 0}, 0);
    EXPECT_EQ(node.bus->directorySharers(0x4000), 0x0ull);
}

} // namespace
