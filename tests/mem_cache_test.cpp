/**
 * @file
 * Unit tests for the cache model: hit/miss behaviour, LRU replacement,
 * MESI transitions against a stub bus, inclusion with a two-level
 * hierarchy, and full-node coherence through a real NodeBus.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/req.hh"

namespace {

using namespace pm;
using mem::AccessResult;
using mem::BusReq;
using mem::BusResult;
using mem::BusTarget;
using mem::Cache;
using mem::CacheParams;
using mem::MemReq;
using mem::MesiState;
using mem::TxType;

/** A bus stub with scripted shared/dirty responses and a request log. */
class StubBus : public BusTarget
{
  public:
    bool shared = false;
    Tick latency = 100 * kTicksPerNs;
    std::vector<BusReq> log;

    BusResult
    request(const BusReq &req, Tick now) override
    {
        log.push_back(req);
        return BusResult{now + latency, shared, false};
    }

    int
    count(TxType t) const
    {
        int n = 0;
        for (const auto &r : log)
            n += r.type == t;
        return n;
    }
};

CacheParams
smallCache(std::uint32_t sizeKb = 1, std::uint32_t assoc = 2,
           std::uint32_t line = 64)
{
    CacheParams p;
    p.name = "test_l1";
    p.sizeBytes = sizeKb * 1024;
    p.assoc = assoc;
    p.lineSize = line;
    p.hitCycles = 1;
    p.clockMhz = 100.0;
    return p;
}

TEST(Cache, ColdLoadMissesThenHits)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    AccessResult r1 = c.access(MemReq{0x1000, false, 0}, 0);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(c.misses.value(), 1.0);

    AccessResult r2 = c.access(MemReq{0x1008, false, 0}, r1.done);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_LT(r2.done - r1.done, r1.done); // hit far cheaper than miss
}

TEST(Cache, MissLatencyIncludesBusLatency)
{
    StubBus bus;
    bus.latency = 500 * kTicksPerNs;
    Cache c(smallCache(), &bus);
    AccessResult r = c.access(MemReq{0x0, false, 0}, 0);
    EXPECT_GE(r.done, bus.latency);
}

TEST(Cache, LoadInstallsExclusiveWhenUnshared)
{
    StubBus bus;
    bus.shared = false;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    EXPECT_EQ(c.lineState(0x40), MesiState::Exclusive);
}

TEST(Cache, LoadInstallsSharedWhenOthersHoldIt)
{
    StubBus bus;
    bus.shared = true;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    EXPECT_EQ(c.lineState(0x40), MesiState::Shared);
}

TEST(Cache, StoreMissInstallsModified)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x80, true, 0}, 0);
    EXPECT_EQ(c.lineState(0x80), MesiState::Modified);
    EXPECT_EQ(bus.count(TxType::ReadExclusive), 1);
}

TEST(Cache, StoreOnExclusiveGoesModifiedSilently)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x80, false, 0}, 0);
    ASSERT_EQ(c.lineState(0x80), MesiState::Exclusive);
    const auto busTraffic = bus.log.size();
    c.access(MemReq{0x80, true, 0}, 1000);
    EXPECT_EQ(c.lineState(0x80), MesiState::Modified);
    EXPECT_EQ(bus.log.size(), busTraffic); // no new transaction
}

TEST(Cache, StoreOnSharedIssuesUpgrade)
{
    StubBus bus;
    bus.shared = true;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x80, false, 0}, 0);
    ASSERT_EQ(c.lineState(0x80), MesiState::Shared);
    c.access(MemReq{0x80, true, 0}, 1000);
    EXPECT_EQ(c.lineState(0x80), MesiState::Modified);
    EXPECT_EQ(bus.count(TxType::Upgrade), 1);
    EXPECT_EQ(c.upgrades.value(), 1.0);
}

TEST(Cache, WholeLineHitsAfterOneFill)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x100, false, 0}, 0);
    for (Addr a = 0x100; a < 0x140; a += 8) {
        AccessResult r = c.access(MemReq{a, false, 0}, 10000);
        EXPECT_TRUE(r.hit) << "addr " << a;
    }
    EXPECT_EQ(c.misses.value(), 1.0);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way cache: fill both ways of set 0, touch the first, then map a
    // third line to the same set; the untouched second way must go.
    StubBus bus;
    CacheParams p = smallCache(1, 2, 64); // 8 sets
    Cache c(p, &bus);
    const Addr setStride = 8 * 64; // set 0 repeats every 512 B
    c.access(MemReq{0 * setStride, false, 0}, 0);
    c.access(MemReq{1 * setStride, false, 0}, 100);
    c.access(MemReq{0 * setStride, false, 0}, 200); // touch way 0
    c.access(MemReq{2 * setStride, false, 0}, 300); // evict way 1
    EXPECT_EQ(c.lineState(0 * setStride), MesiState::Exclusive);
    EXPECT_EQ(c.lineState(1 * setStride), MesiState::Invalid);
    EXPECT_EQ(c.lineState(2 * setStride), MesiState::Exclusive);
    EXPECT_EQ(c.evictions.value(), 1.0);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    StubBus bus;
    CacheParams p = smallCache(1, 1, 64); // direct-mapped, 16 sets
    Cache c(p, &bus);
    const Addr conflict = 16 * 64;
    c.access(MemReq{0x0, true, 0}, 0); // dirty line at set 0
    c.access(MemReq{conflict, false, 0}, 1000); // conflicts with set 0
    EXPECT_EQ(c.writebacks.value(), 1.0);
    EXPECT_EQ(bus.count(TxType::Writeback), 1);
}

TEST(Cache, CleanEvictionIsSilent)
{
    StubBus bus;
    CacheParams p = smallCache(1, 1, 64);
    Cache c(p, &bus);
    c.access(MemReq{0x0, false, 0}, 0);
    c.access(MemReq{16 * 64, false, 0}, 1000);
    EXPECT_EQ(c.writebacks.value(), 0.0);
    EXPECT_EQ(bus.count(TxType::Writeback), 0);
}

TEST(Cache, SnoopSharedDowngradesExclusive)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    auto r = c.snoop(0x40, /*exclusive=*/false);
    EXPECT_TRUE(r.present);
    EXPECT_FALSE(r.dirtySupplied);
    EXPECT_EQ(c.lineState(0x40), MesiState::Shared);
}

TEST(Cache, SnoopSharedSuppliesDirtyData)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, true, 0}, 0);
    auto r = c.snoop(0x40, false);
    EXPECT_TRUE(r.present);
    EXPECT_TRUE(r.dirtySupplied);
    EXPECT_EQ(c.lineState(0x40), MesiState::Shared);
    EXPECT_EQ(c.interventions.value(), 1.0);
}

TEST(Cache, SnoopExclusiveInvalidates)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    auto r = c.snoop(0x40, true);
    EXPECT_TRUE(r.present);
    EXPECT_EQ(c.lineState(0x40), MesiState::Invalid);
    EXPECT_EQ(c.snoopInvalidations.value(), 1.0);
}

TEST(Cache, SnoopMissIsAbsent)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    auto r = c.snoop(0x40, false);
    EXPECT_FALSE(r.present);
    EXPECT_FALSE(r.dirtySupplied);
}

TEST(Cache, InvalidateAllEmptiesTheCache)
{
    StubBus bus;
    Cache c(smallCache(), &bus);
    c.access(MemReq{0x40, false, 0}, 0);
    c.access(MemReq{0x80, true, 0}, 100);
    c.invalidateAll();
    EXPECT_EQ(c.lineState(0x40), MesiState::Invalid);
    EXPECT_EQ(c.lineState(0x80), MesiState::Invalid);
}

// ---- Two-level (L1 over L2) hierarchy. --------------------------------

struct TwoLevel
{
    StubBus bus;
    Cache l2;
    Cache l1;

    TwoLevel()
        : l2(
              [] {
                  CacheParams p = smallCache(8, 2, 64);
                  p.name = "test_l2";
                  p.hitCycles = 5;
                  return p;
              }(),
              &bus),
          l1(smallCache(1, 2, 64), &l2)
    {}
};

TEST(CacheHierarchy, L1MissFillsBothLevels)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, false, 0}, 0);
    EXPECT_EQ(h.l1.lineState(0x1000), MesiState::Exclusive);
    EXPECT_EQ(h.l2.lineState(0x1000), MesiState::Exclusive);
}

TEST(CacheHierarchy, L1HitLeavesL2CountersAlone)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, false, 0}, 0);
    const double l2accesses = h.l2.hits.value() + h.l2.misses.value();
    h.l1.access(MemReq{0x1000, false, 0}, 50000);
    EXPECT_EQ(h.l2.hits.value() + h.l2.misses.value(), l2accesses);
}

TEST(CacheHierarchy, StorePromotesOwnershipInBothLevels)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, false, 0}, 0);
    h.l1.access(MemReq{0x1000, true, 0}, 50000);
    EXPECT_EQ(h.l1.lineState(0x1000), MesiState::Modified);
    EXPECT_EQ(h.l2.lineState(0x1000), MesiState::Modified);
}

TEST(CacheHierarchy, L2EvictionBackInvalidatesL1)
{
    TwoLevel h;
    // L2: 8 KB, 2-way, 64 B lines -> 64 sets, set stride 4096 B.
    const Addr stride = 64 * 64;
    h.l1.access(MemReq{0 * stride, false, 0}, 0);
    h.l1.access(MemReq{1 * stride, false, 0}, 100000);
    h.l1.access(MemReq{2 * stride, false, 0}, 200000); // evicts L2 way
    // Inclusion: whichever line left L2 must be gone from L1 too.
    int l1Valid = 0;
    for (Addr a : {0 * stride, 1 * stride, 2 * stride})
        l1Valid += h.l1.lineState(a) != MesiState::Invalid;
    int l2Valid = 0;
    for (Addr a : {0 * stride, 1 * stride, 2 * stride})
        l2Valid += h.l2.lineState(a) != MesiState::Invalid;
    EXPECT_EQ(l2Valid, 2);
    EXPECT_LE(l1Valid, l2Valid);
    for (Addr a : {0 * stride, 1 * stride, 2 * stride}) {
        if (h.l1.lineState(a) != MesiState::Invalid) {
            EXPECT_NE(h.l2.lineState(a), MesiState::Invalid)
                << "inclusion violated at " << a;
        }
    }
}

TEST(CacheHierarchy, DirtyL1LineSurvivesL2EvictionAsWriteback)
{
    TwoLevel h;
    const Addr stride = 64 * 64;
    h.l1.access(MemReq{0 * stride, true, 0}, 0); // dirty in L1+L2
    h.l1.access(MemReq{1 * stride, false, 0}, 100000);
    h.l1.access(MemReq{2 * stride, false, 0}, 200000); // evict dirty line
    EXPECT_GE(h.bus.count(TxType::Writeback), 1);
}

TEST(CacheHierarchy, SnoopReachesL1ThroughL2)
{
    TwoLevel h;
    h.l1.access(MemReq{0x1000, true, 0}, 0);
    auto r = h.l2.snoop(0x1000, /*exclusive=*/true);
    EXPECT_TRUE(r.dirtySupplied);
    EXPECT_EQ(h.l1.lineState(0x1000), MesiState::Invalid);
    EXPECT_EQ(h.l2.lineState(0x1000), MesiState::Invalid);
}

TEST(CacheHierarchy, SilentL1EtoMIsVisibleToSnoops)
{
    TwoLevel h;
    h.l1.access(MemReq{0x2000, false, 0}, 0); // E in both
    h.l1.access(MemReq{0x2000, true, 0}, 50000); // silent E->M in L1
    auto r = h.l2.snoop(0x2000, false);
    EXPECT_TRUE(r.dirtySupplied) << "dirty ownership must be visible";
}

// Both constructors share one size check: 4160 B of 2-way, 64 B lines
// is 32.5 sets, which must be refused rather than truncated to a
// 4096 B cache of 32 sets.
TEST(CacheDeathTest, UpperLevelSizeMustDivideIntoSets)
{
    StubBus bus;
    Cache l2(smallCache(8, 2, 64), &bus);
    CacheParams l1 = smallCache(1, 2, 64);
    l1.sizeBytes = 4160;
    EXPECT_EXIT({ Cache upper(l1, &l2); }, ::testing::ExitedWithCode(1),
                "size not divisible by assoc\\*lineSize");
    EXPECT_EXIT({ Cache last(l1, &bus); }, ::testing::ExitedWithCode(1),
                "size not divisible by assoc\\*lineSize");
}

} // namespace
