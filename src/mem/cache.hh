/**
 * @file
 * A parametric set-associative cache under one of two protocols
 * (MESI or MSI) and one of two replacement policies (LRU or SRRIP).
 *
 * Caches form private two-level hierarchies per processor (L1 -> L2);
 * the L2 talks to the node bus (BusTarget), which reaches every other
 * processor's L2 by broadcast snoop or through its sparse directory.
 * Hierarchies are inclusive: a line present in L1 is present in its
 * L2, so snoops delivered to the L2 recurse upward.
 *
 * The model tracks line *state*, not data contents: the quantities the
 * paper measures (hit rates, line-length effects, snoop serialization,
 * intervention transfers) are functions of state and timing only.
 *
 * Both policies are plain enums in CacheParams that the cache switches
 * on where they differ (DESIGN.md §14): MSI changes the state a fill is
 * granted; the replacement policy decides what the per-way state means
 * and which way a full set gives up.
 */

#ifndef PM_MEM_CACHE_HH
#define PM_MEM_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "mem/policy.hh"
#include "mem/req.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::mem {

/** Interface the last-level (per-CPU) cache uses to reach the node bus. */
class BusTarget
{
  public:
    virtual ~BusTarget() = default;

    /** Perform a coherent bus transaction; see BusReq / BusResult. */
    virtual BusResult request(const BusReq &req, Tick now) = 0;
};

/** Outcome of a snoop delivered to a cache hierarchy. */
struct SnoopResult
{
    bool present = false; //!< The line remains (or was) valid here.
    bool dirtySupplied = false; //!< This hierarchy owned Modified data.
};

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineSize = 64;
    Cycles hitCycles = 1; //!< Lookup + hit-return latency, in clk cycles.
    double clockMhz = 180.0;
    CoherenceKind coherence = CoherenceKind::Mesi;
    ReplacementKind replacement = ReplacementKind::Lru;
};

/**
 * One cache level. Construct with either a lower-level Cache (for L1)
 * or a BusTarget (for the last private level).
 */
class Cache
{
  public:
    /** Last-private-level constructor (talks to the bus). */
    Cache(const CacheParams &params, BusTarget *bus);

    /** Upper-level constructor (talks to a lower cache). */
    Cache(const CacheParams &params, Cache *below);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Configuration access. */
    const CacheParams &params() const { return _p; }
    std::uint32_t lineSize() const { return _p.lineSize; }
    std::uint32_t numSets() const { return _numSets; }

    /**
     * Perform a timed access.
     * @param req The processor request (any byte address).
     * @param now Time the request leaves the processor.
     * @return Completion time and the coherence state now held.
     */
    AccessResult access(const MemReq &req, Tick now);

    /**
     * Deliver a snoop from the bus (or from the cache below).
     * Recursively snoops the level above (inclusive hierarchy).
     * @param lineAddr Line-aligned address.
     * @param exclusive Requester wants exclusive ownership: invalidate.
     */
    SnoopResult snoop(Addr lineAddr, bool exclusive);

    /** Current state of the line containing `addr` (Invalid if absent). */
    MesiState lineState(Addr addr) const;

    /**
     * Functional ownership promotion (no timing): used when the level
     * above transitions E -> M silently so that snoop responses from
     * this level report dirty ownership correctly.
     */
    void promoteToModified(Addr lineAddr);

    /** Invalidate the entire cache (between experiment phases). */
    void invalidateAll();

    /** The inclusive upper level, if any (set by the upper's ctor). */
    Cache *upper() const { return _upper; }

    /** Statistics group for this cache. */
    sim::StatGroup &stats() { return _stats; }

    // Exposed counters (read by tests and benches).
    sim::Scalar hits{"hits", "demand hits"};
    sim::Scalar misses{"misses", "demand misses"};
    sim::Scalar evictions{"evictions", "victim lines replaced"};
    sim::Scalar writebacks{"writebacks", "dirty victims written back"};
    sim::Scalar upgrades{"upgrades", "S->M ownership upgrades"};
    sim::Scalar snoopInvalidations{"snoop_invalidations",
                                   "lines killed by remote stores"};
    sim::Scalar snoopDowngrades{"snoop_downgrades",
                                "M/E lines demoted to S by remote loads"};
    sim::Scalar interventions{"interventions",
                              "dirty lines supplied cache-to-cache"};

  private:
    struct Line
    {
        Addr tag = 0;
        MesiState state = MesiState::Invalid;
    };
    // The line array comes zeroed from calloc (Line is an aggregate,
    // so the block holds Lines without a constructor running).
    static_assert(MesiState::Invalid == MesiState{});

    /** Deleter for the calloc'd arrays. */
    struct Free
    {
        void operator()(void *p) const { std::free(p); }
    };

    /** SRRIP re-reference prediction values (2-bit). */
    static constexpr std::uint64_t kRrpvLong = 2; //!< Insertion value.
    static constexpr std::uint64_t kRrpvDistant = 3; //!< Evictable.

    CacheParams _p;
    sim::ClockDomain _clk;
    Tick _hitLatency;
    std::uint32_t _numSets;
    Cache *_below = nullptr;
    BusTarget *_bus = nullptr;
    Cache *_upper = nullptr;
    std::unique_ptr<Line[], Free> _lines; // sets * assoc, row-major by set
    /**
     * Replacement state, one entry per way of `_lines`: the LRU stamp
     * (`_lruClock` at the last touch or fill) or the SRRIP RRPV.
     */
    std::unique_ptr<std::uint64_t[], Free> _repl;
    std::uint64_t _lruClock = 0;
    sim::StatGroup _stats;

    /** Validation and state shared by both public constructors. */
    explicit Cache(const CacheParams &params);

    std::size_t numLines() const { return std::size_t(_numSets) * _p.assoc; }
    Addr lineAlign(Addr a) const { return a & ~Addr(_p.lineSize - 1); }
    std::uint32_t setIndex(Addr lineAddr) const;
    Line *findLine(Addr lineAddr);
    const Line *findLine(Addr lineAddr) const;

    /**
     * Way to fill in `set`: the lowest-index Invalid way if the set
     * has one, else the replacement victim. Every tie breaks toward
     * the lowest way index, so the choice is deterministic even among
     * equal states.
     */
    std::uint32_t victimWay(std::uint32_t set);

    /** Record a demand hit on `_lines[idx]` in the replacement state. */
    void touch(std::size_t idx);

    /** Record a fill of `_lines[idx]` in the replacement state. */
    void insert(std::size_t idx);

    /** Fetch a missing line; returns completion time and new state. */
    AccessResult fill(Addr lineAddr, bool exclusive, int srcCpu, Tick t);

    /** Obtain write permission for a line currently Shared here. */
    Tick upgradeLine(Addr lineAddr, int srcCpu, Tick t);

    /** Evict `line` (possibly dirty); returns when the slot is usable. */
    void evict(Line &line, Addr lineAddr, int srcCpu, Tick t);
};

} // namespace pm::mem

#endif // PM_MEM_CACHE_HH
