/**
 * @file
 * The coherence transport: how a bus transaction finds and kills or
 * downgrades the peer copies of a line, and which serialized resource
 * it occupies while doing so.
 *
 * Two implementations (DESIGN.md §14):
 *
 *  - Snoop: the paper's machines. Every transaction broadcasts over
 *    the serialized snooped address phase and probes every other CPU's
 *    cache hierarchy; the address phase is the resource the paper's
 *    design study [4] identifies as the >4-processor limiter.
 *  - Directory: a sparse full-map directory at the shared level. Each
 *    tracked line carries a sharer bit-vector; requests perform a
 *    banked directory lookup and send targeted invalidations to actual
 *    sharers only, so independent transactions to different banks no
 *    longer serialize on one broadcast phase.
 *
 * The split is functional-then-timed, matching the cache model: probe()
 * applies the protocol state changes (peer snoops, sharer updates) and
 * reports what was found; resolve() charges the serialization cost and
 * returns the tick at which the coherence decision is settled.
 */

#ifndef PM_MEM_TRANSPORT_HH
#define PM_MEM_TRANSPORT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/policy.hh"
#include "mem/req.hh"
#include "mem/resource.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::mem {

class Cache;

/** What the functional probe of the peers found / did. */
struct ProbeOutcome
{
    bool sharedByOthers = false; //!< A peer still holds the line.
    bool dirtyOwner = false; //!< A peer owned Modified data.
    int owner = -1; //!< CPU index of the dirty owner, if any.
    unsigned probes = 0; //!< Peer hierarchies actually snooped.
};

/** Non-owning plumbing handed to a transport by its NodeBus. */
struct TransportHooks
{
    std::vector<Cache *> *caches = nullptr; //!< Indexed by CPU.
    Resource *addrPhase = nullptr; //!< The bus's serialized addr phase.
    sim::Distribution *addrWait = nullptr;
    sim::Scalar *snoopProbes = nullptr;
    sim::Scalar *dirLookups = nullptr;
    sim::Scalar *targetedInvals = nullptr;
    sim::Scalar *addrBusyTicks = nullptr;
    sim::Scalar *dirBusyTicks = nullptr;
};

/** Timing constants resolved by the NodeBus from BusParams. */
struct TransportTiming
{
    Tick addrTicks = 0; //!< Snooped address-phase occupancy.
    Tick snoopTicks = 0; //!< Addr-phase end to snoop/probe response.
    Tick dirLookupTicks = 0; //!< One banked directory lookup.
    unsigned dirBanks = 1; //!< Directory interleave factor.
    std::uint32_t lineBytes = 64; //!< Bank-selection granule.
};

/** One coherence transport instance, owned by a NodeBus. */
class CoherenceTransport
{
  public:
    virtual ~CoherenceTransport() = default;

    virtual TransportKind kind() const = 0;

    /**
     * Functionally apply the transaction to the peers: snoop them
     * (broadcast) or look up and probe the tracked sharers (directory).
     * Writebacks probe nobody; the directory drops the writer's
     * sharer bit.
     */
    virtual ProbeOutcome probe(const BusReq &req) = 0;

    /**
     * Charge the serialization cost of the transaction issued at
     * `now` and return the tick at which ownership is settled (the
     * equivalent of the snoop-response point).
     */
    virtual Tick resolve(const BusReq &req, Tick now,
                         const ProbeOutcome &po) = 0;

    /** Sharer bit-vector tracked for the line (0 under snooping). */
    virtual std::uint64_t sharers(Addr /*lineAddr*/) const { return 0; }

    /** Drop calendar history older than `floor` (see NodeBus). */
    virtual void pruneBelow(Tick floor) = 0;

    /** Live calendar intervals the transport owns (tests, census). */
    virtual std::size_t calendarIntervals() const = 0;

    /** Reset timing calendars between runs (state survives). */
    virtual void resetTiming() = 0;

    /** Forget all coherence bookkeeping (caches were invalidated). */
    virtual void resetCoherence() = 0;
};

/**
 * Build a transport. Directory transports require `hooks.caches->size()`
 * <= 64 (one sharer bit per CPU).
 */
std::unique_ptr<CoherenceTransport> makeTransport(
    TransportKind kind, const TransportHooks &hooks,
    const TransportTiming &timing);

} // namespace pm::mem

#endif // PM_MEM_TRANSPORT_HH
