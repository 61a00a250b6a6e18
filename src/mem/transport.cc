#include "mem/transport.hh"

#include <map>

#include "mem/cache.hh"
#include "sim/logging.hh"

namespace pm::mem {

namespace {

/**
 * Broadcast snooping over the serialized address phase — the exact
 * behavior NodeBus::request had inline before the policy split: every
 * non-writeback transaction probes every other CPU's hierarchy and
 * occupies the shared address phase for the full snoop-response window.
 */
class SnoopTransport final : public CoherenceTransport
{
  public:
    SnoopTransport(const TransportHooks &hooks,
                   const TransportTiming &timing)
        : _h(hooks), _t(timing)
    {
    }

    TransportKind kind() const override { return TransportKind::Snoop; }

    ProbeOutcome
    probe(const BusReq &req) override
    {
        ProbeOutcome po;
        if (req.type == TxType::Writeback)
            return po;
        const bool exclusive = req.type != TxType::ReadShared;
        std::vector<Cache *> &caches = *_h.caches;
        for (unsigned c = 0; c < caches.size(); ++c) {
            if (static_cast<int>(c) == req.srcCpu || !caches[c])
                continue;
            ++po.probes;
            ++*_h.snoopProbes;
            SnoopResult sr = caches[c]->snoop(req.lineAddr, exclusive);
            if (sr.dirtySupplied) {
                po.dirtyOwner = true;
                po.owner = static_cast<int>(c);
            }
            po.sharedByOthers |= sr.present;
        }
        return po;
    }

    Tick
    resolve(const BusReq &req, Tick now, const ProbeOutcome &po) override
    {
        (void)req;
        (void)po;
        const Tick addrStart = _h.addrPhase->acquire(now, _t.addrTicks);
        _h.addrWait->sample(static_cast<double>(addrStart - now));
        *_h.addrBusyTicks += static_cast<double>(_t.addrTicks);
        return addrStart + _t.addrTicks + _t.snoopTicks;
    }

    void pruneBelow(Tick) override {} // Shares the bus's addr phase.
    std::size_t calendarIntervals() const override { return 0; }
    void resetTiming() override {}
    void resetCoherence() override {}

  private:
    TransportHooks _h;
    TransportTiming _t;
};

/**
 * Sparse full-map directory. One entry per tracked line holds a sharer
 * bit-vector over the node's CPUs; lookups serialize only within one
 * of `dirBanks` address-interleaved banks, and ownership requests send
 * targeted invalidations to the tracked sharers instead of snooping
 * every peer.
 *
 * Sparseness makes the directory conservative, never wrong: caches
 * drop clean lines without telling anyone, so a tracked sharer may no
 * longer hold the line. A lone tracked sharer is probed anyway (it may
 * hold the line Exclusive or Modified and must downgrade or supply
 * dirty data) and pruned if the probe misses; with two or more tracked
 * sharers every real copy is provably Shared — a grant of E would have
 * collapsed the sharer set first — so reads are answered from the
 * directory without probing anyone, at worst granting Shared where
 * Exclusive was possible.
 */
class DirectoryTransport final : public CoherenceTransport
{
  public:
    DirectoryTransport(const TransportHooks &hooks,
                       const TransportTiming &timing)
        : _h(hooks), _t(timing)
    {
        if (_h.caches->size() > 64)
            pm_fatal("directory transport: sharer vector holds at most "
                     "64 CPUs, got %zu",
                     _h.caches->size());
        if (_t.dirBanks == 0)
            pm_fatal("directory transport: need at least one bank");
        _banks.resize(_t.dirBanks);
    }

    TransportKind kind() const override { return TransportKind::Directory; }

    ProbeOutcome
    probe(const BusReq &req) override
    {
        ProbeOutcome po;
        const std::uint64_t srcBit =
            req.srcCpu >= 0 ? (std::uint64_t(1) << unsigned(req.srcCpu))
                            : 0;

        if (req.type == TxType::Writeback) {
            // The writer is dropping its (Modified) copy.
            auto it = _dir.find(req.lineAddr);
            if (it != _dir.end()) {
                it->second &= ~srcBit;
                if (it->second == 0)
                    _dir.erase(it);
            }
            return po;
        }

        ++*_h.dirLookups;
        std::uint64_t &sharers = _dir[req.lineAddr];

        if (req.type == TxType::ReadShared) {
            const std::uint64_t others = sharers & ~srcBit;
            if (others != 0 && (others & (others - 1)) == 0) {
                // A lone tracked peer may hold E or M: downgrade it
                // (and learn whether it supplies dirty data).
                probeCpu(ctz64(others), req.lineAddr,
                         /*exclusive=*/false, po, sharers);
            }
            po.sharedByOthers = (sharers & ~srcBit) != 0;
            sharers |= srcBit;
        } else { // ReadExclusive / Upgrade: invalidate tracked sharers.
            std::uint64_t targets = sharers & ~srcBit;
            while (targets != 0) {
                const unsigned c = ctz64(targets);
                targets &= targets - 1;
                ++*_h.targetedInvals;
                probeCpu(c, req.lineAddr, /*exclusive=*/true, po,
                         sharers);
            }
            po.sharedByOthers = false; // All peer copies are dead.
            sharers = srcBit;
        }
        if (sharers == 0)
            _dir.erase(req.lineAddr);
        return po;
    }

    Tick
    resolve(const BusReq &req, Tick now, const ProbeOutcome &po) override
    {
        Resource &bank =
            _banks[(req.lineAddr / _t.lineBytes) % _banks.size()];
        const Tick start = bank.acquire(now, _t.dirLookupTicks);
        _h.addrWait->sample(static_cast<double>(start - now));
        *_h.dirBusyTicks += static_cast<double>(_t.dirLookupTicks);
        Tick done = start + _t.dirLookupTicks;
        if (po.probes > 0)
            done += _t.snoopTicks; // Targeted probes respond in parallel.
        return done;
    }

    std::uint64_t
    sharers(Addr lineAddr) const override
    {
        auto it = _dir.find(lineAddr);
        return it == _dir.end() ? 0 : it->second;
    }

    void
    pruneBelow(Tick floor) override
    {
        for (Resource &b : _banks)
            b.pruneBelow(floor);
    }

    std::size_t
    calendarIntervals() const override
    {
        std::size_t n = 0;
        for (const Resource &b : _banks)
            n += b.intervals();
        return n;
    }

    void
    resetTiming() override
    {
        for (Resource &b : _banks)
            b.reset();
    }

    void resetCoherence() override { _dir.clear(); }

  private:
    static unsigned
    ctz64(std::uint64_t v)
    {
        unsigned n = 0;
        while ((v & 1) == 0) {
            v >>= 1;
            ++n;
        }
        return n;
    }

    void
    probeCpu(unsigned cpu, Addr lineAddr, bool exclusive,
             ProbeOutcome &po, std::uint64_t &sharers)
    {
        Cache *cache = (*_h.caches)[cpu];
        if (!cache) {
            sharers &= ~(std::uint64_t(1) << cpu);
            return;
        }
        ++po.probes;
        ++*_h.snoopProbes;
        SnoopResult sr = cache->snoop(lineAddr, exclusive);
        if (sr.dirtySupplied) {
            po.dirtyOwner = true;
            po.owner = static_cast<int>(cpu);
        }
        po.sharedByOthers |= sr.present;
        if (!sr.present || exclusive)
            sharers &= ~(std::uint64_t(1) << cpu); // Stale or killed.
    }

    TransportHooks _h;
    TransportTiming _t;
    std::vector<Resource> _banks;
    std::map<Addr, std::uint64_t> _dir; //!< lineAddr -> sharer bits.
};

} // namespace

std::unique_ptr<CoherenceTransport>
makeTransport(TransportKind kind, const TransportHooks &hooks,
              const TransportTiming &timing)
{
    if (!hooks.caches || !hooks.addrPhase || !hooks.addrWait ||
        !hooks.snoopProbes || !hooks.dirLookups ||
        !hooks.targetedInvals || !hooks.addrBusyTicks ||
        !hooks.dirBusyTicks)
        pm_fatal("makeTransport: incomplete hook set");
    if (kind == TransportKind::Directory)
        return std::make_unique<DirectoryTransport>(hooks, timing);
    return std::make_unique<SnoopTransport>(hooks, timing);
}

} // namespace pm::mem
