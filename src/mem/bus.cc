#include "mem/bus.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pm::mem {

NodeBus::NodeBus(const BusParams &bp, const DramParams &dp, unsigned numCpus)
    : _bp(bp),
      _dp(dp),
      _clk(bp.clockMhz),
      _addrTicks(_clk.cycles(bp.addrCycles)),
      _snoopTicks(_clk.cycles(bp.snoopCycles)),
      _dram(dp.name, dp.banks),
      _caches(numCpus, nullptr),
      _requesters(numCpus),
      _stats(bp.name)
{
    if (numCpus == 0)
        pm_fatal("bus %s: need at least one CPU port", bp.name.c_str());
    if (bp.dataWidthBytes == 0 || bp.lineBytes % bp.dataWidthBytes != 0)
        pm_fatal("bus %s: line size must be a multiple of the data width",
                 bp.name.c_str());
    if (bp.transport == TransportKind::Directory && !bp.splitTransactions)
        pm_fatal("bus %s: a directory transport needs a split-transaction "
                 "bus (a circuit-switched master holds the broadcast "
                 "phase by construction)",
                 bp.name.c_str());
    const Cycles beatsPerLine = bp.lineBytes / bp.dataWidthBytes;
    _lineDataTicks = _clk.cycles(beatsPerLine);
    _beatTicks = _clk.cycles(1);
    _cpuPorts.resize(numCpus);

    TransportHooks hooks;
    hooks.caches = &_caches;
    hooks.addrPhase = &_addrPhase;
    hooks.addrWait = &addrWait;
    hooks.snoopProbes = &snoopProbes;
    hooks.dirLookups = &dirLookups;
    hooks.targetedInvals = &targetedInvals;
    hooks.addrBusyTicks = &addrBusyTicks;
    hooks.dirBusyTicks = &dirBusyTicks;
    TransportTiming timing;
    timing.addrTicks = _addrTicks;
    timing.snoopTicks = _snoopTicks;
    timing.dirLookupTicks = _clk.cycles(bp.dirLookupCycles);
    timing.dirBanks = bp.dirBanks;
    timing.lineBytes = bp.lineBytes;
    _transport = makeTransport(bp.transport, hooks, timing);

    _stats.add(&transactions);
    _stats.add(&c2cTransfers);
    _stats.add(&dramReads);
    _stats.add(&dramWrites);
    _stats.add(&pioBeats);
    _stats.add(&snoopProbes);
    _stats.add(&dirLookups);
    _stats.add(&targetedInvals);
    _stats.add(&addrBusyTicks);
    _stats.add(&dirBusyTicks);
    _stats.add(&addrWait);
}

void
NodeBus::attachCache(unsigned cpu, Cache *l2)
{
    if (cpu >= _caches.size())
        pm_fatal("bus %s: CPU index %u out of range", _bp.name.c_str(), cpu);
    _caches[cpu] = l2;
}

void
NodeBus::attachClock(unsigned cpu, const Tick *localTime)
{
    if (cpu >= _requesters.size())
        pm_fatal("bus %s: CPU index %u out of range", _bp.name.c_str(), cpu);
    _requesters[cpu].clock = localTime;
}

Tick
NodeBus::acquirePath(Resource &a, Resource &b, Tick at, Tick ticks)
{
    if (!_bp.pointToPointData)
        return _sharedData.acquire(at, ticks);
    return Resource::acquirePair(a, b, at, ticks);
}

void
NodeBus::setTimeFloor(Tick floor)
{
    // The caller vouches only for its own requests: another CPU whose
    // clock lags (a compute phase after this CPU's message phase) will
    // still request at its own time.
    for (const Requester &r : _requesters) {
        if (r.active && r.clock && *r.clock < floor)
            floor = *r.clock;
    }
    // Every reservation since the last prune starts at or after the
    // old floor, so a floor that does not rise has nothing to drop.
    if (floor <= _floor)
        return;
    _floor = floor;
    _addrPhase.pruneBelow(floor);
    _sharedData.pruneBelow(floor);
    for (auto &p : _cpuPorts)
        p.pruneBelow(floor);
    _memPort.pruneBelow(floor);
    _ioPort.pruneBelow(floor);
    _dram.pruneBelow(floor);
    _transport->pruneBelow(floor);
}

std::size_t
NodeBus::calendarIntervals() const
{
    std::size_t n = _addrPhase.intervals() + _sharedData.intervals() +
                    _memPort.intervals() + _ioPort.intervals() +
                    _dram.intervals() + _transport->calendarIntervals();
    for (const auto &p : _cpuPorts)
        n += p.intervals();
    return n;
}

void
NodeBus::belowFloor(Tick now) const
{
    pm_panic("bus %s: request at tick %llu is below the pruned calendar "
             "floor %llu",
             _bp.name.c_str(), static_cast<unsigned long long>(now),
             static_cast<unsigned long long>(_floor));
}

std::uint64_t
NodeBus::directorySharers(Addr lineAddr) const
{
    return _transport->sharers(lineAddr & ~Addr(_bp.lineBytes - 1));
}

BusResult
NodeBus::request(const BusReq &req, Tick now)
{
    if (now < _floor)
        belowFloor(now);
    _requesters[req.srcCpu % _requesters.size()].active = true;
    ++transactions;
    BusResult res;

    // --- Coherence (functional; applied regardless of timing mode). --
    // The transport probes (or targets) the peers and reports what it
    // found; see mem/transport.hh.
    const ProbeOutcome po = _transport->probe(req);
    res.sharedByOthers = po.sharedByOthers;
    res.cacheToCache = po.dirtyOwner;

    // --- Non-split (circuit-switched) bus: one resource holds the ----
    // --- whole transaction.                                       ----
    if (!_bp.splitTransactions) {
        Tick service = _addrTicks + _snoopTicks;
        switch (req.type) {
          case TxType::Upgrade:
            break;
          case TxType::Writeback:
            service += _lineDataTicks;
            break;
          case TxType::ReadShared:
          case TxType::ReadExclusive:
            if (po.dirtyOwner) {
                service += _clk.cycles(_bp.c2cExtraCycles) + _lineDataTicks;
            } else {
                service += _dp.latency + _lineDataTicks;
            }
            break;
        }
        // The circuit-switched bus is held together with the DRAM
        // bank it uses: a transaction cannot start until both are
        // free, which also keeps the bank backlog bounded.
        const bool usesDram =
            req.type == TxType::Writeback ||
            ((req.type == TxType::ReadShared ||
              req.type == TxType::ReadExclusive) && !po.dirtyOwner);
        Tick start;
        if (usesDram) {
            if (req.type == TxType::Writeback)
                ++dramWrites;
            else
                ++dramReads;
            Resource &bank = _dram.bank(bankOf(req.lineAddr));
            start = Resource::acquireTogether(
                _addrPhase, service, bank, _dp.occupancy(_bp.lineBytes),
                now);
        } else {
            if (po.dirtyOwner)
                ++c2cTransfers;
            start = _addrPhase.acquire(now, service);
        }
        addrWait.sample(static_cast<double>(start - now));
        addrBusyTicks += static_cast<double>(service);
        res.done = start + service;
        return res;
    }

    // --- Split-transaction path: the transport charges the ------------
    // --- serialization (address phase or directory bank).  ------------
    const Tick snooped = _transport->resolve(req, now, po);

    switch (req.type) {
      case TxType::Upgrade:
        // Address-only transaction: invalidations ride the snoop (or
        // the directory's targeted probes).
        res.done = snooped;
        return res;

      case TxType::Writeback: {
        ++dramWrites;
        Resource &srcPort = _cpuPorts[req.srcCpu % _cpuPorts.size()];
        const Tick dataStart =
            acquirePath(srcPort, _memPort, snooped, _lineDataTicks);
        _dram.acquire(bankOf(req.lineAddr), dataStart,
                      _dp.occupancy(_bp.lineBytes));
        res.done = dataStart + _lineDataTicks;
        return res;
      }

      case TxType::ReadShared:
      case TxType::ReadExclusive: {
        Resource &dstPort = _cpuPorts[req.srcCpu % _cpuPorts.size()];
        if (po.dirtyOwner) {
            // Intervention: the owning cache drives the line directly
            // to the requester through the switch. Memory is updated in
            // the background (reserve the bank; don't extend the
            // requester's latency).
            ++c2cTransfers;
            Resource &ownPort = _cpuPorts[po.owner % (int)_cpuPorts.size()];
            const Tick t0 = snooped + _clk.cycles(_bp.c2cExtraCycles);
            const Tick dataStart =
                acquirePath(ownPort, dstPort, t0, _lineDataTicks);
            res.done = dataStart + _lineDataTicks;
            _dram.acquire(bankOf(req.lineAddr), res.done,
                          _dp.occupancy(_bp.lineBytes));
            return res;
        }
        ++dramReads;
        const unsigned bank = bankOf(req.lineAddr);
        const Tick bankStart =
            _dram.acquire(bank, snooped, _dp.occupancy(_bp.lineBytes));
        const Tick dataReady = bankStart + _dp.latency;
        const Tick dataStart =
            acquirePath(_memPort, dstPort, dataReady, _lineDataTicks);
        res.done = dataStart + _lineDataTicks;
        return res;
      }
    }
    pm_panic("unhandled bus transaction type");
}

Tick
NodeBus::pioBeat(int srcCpu, Tick now)
{
    if (now < _floor)
        belowFloor(now);
    _requesters[srcCpu % (int)_requesters.size()].active = true;
    ++pioBeats;
    // Uncached single-beat transfers are not snooped: they hold the
    // serialized address path for one cycle only, not the full
    // snoop-response window. (This path is transport-independent: PIO
    // arbitration exists even when coherence rides a directory.)
    const Tick pioAddrTicks = _clk.cycles(1);
    if (!_bp.splitTransactions) {
        const Tick service = pioAddrTicks + _beatTicks;
        addrBusyTicks += static_cast<double>(service);
        return _addrPhase.acquire(now, service) + service;
    }
    const Tick addrStart = _addrPhase.acquire(now, pioAddrTicks);
    addrBusyTicks += static_cast<double>(pioAddrTicks);
    Resource &srcPort = _cpuPorts[srcCpu % (int)_cpuPorts.size()];
    const Tick dataStart = acquirePath(srcPort, _ioPort,
                                       addrStart + pioAddrTicks,
                                       _beatTicks);
    return dataStart + _beatTicks;
}

void
NodeBus::resetTiming()
{
    _addrPhase.reset();
    _sharedData.reset();
    for (auto &p : _cpuPorts)
        p.reset();
    _memPort.reset();
    _ioPort.reset();
    _dram.reset();
    _transport->resetTiming();
    _floor = 0;
    for (Requester &r : _requesters)
        r.active = false;
}

void
NodeBus::resetCoherence()
{
    _transport->resetCoherence();
}

} // namespace pm::mem
