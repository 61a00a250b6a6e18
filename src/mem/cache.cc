#include "mem/cache.hh"

#include "sim/logging.hh"

namespace pm::mem {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : _p(params),
      _clk(params.clockMhz),
      _hitLatency(_clk.cycles(params.hitCycles)),
      _numSets(params.sizeBytes / (params.assoc * params.lineSize)),
      _stats(params.name)
{
    if (!isPow2(_p.lineSize) || !isPow2(_numSets))
        pm_fatal("cache %s: line size and set count must be powers of two",
                 _p.name.c_str());
    if (_p.sizeBytes % (_p.assoc * _p.lineSize) != 0)
        pm_fatal("cache %s: size not divisible by assoc*lineSize",
                 _p.name.c_str());
    // Zeroed blocks from calloc rather than vector::resize: a resize
    // runs a store loop in our own code, and where the linker happens
    // to place that loop moved set-up time by up to a third
    // (EXPERIMENTS.md "Code placement").
    const std::size_t n = numLines();
    _lines.reset(static_cast<Line *>(std::calloc(n, sizeof(Line))));
    _repl.reset(
        static_cast<std::uint64_t *>(std::calloc(n, sizeof(std::uint64_t))));
    if (!_lines || !_repl)
        pm_fatal("cache %s: cannot allocate %zu lines", _p.name.c_str(), n);
    _stats.add(&hits);
    _stats.add(&misses);
    _stats.add(&evictions);
    _stats.add(&writebacks);
    _stats.add(&upgrades);
    _stats.add(&snoopInvalidations);
    _stats.add(&snoopDowngrades);
    _stats.add(&interventions);
}

Cache::Cache(const CacheParams &params, BusTarget *bus) : Cache(params)
{
    if (!bus)
        pm_fatal("cache %s: null bus target", _p.name.c_str());
    _bus = bus;
}

Cache::Cache(const CacheParams &params, Cache *below) : Cache(params)
{
    if (!below)
        pm_fatal("cache %s: null lower level", _p.name.c_str());
    if (below->lineSize() < _p.lineSize)
        pm_fatal("cache %s: lower level has smaller lines (inclusion "
                 "requires lower lineSize >= upper lineSize)",
                 _p.name.c_str());
    if (below->params().coherence != _p.coherence)
        pm_fatal("cache %s: hierarchy levels must speak one protocol",
                 _p.name.c_str());
    _below = below;
    below->_upper = this;
}

std::uint32_t
Cache::setIndex(Addr lineAddr) const
{
    return static_cast<std::uint32_t>((lineAddr / _p.lineSize) &
                                      (_numSets - 1));
}

Cache::Line *
Cache::findLine(Addr lineAddr)
{
    const std::uint32_t set = setIndex(lineAddr);
    Line *base = &_lines[std::size_t(set) * _p.assoc];
    for (std::uint32_t w = 0; w < _p.assoc; ++w) {
        if (base[w].state != MesiState::Invalid && base[w].tag == lineAddr)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr lineAddr) const
{
    return const_cast<Cache *>(this)->findLine(lineAddr);
}

std::uint32_t
Cache::victimWay(std::uint32_t set)
{
    const std::size_t base = std::size_t(set) * _p.assoc;
    for (std::uint32_t w = 0; w < _p.assoc; ++w) {
        if (_lines[base + w].state == MesiState::Invalid)
            return w; // Lowest-index free slot first.
    }
    std::uint64_t *st = &_repl[base];
    if (_p.replacement == ReplacementKind::Srrip) {
        // SRRIP-HP (Jaleel et al., ISCA 2010): the first distant way
        // from way 0; when none is distant, age the whole set and
        // rescan.
        for (;;) {
            for (std::uint32_t w = 0; w < _p.assoc; ++w) {
                if (st[w] >= kRrpvDistant)
                    return w;
            }
            for (std::uint32_t w = 0; w < _p.assoc; ++w)
                ++st[w];
        }
    }
    // LRU: the strictly smallest stamp, so a tie keeps the lowest way.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < _p.assoc; ++w) {
        if (st[w] < st[victim])
            victim = w;
    }
    return victim;
}

void
Cache::touch(std::size_t idx)
{
    // SRRIP promotes a re-referenced line to near-immediate (RRPV 0).
    _repl[idx] =
        _p.replacement == ReplacementKind::Srrip ? 0 : ++_lruClock;
}

void
Cache::insert(std::size_t idx)
{
    // SRRIP inserts at long re-reference, one aging step from eviction,
    // so a streaming line cannot push out a proven-hot one.
    _repl[idx] =
        _p.replacement == ReplacementKind::Srrip ? kRrpvLong : ++_lruClock;
}

MesiState
Cache::lineState(Addr addr) const
{
    const Line *line = findLine(lineAlign(addr));
    return line ? line->state : MesiState::Invalid;
}

void
Cache::promoteToModified(Addr lineAddr)
{
    Line *line = findLine(lineAddr);
    if (line && line->state != MesiState::Invalid)
        line->state = MesiState::Modified;
    if (_below)
        _below->promoteToModified(_below->lineAlign(lineAddr));
}

void
Cache::invalidateAll()
{
    if (_upper)
        _upper->invalidateAll();
    for (std::size_t i = 0; i < numLines(); ++i)
        _lines[i].state = MesiState::Invalid;
}

void
Cache::evict(Line &line, Addr, int srcCpu, Tick t)
{
    ++evictions;
    const Addr victimAddr = line.tag;
    // Inclusion: the level above must not keep a line this level drops.
    if (_upper) {
        // The upper cache may hold a fresher (Modified) copy; fold its
        // ownership down before invalidating so a dirty line is not lost.
        SnoopResult up = _upper->snoop(victimAddr, /*exclusive=*/true);
        if (up.dirtySupplied)
            line.state = MesiState::Modified;
    }
    if (line.state == MesiState::Modified) {
        ++writebacks;
        if (_below) {
            // Absorbed by the inclusive lower level; its copy becomes
            // Modified. Timing: hidden behind the lower level's write
            // buffer, so no stall is charged here.
            _below->promoteToModified(_below->lineAlign(victimAddr));
        } else {
            // Last level: put the line on the bus. The fill that
            // triggered this eviction serializes with the writeback on
            // the shared address phase naturally.
            _bus->request(
                BusReq{victimAddr, TxType::Writeback, srcCpu}, t);
        }
    }
    line.state = MesiState::Invalid;
}

AccessResult
Cache::fill(Addr lineAddr, bool exclusive, int srcCpu, Tick t)
{
    const std::uint32_t set = setIndex(lineAddr);
    const std::size_t idx = std::size_t(set) * _p.assoc + victimWay(set);
    Line &slot = _lines[idx];
    if (slot.state != MesiState::Invalid)
        evict(slot, lineAddr, srcCpu, t);

    AccessResult res;
    if (_below) {
        MemReq down{lineAddr, exclusive, srcCpu};
        AccessResult sub = _below->access(down, t);
        res.done = sub.done;
        res.fromBus = sub.fromBus;
        // The state granted by the lower level bounds what we may hold.
        res.granted = exclusive ? MesiState::Modified : sub.granted;
        if (!exclusive && sub.granted == MesiState::Modified) {
            // Lower level holds dirty data; this level caches it clean
            // relative to the level below (which keeps ownership):
            // Exclusive, so a later store upgrades silently, or Shared
            // under MSI, which has no Exclusive state.
            res.granted = _p.coherence == CoherenceKind::Msi
                              ? MesiState::Shared
                              : MesiState::Exclusive;
        }
    } else {
        const TxType type =
            exclusive ? TxType::ReadExclusive : TxType::ReadShared;
        BusResult bus = _bus->request(BusReq{lineAddr, type, srcCpu}, t);
        res.done = bus.done;
        res.fromBus = true;
        if (exclusive)
            res.granted = MesiState::Modified;
        else if (bus.sharedByOthers || _p.coherence == CoherenceKind::Msi)
            res.granted = MesiState::Shared;
        else
            res.granted = MesiState::Exclusive;
    }

    slot.tag = lineAddr;
    slot.state = res.granted;
    insert(idx);
    res.hit = false;
    return res;
}

Tick
Cache::upgradeLine(Addr lineAddr, int srcCpu, Tick t)
{
    ++upgrades;
    if (_below) {
        const Addr lowAddr = _below->lineAlign(lineAddr);
        const MesiState lowState = _below->lineState(lowAddr);
        if (lowState == MesiState::Exclusive ||
            lowState == MesiState::Modified) {
            // Ownership already on this node; grant after one lower-
            // level lookup.
            _below->promoteToModified(lowAddr);
            return t + _below->_hitLatency;
        }
        // Lower level is Shared too: it performs the bus upgrade.
        MemReq down{lineAddr, /*write=*/true, srcCpu};
        return _below->access(down, t).done;
    }
    BusResult bus = _bus->request(
        BusReq{lineAddr, TxType::Upgrade, srcCpu}, t);
    return bus.done;
}

AccessResult
Cache::access(const MemReq &req, Tick now)
{
    const Addr lineAddr = lineAlign(req.addr);
    const Tick t = now + _hitLatency;
    Line *line = findLine(lineAddr);

    if (line) {
        touch(static_cast<std::size_t>(line - _lines.get()));
        if (!req.write) {
            ++hits;
            return AccessResult{t, line->state, true};
        }
        if (line->state == MesiState::Shared) {
            // Peers may hold copies (under MSI every clean line is
            // Shared): take ownership first.
            const Tick done = upgradeLine(lineAddr, req.srcCpu, t);
            line = findLine(lineAddr); // may have moved? (no, same slot)
            pm_assert(line != nullptr);
            line->state = MesiState::Modified;
            // An upgrade crossed (or may have crossed) the bus: report
            // it as bus traffic so the core applies miss semantics.
            return AccessResult{done, MesiState::Modified, true, true};
        }
        ++hits;
        if (line->state == MesiState::Exclusive) {
            // Silent E -> M. Record dirty ownership below so remote
            // snoops that only reach the lower level report it.
            line->state = MesiState::Modified;
            if (_below)
                _below->promoteToModified(_below->lineAlign(lineAddr));
        }
        return AccessResult{t, MesiState::Modified, true};
    }

    ++misses;
    return fill(lineAddr, req.write, req.srcCpu, t);
}

SnoopResult
Cache::snoop(Addr lineAddr, bool exclusive)
{
    SnoopResult res;
    if (_upper) {
        // Snoop each upper-level line covered by this (>=) line.
        for (Addr a = lineAddr; a < lineAddr + _p.lineSize;
             a += _upper->lineSize()) {
            SnoopResult up = _upper->snoop(a, exclusive);
            res.present |= up.present;
            res.dirtySupplied |= up.dirtySupplied;
        }
    }

    Line *line = findLine(lineAddr);
    if (!line)
        return res;

    if (line->state == MesiState::Modified) {
        res.dirtySupplied = true;
        ++interventions;
    }
    if (exclusive) {
        ++snoopInvalidations;
        line->state = MesiState::Invalid;
    } else {
        // An M or E line is demoted (MSI never holds E).
        if (line->state != MesiState::Shared)
            ++snoopDowngrades;
        line->state = MesiState::Shared;
    }
    // res.present reflects pre-snoop residency for invalidations.
    res.present = true;
    return res;
}

} // namespace pm::mem
