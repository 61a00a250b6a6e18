/**
 * @file
 * Timestamp-reservation resources.
 *
 * The node-level timing model is "immediate mode": a memory access
 * computes its completion time synchronously by reserving time slices
 * on the shared hardware resources it crosses (snoop/address phase,
 * data paths, DRAM banks).
 *
 * Because processors are stepped in bounded *chunks* (see cpu/sched),
 * requests from different processors can arrive at a resource slightly
 * out of global time order — processor A may have reserved slices far
 * ahead before processor B asks for an earlier slot. A resource is
 * therefore a calendar of disjoint busy intervals that supports
 * backfilling: a request is placed in the earliest idle gap at or
 * after its arrival time, which makes the model insensitive to the
 * scheduling chunk size.
 *
 * The calendar is flat: a vector of intervals sorted by start, whose
 * live part begins at a dead-prefix head. Intervals that end at or
 * before a time floor can never be asked about again and are pruned by
 * advancing the head; the vector is compacted once the head passes its
 * middle. Two floors drive the pruning, both through
 * NodeBus::setTimeFloor: the processor scheduler's minimum local time
 * (cpu/sched) and, on the communication path, the event queue's now()
 * whenever the PIO driver's engine syncs its processor to it
 * (msg/driver). The bus caps either at the local clock of every other
 * processor that has used it since its last reset, so a lagging
 * processor is never pruned past. The calendar therefore holds only the
 * reservations between the floor and the furthest-ahead requester,
 * however long the run. NodeBus panics on a request below the floor it
 * pruned at, the one way pruning could change a simulated result.
 */

#ifndef PM_MEM_RESOURCE_HH
#define PM_MEM_RESOURCE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::mem {

/** A single-server resource: a calendar of disjoint busy intervals. */
class Resource
{
  public:
    Resource() = default;

    /**
     * Earliest start time >= `at` at which `duration` ticks fit into
     * an idle gap. Does not reserve.
     */
    Tick
    earliestFit(Tick at, Tick duration) const
    {
        const Interval *first = _busy.data() + _head;
        const Interval *last = _busy.data() + _busy.size();
        // Disjoint intervals sorted by start are sorted by end too: if
        // the last one ends by `at`, the calendar is idle from `at` on.
        if (first == last || (last - 1)->end <= at)
            return at;
        Tick cand = at;
        const Interval *it = std::upper_bound(first, last, cand, startsAfter);
        if (it != first && (it - 1)->end > cand)
            cand = (it - 1)->end;
        while (it != last && it->start < cand + duration) {
            cand = it->end;
            ++it;
        }
        return cand;
    }

    /** Mark [start, start+duration) busy. The caller must have used
     *  earliestFit (the interval must be idle). */
    void
    reserve(Tick start, Tick duration)
    {
        if (duration == 0)
            return;
        _busyTicks += static_cast<double>(duration);
        const Interval iv{start, start + duration};
        // Appending at the frontier is the common case.
        if (_busy.empty() || start > _busy.back().start) {
            _busy.push_back(iv);
            return;
        }
        _busy.insert(std::upper_bound(_busy.begin() + _head, _busy.end(),
                                      start, startsAfter),
                     iv);
    }

    /**
     * Reserve the earliest fitting slot at or after `at`.
     * @return The tick at which service starts.
     */
    Tick
    acquire(Tick at, Tick duration)
    {
        const Tick start = earliestFit(at, duration);
        reserve(start, duration);
        return start;
    }

    /**
     * Reserve the same earliest start on two resources simultaneously,
     * possibly for different durations (a point-to-point path needs
     * both ports; a circuit-switched bus transaction holds the bus and
     * its DRAM bank together).
     */
    static Tick
    acquireTogether(Resource &a, Tick durA, Resource &b, Tick durB,
                    Tick at)
    {
        Tick cand = at;
        for (;;) {
            const Tick sa = a.earliestFit(cand, durA);
            const Tick sb = b.earliestFit(sa, durB);
            if (sa == sb) {
                a.reserve(sa, durA);
                b.reserve(sa, durB);
                return sa;
            }
            cand = sb;
        }
    }

    /** acquireTogether with one common duration. */
    static Tick
    acquirePair(Resource &a, Resource &b, Tick at, Tick duration)
    {
        return acquireTogether(a, duration, b, duration, at);
    }

    /** Latest reserved endpoint (0 when idle); reporting/tests only. */
    Tick freeAt() const { return _busy.empty() ? 0 : _busy.back().end; }

    /** Number of live calendar intervals (tests). */
    std::size_t intervals() const { return _busy.size() - _head; }

    /** Drop all intervals that end at or before `floor`. */
    void
    pruneBelow(Tick floor)
    {
        while (_head < _busy.size() && _busy[_head].end <= floor)
            ++_head;
        if (_head == _busy.size()) {
            _busy.clear();
            _head = 0;
        } else if (_head > _busy.size() / 2) {
            _busy.erase(_busy.begin(), _busy.begin() + _head);
            _head = 0;
        }
    }

    /** Total reserved service ticks (utilization numerator). */
    double busyTicks() const { return _busyTicks; }

    /** Drop all reservations (between independent experiment runs). */
    void
    reset()
    {
        _busy.clear();
        _head = 0;
        _busyTicks = 0.0;
    }

  private:
    /** One busy interval [start, end). */
    struct Interval
    {
        Tick start;
        Tick end;
    };

    static bool
    startsAfter(Tick t, const Interval &iv)
    {
        return t < iv.start;
    }

    /**
     * Disjoint intervals sorted by start. Entries before `_head` are
     * pruned; the vector is empty whenever no interval is live.
     */
    std::vector<Interval> _busy;
    std::size_t _head = 0;
    double _busyTicks = 0.0;
};

/**
 * A bank-interleaved resource (the node's DRAM array). The bank index
 * is supplied by the caller; banks queue independently, modelling the
 * paper's "interleaved and pipelined node memory".
 */
class BankedResource
{
  public:
    BankedResource(std::string name, unsigned banks)
        : _name(std::move(name)), _banks(banks) {}

    unsigned banks() const { return static_cast<unsigned>(_banks.size()); }

    /** Reserve bank `bank` as Resource::acquire does. */
    Tick
    acquire(unsigned bank, Tick at, Tick duration)
    {
        return _banks[bank % _banks.size()].acquire(at, duration);
    }

    /** Direct access to one bank's calendar. */
    Resource &bank(unsigned b) { return _banks[b % _banks.size()]; }

    Tick freeAt(unsigned bank) const
    {
        return _banks[bank % _banks.size()].freeAt();
    }

    /** Live calendar intervals over all banks (tests, census). */
    std::size_t
    intervals() const
    {
        std::size_t n = 0;
        for (const auto &b : _banks)
            n += b.intervals();
        return n;
    }

    void
    pruneBelow(Tick floor)
    {
        for (auto &b : _banks)
            b.pruneBelow(floor);
    }

    double
    busyTicks() const
    {
        double total = 0.0;
        for (const auto &b : _banks)
            total += b.busyTicks();
        return total;
    }

    void
    reset()
    {
        for (auto &b : _banks)
            b.reset();
    }

  private:
    std::string _name;
    std::vector<Resource> _banks;
};

} // namespace pm::mem

#endif // PM_MEM_RESOURCE_HH
