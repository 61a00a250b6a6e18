#include "sim/event.hh"

#include <bit>
#include <limits>

#include "sim/logging.hh"

namespace pm::sim {

std::uint32_t
EventQueue::allocRecord()
{
    if (_freeHead != kNoFree) {
        const std::uint32_t slot = _freeHead;
        _freeHead = _slab[slot].nextFree;
        return slot;
    }
    if (_slab.size() >= std::numeric_limits<std::uint32_t>::max())
        pm_panic("event queue: slab exhausted (%zu live events)",
                 _slab.size());
    _slab.emplace_back();
    return static_cast<std::uint32_t>(_slab.size() - 1);
}

void
EventQueue::freeRecord(std::uint32_t slot)
{
    Record &rec = _slab[slot];
    rec.state = Record::State::Free;
    rec.fn.reset();
    rec.nextFree = _freeHead;
    _freeHead = slot;
}

EventHandle
EventQueue::schedule(Tick when, EventFn fn)
{
    if (when < _now)
        pm_panic("scheduling event in the past (when=%llu now=%llu)",
                 (unsigned long long)when, (unsigned long long)_now);
    const std::uint64_t seq = _nextSeq++;
    const std::uint32_t slot = allocRecord();
    Record &rec = _slab[slot];
    rec.seq = seq;
    rec.state = Record::State::Pending;
    rec.fn = std::move(fn);
    if (!pushNear(when, slot))
        _heap.push(HeapEntry{when, seq, slot});
    return EventHandle{slot, seq};
}

bool
EventQueue::pushNear(Tick when, std::uint32_t slot)
{
    const Tick bucketNo = when >> kBucketShift;
    if (bucketNo - (_now >> kBucketShift) >= kBuckets)
        return false; // past the horizon
    const unsigned b = static_cast<unsigned>(bucketNo) & (kBuckets - 1);
    Bucket &bk = _buckets[b];
    if (bk.fill == kBucketSlots)
        return false; // full bucket: spill to the heap
    // The new event has the largest seq of any queued one, so it goes
    // after every entry with when <= its own; the (usually few) later
    // entries shift one place towards the ring's tail.
    const auto offset = static_cast<std::uint32_t>(when & (kBucketTicks - 1));
    NearEntry *ring = &_wheel[b * kBucketSlots];
    constexpr unsigned kMask = kBucketSlots - 1;
    unsigned i = bk.fill;
    for (; i > 0; --i) {
        const NearEntry &prev = ring[(bk.head + i - 1) & kMask];
        if (prev.offset <= offset)
            break;
        ring[(bk.head + i) & kMask] = prev;
    }
    ring[(bk.head + i) & kMask] = NearEntry{offset, slot};
    ++bk.fill;
    _occupied[b / 64] |= std::uint64_t{1} << (b % 64);
    ++_nearSize;
    return true;
}

unsigned
EventQueue::nearHeadBucket() const
{
    if (_nearSize == 0)
        return kNoBucket;
    // Every near entry lies in [now's bucket, now's bucket + kBuckets),
    // so the first occupied bucket at or after now's, circularly, holds
    // the earliest. Bits below `start` in its word are the wheel's last
    // buckets, which the wrap-around visits last.
    const unsigned start =
        static_cast<unsigned>(_now >> kBucketShift) & (kBuckets - 1);
    unsigned w = start / 64;
    std::uint64_t bits = _occupied[w] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
        w = (w + 1) % kOccupancyWords;
        bits = _occupied[w];
    }
    return w * 64 + static_cast<unsigned>(std::countr_zero(bits));
}

Tick
EventQueue::nearWhen(unsigned bucket, std::uint32_t offset) const
{
    const Tick nowNo = _now >> kBucketShift;
    const Tick ahead = (bucket - nowNo) & (kBuckets - 1);
    return ((nowNo + ahead) << kBucketShift) | offset;
}

bool
EventQueue::cancel(EventHandle h)
{
    if (h._slot >= _slab.size())
        return false;
    Record &rec = _slab[h._slot];
    // The seq check rejects handles to executed events whose slot has
    // been recycled; the state check rejects executed/cancelled events
    // whose slot has not. Either way: O(1), no side effects.
    if (rec.state != Record::State::Pending || rec.seq != h._seq)
        return false;
    rec.state = Record::State::Cancelled;
    rec.fn.reset(); // release captured resources eagerly
    ++_cancelled;
    ++_cancelledTotal;
    return true;
}

bool
EventQueue::step(Tick limit)
{
    for (;;) {
        // Each tier yields its own earliest entry; the smaller of the
        // two by (when, seq) is the earliest of the whole queue.
        unsigned b = nearHeadBucket();
        Tick when = kTickNever;
        std::uint32_t slot = 0;
        if (b != kNoBucket) {
            const NearEntry &n = _wheel[b * kBucketSlots + _buckets[b].head];
            when = nearWhen(b, n.offset);
            slot = n.slot;
            // On a tie in `when`, the slab record holds the near seq.
            if (!_heap.empty() &&
                (_heap.top().when < when ||
                 (_heap.top().when == when &&
                  _heap.top().seq < _slab[slot].seq)))
                b = kNoBucket;
        }
        if (b == kNoBucket) {
            if (_heap.empty())
                return false;
            when = _heap.top().when;
            slot = _heap.top().slot;
        }
        if (when > limit)
            return false;
        if (b != kNoBucket) {
            Bucket &bk = _buckets[b];
            bk.head = (bk.head + 1) & (kBucketSlots - 1);
            if (--bk.fill == 0)
                _occupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
            --_nearSize;
        } else {
            _heap.pop();
        }
        Record &rec = _slab[slot];
        // Each record has exactly one entry, so the seqs always match
        // here; the record is either pending or a tombstone.
        if (rec.state == Record::State::Cancelled) {
            --_cancelled;
            freeRecord(slot);
            continue;
        }
        // Move the callback out of the slab before running it: the
        // callback may schedule new events, which can grow the slab and
        // recycle this very slot.
        EventFn fn = std::move(rec.fn);
        freeRecord(slot);
        _now = when;
        ++_executed;
        fn();
        return true;
    }
}

std::size_t
EventQueue::liveRecords() const
{
    std::size_t live = 0;
    for (const Record &rec : _slab)
        if (rec.state == Record::State::Pending)
            ++live;
    return live;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (step(limit))
        ++n;
    return n;
}

} // namespace pm::sim
