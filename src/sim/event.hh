/**
 * @file
 * The discrete-event kernel.
 *
 * Every timed component of the PowerMANNA simulator — processors, link
 * interfaces, crossbars, transceivers — schedules callbacks on a single
 * EventQueue. Events at the same tick are delivered in FIFO order of
 * scheduling (a deterministic tie-break that makes whole-system runs
 * reproducible bit-for-bit).
 *
 * Performance model: scheduling, stepping and cancelling are
 * allocation-free in steady state. Event records live in a slab that is
 * recycled through a free list; callbacks are stored in a small-buffer
 * callable (EventFn) so the common component lambdas (captures of
 * `this` plus a few words) never touch the heap. The ordering structure
 * holds only POD entries that name a slab slot, in two tiers:
 *  - near: a timing wheel of kBuckets buckets, each kBucketTicks
 *    (4.096 ns) wide, for events that fall less than one horizon
 *    (kBuckets * kBucketTicks ticks, about 1.05 us) past now()'s
 *    bucket. A bucket is a ring of up to kBucketSlots 8-byte entries
 *    sorted by (when, seq) and popped from its earliest end; an
 *    occupancy bitmap finds the earliest bucket with std::countr_zero.
 *    A new event is the latest of its tick, so it lands behind every
 *    entry of its bucket that is not later than it: schedule and step
 *    cost O(1) plus the entries it passes, independent of queue depth;
 *  - far: a binary heap of 24-byte {when, seq, slot} entries, O(log n),
 *    for events past the horizon and for the overflow of a full bucket.
 * step() takes the smaller of the two tier heads by (when, seq), so the
 * execution order is exactly that of a single heap. Cancellation
 * tombstones the slab record in O(1) and the entry is dropped lazily
 * when it reaches the head of its tier.
 */

#ifndef PM_SIM_EVENT_HH
#define PM_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace pm::sim {

/**
 * A move-only callable of signature void() with a small-buffer
 * optimization sized for the simulator's component lambdas.
 *
 * Captures up to kInlineBytes (with at most kInlineAlign — pointer —
 * alignment and a noexcept move constructor) are stored inline;
 * anything larger or more aligned falls back to a single heap
 * allocation. Unlike std::function it is move-only, so callables
 * holding move-only state schedule fine.
 */
class EventFn
{
  public:
    /**
     * Inline capture budget; fits `this` + several words/a Symbol.
     * Sized so a slab Record packs into one 64-byte cache line.
     */
    static constexpr std::size_t kInlineBytes = 40;

    /** Max alignment of inline captures (others go to the heap). */
    static constexpr std::size_t kInlineAlign = alignof(void *);

    EventFn() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_r_v<void, D &>>>
    EventFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(_storage)) D(std::forward<F>(f));
            _ops = &inlineOps<D>;
        } else {
            D *heap = new D(std::forward<F>(f));
            std::memcpy(_storage, &heap, sizeof(heap));
            _ops = &heapOps<D>;
        }
    }

    EventFn(EventFn &&other) noexcept { moveFrom(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return _ops != nullptr; }

    /** Invoke the callable; undefined when empty. */
    void operator()() { _ops->invoke(_storage); }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (_ops) {
            _ops->destroy(_storage);
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *storage);
        void (*relocate)(void *dst, void *src); //!< Move + destroy src.
        void (*destroy)(void *storage);
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *s) { (*std::launder(reinterpret_cast<D *>(s)))(); },
        [](void *dst, void *src) {
            D *from = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        [](void *s) { std::launder(reinterpret_cast<D *>(s))->~D(); },
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *s) {
            D *heap;
            std::memcpy(&heap, s, sizeof(heap));
            (*heap)();
        },
        [](void *dst, void *src) { std::memcpy(dst, src, sizeof(D *)); },
        [](void *s) {
            D *heap;
            std::memcpy(&heap, s, sizeof(heap));
            delete heap;
        },
    };

    void
    moveFrom(EventFn &other) noexcept
    {
        _ops = other._ops;
        if (_ops) {
            _ops->relocate(_storage, other._storage);
            other._ops = nullptr;
        }
    }

    alignas(kInlineAlign) unsigned char _storage[kInlineBytes];
    const Ops *_ops = nullptr;
};

/**
 * Handle to a scheduled event, returned by EventQueue::schedule().
 *
 * A handle names one specific scheduling: it pairs the slab slot the
 * event record occupies with the event's globally unique monotonic
 * sequence number. Because the sequence number is never reused, a
 * handle can never alias a different (later) event even after its slot
 * is recycled — a stale handle is simply rejected by cancel() and
 * scheduled().
 *
 * Validity: a default-constructed handle is invalid. A handle is *live*
 * from schedule() until the event executes or is cancelled; after that
 * cancel()/scheduled() return false forever.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True unless default-constructed (says nothing about pending). */
    bool valid() const { return _slot != kInvalidSlot; }

    /** Monotonic schedule-order id (FIFO tie-break rank); 0 if invalid. */
    std::uint64_t id() const { return _seq; }

    friend bool
    operator==(const EventHandle &a, const EventHandle &b)
    {
        return a._slot == b._slot && a._seq == b._seq;
    }

    friend bool
    operator!=(const EventHandle &a, const EventHandle &b)
    {
        return !(a == b);
    }

  private:
    friend class EventQueue;

    static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

    EventHandle(std::uint32_t slot, std::uint64_t seq)
        : _slot(slot), _seq(seq)
    {}

    std::uint32_t _slot = kInvalidSlot;
    std::uint64_t _seq = 0;
};

/**
 * A time-ordered queue of callbacks; the heart of the simulator.
 *
 * Components capture `this` in lambdas and schedule them; the queue owns
 * nothing beyond the callbacks. The queue is not thread-safe — the whole
 * simulation is single-threaded and deterministic by construction.
 *
 * Cancellation contract:
 *  - cancel(h) returns true iff `h` names a still-pending event, which
 *    is then guaranteed never to run. It returns false — with no side
 *    effects — for invalid handles, already-cancelled events,
 *    already-executed events, and stale handles whose slot has been
 *    recycled by a later scheduling.
 *  - pending() counts exactly the live (scheduled, not yet executed,
 *    not cancelled) events and can never underflow; empty() is
 *    equivalent to pending() == 0.
 *
 * Time contract: now() is monotonically non-decreasing. run(limit)
 * executes events with when <= limit in (when, schedule-order) order;
 * on return now() equals the `when` of the last executed event (or is
 * unchanged if none ran) — in particular it never exceeds `limit`, and
 * draining cancelled tombstones never advances it.
 */
class EventQueue
{
  public:
    /** Near-tier bucket width: 2^kBucketShift ticks (4.096 ns). */
    static constexpr unsigned kBucketShift = 12;
    static constexpr Tick kBucketTicks = Tick{1} << kBucketShift;

    /** Near-tier buckets; the horizon is kBuckets * kBucketTicks. */
    static constexpr unsigned kBuckets = 256;

    /** Entries a bucket holds before scheduling spills to the heap. */
    static constexpr unsigned kBucketSlots = 32;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * [[nodiscard]]: silently dropping the handle is almost always a
     * bug — the caller loses its only way to cancel or observe the
     * event (the PR 1 overhaul existed to remove that bug class).
     * Genuine fire-and-forget scheduling states so with a (void) cast.
     *
     * @param when Absolute time; must be >= now().
     * @param fn Callback to run.
     * @return Live handle for the scheduling (usable with cancel()).
     */
    [[nodiscard]] EventHandle schedule(Tick when, EventFn fn);

    /** Schedule a callback `delta` ticks in the future. */
    [[nodiscard]] EventHandle
    scheduleIn(Tick delta, EventFn fn)
    {
        return schedule(_now + delta, std::move(fn));
    }

    /**
     * Cancel a previously scheduled event.
     * @return true iff the event was pending and is now guaranteed not
     *         to run (see the cancellation contract above).
     */
    bool cancel(EventHandle h);

    /** True while `h` names a pending (not executed/cancelled) event. */
    [[nodiscard]] bool
    scheduled(EventHandle h) const
    {
        return h._slot < _slab.size() &&
               _slab[h._slot].state == Record::State::Pending &&
               _slab[h._slot].seq == h._seq;
    }

    /** Number of pending (non-cancelled) events. */
    [[nodiscard]] std::size_t pending() const
    {
        return _nearSize + _heap.size() - _cancelled;
    }

    /** True when no runnable events remain. */
    [[nodiscard]] bool empty() const { return pending() == 0; }

    /**
     * Run until the queue drains or `limit` ticks is reached.
     * @param limit Stop before executing any event scheduled after this
     *        time; kTickNever means run to exhaustion.
     * @return Number of events executed.
     */
    std::uint64_t run(Tick limit = kTickNever);

    /**
     * Execute exactly one event if one is pending within `limit`.
     * @return true if an event was executed.
     */
    bool step(Tick limit = kTickNever);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return _executed; }

    /** Total events cancelled over the queue's lifetime. */
    std::uint64_t cancelledTotal() const { return _cancelledTotal; }

    /** Slab slots currently allocated (capacity watermark, for tests). */
    std::size_t slabSize() const { return _slab.size(); }

    /**
     * Count Pending slab records by walking the whole slab — O(slab).
     * An audit-time cross-check against pending(): the two disagreeing
     * means the tiers and the slab have lost track of each other. Not
     * for hot paths.
     */
    std::size_t liveRecords() const;

  private:
    /** Slab-resident event record; recycled through a free list. */
    struct Record
    {
        enum class State : std::uint8_t {
            Free, //!< On the free list; seq is the *last* occupant's.
            Pending, //!< Scheduled, will run unless cancelled.
            Cancelled, //!< Tombstone; dropped when it surfaces.
        };

        std::uint64_t seq = 0;
        std::uint32_t nextFree = kNoFree;
        State state = State::Free;
        EventFn fn;
    };
    static_assert(sizeof(Record) <= 64,
                  "slab records should fit one cache line");

    /** Far-tier (heap) entry; the callback stays in the slab. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq; //!< FIFO tie-break.
        std::uint32_t slot;
    };

    /** Heap comparator: the earliest (when, seq) sits on top. */
    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * Near-tier entry. The bucket supplies the high bits of `when` and
     * the slab record the seq, so 8 bytes carry the rest.
     */
    struct NearEntry
    {
        std::uint32_t offset; //!< when % kBucketTicks.
        std::uint32_t slot;
    };

    /** A ring of kBucketSlots entries sorted by (when, seq). */
    struct Bucket
    {
        std::uint8_t head; //!< Ring index of the earliest entry.
        std::uint8_t fill;
    };

    static constexpr unsigned kNoBucket = kBuckets;
    static constexpr unsigned kOccupancyWords = kBuckets / 64;
    static_assert(kBuckets % 64 == 0 && (kBuckets & (kBuckets - 1)) == 0,
                  "the occupancy scan needs a power-of-two word multiple");
    static_assert(kBucketShift <= 32, "offsets are 32-bit");
    static_assert((kBucketSlots & (kBucketSlots - 1)) == 0 &&
                      kBucketSlots <= 128,
                  "bucket rings index with a mask and count in 8 bits");

    static constexpr std::uint32_t kNoFree = 0xffffffffu;

    std::uint32_t allocRecord();
    void freeRecord(std::uint32_t slot);
    bool pushNear(Tick when, std::uint32_t slot);
    unsigned nearHeadBucket() const;
    Tick nearWhen(unsigned bucket, std::uint32_t offset) const;

    Tick _now = 0;
    std::uint64_t _nextSeq = 1; //!< 0 is reserved for invalid handles.
    std::uint64_t _executed = 0;
    std::uint64_t _cancelledTotal = 0;
    std::size_t _cancelled = 0; //!< Tombstones still in either tier.

    /** Near tier: per-bucket ring state; the rings are _wheel. */
    Bucket _buckets[kBuckets] = {};
    std::uint64_t _occupied[kOccupancyWords] = {}; //!< Bit b: fill > 0.
    std::size_t _nearSize = 0;

    /** Far tier: a binary heap, earliest (when, seq) on top. */
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> _heap;
    std::vector<Record> _slab;
    std::uint32_t _freeHead = kNoFree;

    /**
     * The near tier's rings, kBucketSlots entries per bucket, stored
     * inline. Bucket b holds the events whose bucket number (when >>
     * kBucketShift) is b modulo kBuckets; every one lies within one
     * horizon of now()'s bucket. Only entries a ring's head and fill
     * cover are ever read, so the array has no initialiser: a
     * default-initialised queue (`EventQueue q;`, or a member without
     * an initialiser) never writes its 64 KB until events arrive.
     * Value-initialising one (`EventQueue q{};`) would zero it.
     */
    NearEntry _wheel[kBuckets * kBucketSlots];
};

} // namespace pm::sim

#endif // PM_SIM_EVENT_HH
