/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own primitives —
 * the event queue, the cache model, the resource calendars, and the
 * CRC — so regressions in simulator performance (host-side) are
 * visible independently of the architecture experiments.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/resource.hh"
#include "ni/crc32.hh"
#include "sim/event.hh"
#include "sim/random.hh"

namespace {

using namespace pm;

/** Whatever handle type schedule() returns (kernel-version agnostic). */
using EventHandle = decltype(std::declval<sim::EventQueue &>().schedule(
    Tick{0}, std::function<void()>{}));

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i)
            // pmlint: capture-ok(q.run() drains before this frame unwinds)
            (void)q.schedule(static_cast<Tick>(i * 7 % 1000), [&] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

/**
 * The PmComm driver pattern: a deep queue of pending events where most
 * scheduled events are superseded (cancelled and rescheduled) before
 * they fire. The schedule:cancel ratio is ~2:1 — every pending event is
 * cancelled and re-posted once — against `range(0)` pending events.
 */
void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        std::vector<EventHandle> ids;
        ids.reserve(n);
        for (int i = 0; i < n; ++i)
            ids.push_back(q.schedule(
                static_cast<Tick>(1000 + i),
                // pmlint: capture-ok(q.run() drains before this frame unwinds)
                [&] { ++sink; }));
        // Supersede every pending event, driver-style.
        for (int i = 0; i < n; ++i) {
            benchmark::DoNotOptimize(q.cancel(ids[i]));
            ids[i] = q.schedule(
                static_cast<Tick>(2000 + i),
                // pmlint: capture-ok(q.run() drains before this frame unwinds)
                [&] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    // Each pending event is scheduled twice, cancelled once, run once.
    state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1024)->Arg(10000);

/**
 * Steady state of a long whole-system run: `range(0)` periodic
 * components, each rescheduling itself, with a sprinkle of one-shot
 * events — no queue growth, pure per-event kernel overhead.
 */
void
BM_EventQueuePeriodicSteadyState(benchmark::State &state)
{
    const int components = static_cast<int>(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    std::function<void(int)> tickFn = [&](int i) {
        ++sink;
        // pmlint: capture-ok(tickFn outlives the queue it is scheduled on)
        (void)q.scheduleIn(static_cast<Tick>(50 + i % 17), [&tickFn, i] {
            tickFn(i);
        });
    };
    for (int i = 0; i < components; ++i)
        // pmlint: capture-ok(tickFn outlives the queue it is scheduled on)
        (void)q.schedule(static_cast<Tick>(i % 31), [&tickFn, i] { tickFn(i); });
    for (auto _ : state) {
        q.step();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePeriodicSteadyState)->Arg(64)->Arg(4096);

/**
 * The schedule mix of a fabric run (ring-4cluster, 16 wormhole
 * streams across two crossbar levels), replayed on `range(0)` pending
 * events that each reschedule themselves: 26% at now(), ~10% at
 * 16-64 ns, ~63% at 130-260 ns and ~1% at 1-100 us (the PmComm
 * timers). Unlike the picosecond-spaced cases above, the deltas spread
 * over the event queue's whole near horizon.
 */
void
BM_EventQueueFabricMix(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    std::vector<Tick> deltas(4096);
    sim::SplitMix64 rng(101);
    for (Tick &d : deltas) {
        const std::uint64_t r = rng.below(100);
        if (r < 26)
            d = 0;
        else if (r < 36)
            d = 16 * kTicksPerNs + rng.below(48 * kTicksPerNs);
        else if (r < 99)
            d = 130 * kTicksPerNs + rng.below(130 * kTicksPerNs);
        else
            d = kTicksPerUs + rng.below(99 * kTicksPerUs);
    }
    sim::EventQueue q;
    std::size_t next = 0;
    std::uint64_t sink = 0;
    std::function<void()> fire = [&] {
        ++sink;
        // pmlint: capture-ok(fire outlives the queue it is scheduled on)
        (void)q.scheduleIn(deltas[next++ % deltas.size()], [&fire] { fire(); });
    };
    for (int i = 0; i < depth; ++i)
        // pmlint: capture-ok(fire outlives the queue it is scheduled on)
        (void)q.scheduleIn(deltas[next++ % deltas.size()], [&fire] { fire(); });
    for (auto _ : state) {
        q.step();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueFabricMix)->Arg(270);

void
BM_CacheHitAccess(benchmark::State &state)
{
    struct NullBus : mem::BusTarget
    {
        mem::BusResult
        request(const mem::BusReq &, Tick now) override
        {
            return mem::BusResult{now + 100000, false, false};
        }
    } bus;
    mem::CacheParams p;
    p.sizeBytes = 32 * 1024;
    p.assoc = 8;
    p.lineSize = 64;
    mem::Cache cache(p, &bus);
    // Warm one line.
    cache.access(mem::MemReq{0x1000, false, 0}, 0);
    Tick t = 1000000;
    for (auto _ : state) {
        auto r = cache.access(mem::MemReq{0x1000, false, 0}, t);
        benchmark::DoNotOptimize(r);
        t += 1000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitAccess);

void
BM_ResourceCalendarAcquire(benchmark::State &state)
{
    mem::Resource r;
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(r.acquire(t, 100));
        t += 150;
        if ((t % (1 << 20)) < 150)
            r.pruneBelow(t - 1000);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceCalendarAcquire);

/**
 * NodeBus::pioBeat's shape, the calendar traffic of a PIO message
 * stream: one address-phase cycle, then one data beat held on the
 * CPU's switch port and the shared I/O port together. Two CPUs take
 * turns with 32-beat bursts (one link-interface FIFO) from their own
 * clocks, so each backfills the gaps the other left on the shared
 * calendars, and the floor rises to the slower CPU after every burst.
 */
void
BM_ResourcePioPattern(benchmark::State &state)
{
    constexpr Tick kCycle = 16667; // One 60 MHz bus cycle.
    constexpr unsigned kBurst = 32;
    mem::Resource addr, io, port[2];
    Tick now[2] = {0, kCycle / 2};
    unsigned beat = 0;
    for (auto _ : state) {
        const unsigned c = (beat / kBurst) & 1;
        const Tick a = addr.acquire(now[c], kCycle);
        now[c] = mem::Resource::acquirePair(port[c], io, a + kCycle,
                                            kCycle) + kCycle;
        benchmark::DoNotOptimize(now[c]);
        if (++beat % kBurst == 0) {
            const Tick floor = std::min(now[0], now[1]);
            addr.pruneBelow(floor);
            io.pruneBelow(floor);
            port[0].pruneBelow(floor);
            port[1].pruneBelow(floor);
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourcePioPattern);

void
BM_Crc32Words(benchmark::State &state)
{
    sim::SplitMix64 rng(1);
    std::vector<std::uint64_t> words(1024);
    for (auto &w : words)
        w = rng.next();
    for (auto _ : state) {
        ni::Crc32 crc;
        for (auto w : words)
            crc.update(w);
        benchmark::DoNotOptimize(crc.value());
    }
    state.SetBytesProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_Crc32Words);

} // namespace

BENCHMARK_MAIN();
