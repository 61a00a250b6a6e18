/**
 * @file
 * Content-addressed result cache for the simulation service.
 *
 * A completed measurement point is stored under the FNV-1a hash of
 * its canonical spec (JobSpec::canonical). Because the simulator is
 * byte-identically deterministic (DESIGN.md §10), a cached row is
 * *indistinguishable* from re-running the point — which is the only
 * reason a result cache is sound at all.
 *
 * Collision honesty: a 64-bit hash can collide, so every entry keeps
 * the canonical spec it was stored under and a hit is granted only
 * after a byte-compare. A mismatch counts as a collision and a miss,
 * never a wrong answer.
 *
 * Error results are never cached: a panic dump describes one run's
 * forensics, and callers expect fresh forensics per failure.
 */

#ifndef PM_SVC_CACHE_HH
#define PM_SVC_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace pm::svc {

/** Thread-safe in-memory cache with a single-file on-disk index. */
class ResultCache
{
  public:
    /** Point counters; read them via snapshot(). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t collisions = 0;
        std::uint64_t entries = 0;
    };

    /**
     * Look `key` up; a hit requires the stored canonical spec to
     * byte-compare equal to `canonical`. On hit, `row` receives the
     * cached report text.
     */
    bool lookup(std::uint64_t key, const std::string &canonical,
                std::string &row);

    /** Store a completed row (first writer wins on collision). */
    void insert(std::uint64_t key, const std::string &canonical,
                const std::string &row);

    Stats snapshot() const;

    /**
     * Load the index file at `path` (exact-byte-length record format;
     * see cache.cc). Missing file is a clean empty cache; a corrupt
     * file is an error and leaves the cache empty — stale state must
     * not masquerade as results.
     */
    [[nodiscard]] bool load(const std::string &path, std::string &err);

    /** Write every entry to `path` (atomic via rename). */
    [[nodiscard]] bool flush(const std::string &path,
                             std::string &err) const;

  private:
    struct Entry
    {
        std::string canonical;
        std::string row;
    };

    mutable std::mutex _mu;
    std::map<std::uint64_t, Entry> _entries;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _collisions = 0;
};

} // namespace pm::svc

#endif // PM_SVC_CACHE_HH
