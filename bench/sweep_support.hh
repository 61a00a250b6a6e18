/**
 * @file
 * Shared plumbing for thread-parallel benches: every figure/ablation
 * bench runs its measurement points through pm::sim::sweep so that
 * `<bench> --jobs N` fans fully isolated Systems out over N worker
 * threads with byte-identical output to the sequential run.
 *
 * The benches format each point's output into a string (or collect
 * raw numbers) inside the point callable and print only after the
 * sweep joins — stdout stays strictly in work-list order no matter
 * which worker finished first.
 */

#ifndef PM_SWEEP_SUPPORT_HH
#define PM_SWEEP_SUPPORT_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/parse.hh"
#include "sim/sweep.hh"

namespace pm::benchsup {

/**
 * Parse `--jobs N` / `--jobs=N` from a bench's argv (default 1).
 * Strict: `--jobs garbage` used to strtoul to 0 — which means "one
 * worker per hardware thread" — silently turning a typo into a
 * different execution. Non-numeric or trailing-junk values are a
 * usage error (exit 2).
 */
inline unsigned
jobsFromArgv(int argc, char **argv)
{
    const auto parse = [](const char *v) -> unsigned {
        unsigned jobs = 0;
        if (!sim::parse::u32(v, jobs)) {
            std::fprintf(stderr,
                         "--jobs expects an unsigned number, got '%s'\n",
                         v);
            // pmlint: abort-ok(usage error before any simulation exists)
            std::exit(2);
        }
        return jobs;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            return parse(argv[i + 1]);
        if (std::strncmp(argv[i], "--jobs=", 7) == 0)
            return parse(argv[i] + 7);
    }
    return 1;
}

/** Harness options for a bench: --jobs from argv, quiet workers. */
inline sim::sweep::Options
options(int argc, char **argv, std::uint64_t seed = 0)
{
    sim::sweep::Options opt;
    opt.jobs = jobsFromArgv(argc, argv);
    opt.seed = seed;
    opt.inform = false;
    return opt;
}

inline void appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** printf-append into a std::string (points render off-thread). */
inline void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/**
 * Print a string-row report in work-list order. If any point failed,
 * its row is withheld, the lowest-index failure (message + forensic
 * dump) goes to stderr, and the nonzero exit propagates the failure
 * to the caller/CI.
 */
inline int
emitRows(const sim::sweep::Report<std::string> &report)
{
    std::size_t nextFail = 0;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        if (nextFail < report.failures.size() &&
            report.failures[nextFail].index == i) {
            ++nextFail;
            continue;
        }
        std::fputs(report.results[i].c_str(), stdout);
    }
    if (!report.ok()) {
        const auto &f = report.firstFailure();
        std::fprintf(stderr, "sweep point %zu failed:\n%s\n%s",
                     f.index, f.message.c_str(), f.dump.c_str());
        return 1;
    }
    return 0;
}

/**
 * For benches that post-process numeric results: bail out on the
 * first failure (stderr + nonzero) before the caller touches any
 * result slot.
 */
template <typename R>
inline int
checkFailures(const sim::sweep::Report<R> &report)
{
    if (report.ok())
        return 0;
    const auto &f = report.firstFailure();
    std::fprintf(stderr, "sweep point %zu failed:\n%s\n%s", f.index,
                 f.message.c_str(), f.dump.c_str());
    return 1;
}

} // namespace pm::benchsup

#endif // PM_SWEEP_SUPPORT_HH
