/**
 * @file
 * Extension bench: load-generates the pmsimd simulation service and
 * verifies its robustness contract under concurrent clients with
 * *injected failures* — some jobs panic (strict-soak contract
 * violation), some wedge behind a dead link until their virtual-time
 * deadline trips. The server must:
 *
 *  - survive every injected failure (each becomes that job's own
 *    `error` frame with a forensic dump; the service keeps serving),
 *  - return byte-identical rows for identical specs regardless of
 *    which client/worker ran them (the determinism contract that makes
 *    the result cache sound),
 *  - serve a verified cache hit on resubmission,
 *  - and drain gracefully when asked.
 *
 * By default the bench hosts the Server in-process (so it runs
 * standalone and can observe the drain). With --socket PATH it drives
 * an externally started pmsimd instead — that is how the CI
 * service-smoke job uses it, with drain/exit checked from the outside.
 *
 * Results go to BENCH_service.json. Exit is nonzero if the server
 * misbehaves in any of the ways listed above.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "svc/client.hh"
#include "svc/server.hh"

namespace {

using namespace pm;

struct BenchOptions
{
    std::string socketPath; //!< Empty = self-host a Server.
    unsigned clients = 4;
    unsigned jobsPerClient = 6;
    unsigned workers = 4;     //!< Self-hosted server only.
    unsigned queueDepth = 32; //!< Self-hosted server only.
    bool injectPanic = true;  //!< One strict-soak panic job (~5 s).
};

/** One job in the deterministic load mix. */
struct JobKind
{
    const char *name;
    std::vector<std::string> argv;
    bool expectError;     //!< Exactly one error frame expected.
    const char *errorNeedle; //!< Substring the error must carry.
};

/**
 * The mix rotates per (client, j): mostly healthy measurements whose
 * specs repeat across clients (cache hits and the byte-identity
 * check), plus a deadline-wedged soak every 3rd job. The single
 * strict-panic job (slow: it simulates the sender's full give-up) is
 * injected once, as client 0's job 1.
 */
JobKind
jobKind(const BenchOptions &opt, unsigned client, unsigned j)
{
    if (opt.injectPanic && client == 0 && j == 1)
        return {"panic",
                {"--op", "soak", "--count", "1", "--fault-drop", "1.0",
                 "--strict"},
                true,
                "strict soak failed"};
    if (j % 3 == 2)
        return {"wedge",
                {"--op", "soak", "--bytes", "256", "--count", "8",
                 "--fault-link-down", "0:1000000000", "--deadline-us",
                 "500"},
                true,
                "watchdog tripped"};
    const char *bytes[] = {"8", "64", "512", "4096"};
    return {"healthy",
            {"--op", "latency", "--bytes", bytes[(client + j) % 4]},
            false,
            ""};
}

struct ClientTally
{
    unsigned accepted = 0;
    unsigned rejected = 0;
    unsigned rows = 0;
    unsigned cachedRows = 0;
    unsigned errors = 0;
    unsigned expectedErrors = 0;
    std::vector<std::string> problems;
};

/** spec key (argv joined) -> every row byte-string any client saw. */
std::mutex gRowsMu;
std::map<std::string, std::vector<std::string>> gRowsBySpec;

std::string
specKey(const std::vector<std::string> &argv)
{
    std::string key;
    for (const auto &a : argv) {
        key += a;
        key += ' ';
    }
    return key;
}

void
runClient(const BenchOptions &opt, const std::string &socketPath,
          unsigned client, ClientTally &tally)
{
    svc::Client conn;
    std::string err;
    if (!conn.connect(socketPath, err)) {
        tally.problems.push_back("connect: " + err);
        return;
    }
    for (unsigned j = 0; j < opt.jobsPerClient; ++j) {
        const JobKind kind = jobKind(opt, client, j);
        char id[64];
        std::snprintf(id, sizeof id, "c%u-j%u-%s", client, j,
                      kind.name);
        std::string reason;
        std::string detail;
        const auto verdict =
            conn.submitJob(id, kind.argv, /*retries=*/8,
                           /*backoffMs=*/10, reason, detail, err);
        if (verdict == svc::Client::Submit::Error) {
            tally.problems.push_back(std::string(id) + ": " + err);
            return;
        }
        if (verdict == svc::Client::Submit::Rejected) {
            // Backpressure is allowed (the queue is sized to be hit
            // under this load); a bad_spec here is a bench bug.
            ++tally.rejected;
            if (reason != "queue_full")
                tally.problems.push_back(std::string(id) +
                                         ": rejected " + reason + ": " +
                                         detail);
            continue;
        }
        ++tally.accepted;
        if (kind.expectError)
            ++tally.expectedErrors;
        bool sawExpectedError = false;
        for (bool done = false; !done;) {
            sim::json::Value frame;
            if (!conn.recv(frame, err)) {
                tally.problems.push_back(std::string(id) +
                                         ": recv: " + err);
                return;
            }
            const std::string type = frame.str("type");
            if (type == "row") {
                ++tally.rows;
                const sim::json::Value *cached = frame.find("cached");
                if (cached != nullptr && cached->boolean)
                    ++tally.cachedRows;
                std::lock_guard<std::mutex> lock(gRowsMu);
                gRowsBySpec[specKey(kind.argv)].push_back(
                    frame.str("data"));
            } else if (type == "error") {
                ++tally.errors;
                const std::string message = frame.str("message");
                if (kind.expectError &&
                    message.find(kind.errorNeedle) != std::string::npos)
                    sawExpectedError = true;
                else
                    tally.problems.push_back(std::string(id) +
                                             ": unexpected error: " +
                                             message);
                if (frame.str("dump").find("=== health dump") ==
                    std::string::npos)
                    tally.problems.push_back(std::string(id) +
                                             ": error without dump");
            } else if (type == "done") {
                done = true;
            } else {
                tally.problems.push_back(std::string(id) +
                                         ": bad frame " + type);
                return;
            }
        }
        if (kind.expectError && !sawExpectedError)
            tally.problems.push_back(std::string(id) +
                                     ": expected \"" +
                                     kind.errorNeedle +
                                     "\" error never arrived");
    }
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ext_service [--socket PATH] [--clients N]\n"
        "                   [--jobs-per-client M] [--workers W]\n"
        "                   [--queue-depth D] [--no-panic-job]\n"
        "  --socket PATH   drive an external pmsimd (default:\n"
        "                  self-host a Server in-process)\n"
        "  --no-panic-job  skip the slow strict-soak panic job\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&]() {
            if (val == nullptr) {
                usage();
                // pmlint: abort-ok(usage error before any simulation)
                std::exit(2);
            }
            ++i;
            return val;
        };
        bool ok = true;
        if (key == "--socket")
            opt.socketPath = need();
        else if (key == "--clients")
            ok = sim::parse::u32(need(), opt.clients) && opt.clients > 0;
        else if (key == "--jobs-per-client")
            ok = sim::parse::u32(need(), opt.jobsPerClient) &&
                 opt.jobsPerClient > 0;
        else if (key == "--workers")
            ok = sim::parse::u32(need(), opt.workers) && opt.workers > 0;
        else if (key == "--queue-depth")
            ok = sim::parse::u32(need(), opt.queueDepth) &&
                 opt.queueDepth > 0;
        else if (key == "--no-panic-job")
            opt.injectPanic = false;
        else {
            usage();
            return 2;
        }
        if (!ok) {
            std::fprintf(stderr, "ext_service: bad value for %s\n",
                         key.c_str());
            return 2;
        }
    }

    // ---- Optionally self-host the service. ----
    const bool selfHost = opt.socketPath.empty();
    std::unique_ptr<svc::Server> server;
    std::thread serverThread;
    std::atomic<bool> stopServer{false};
    std::uint64_t served = 0;
    if (selfHost) {
        svc::ServerOptions so;
        so.socketPath = "ext_service.sock";
        so.workers = opt.workers;
        so.queueDepth = opt.queueDepth;
        so.cacheDir = ".";
        opt.socketPath = so.socketPath;
        server = std::make_unique<svc::Server>(so);
        std::string err;
        if (!server->start(err)) {
            std::fprintf(stderr, "ext_service: %s\n", err.c_str());
            return 1;
        }
        serverThread = std::thread(
            [&] { served = server->run(stopServer); });
    }

    std::printf("== ext_service: %u clients x %u jobs (%s%s) ==\n",
                opt.clients, opt.jobsPerClient,
                selfHost ? "self-hosted" : "external",
                opt.injectPanic ? ", panic+deadline jobs injected"
                                : ", deadline jobs injected");

    // ---- The load. ----
    // pmlint: banned-ok(service throughput is wall-clock by nature)
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ClientTally> tallies(opt.clients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < opt.clients; ++c)
        threads.emplace_back([&, c] {
            runClient(opt, opt.socketPath, c, tallies[c]);
        });
    for (auto &t : threads)
        t.join();
    // pmlint: banned-ok(service throughput is wall-clock by nature)
    const auto t1 = std::chrono::steady_clock::now();
    const double wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    // ---- Tally + verify. ----
    ClientTally total;
    std::vector<std::string> problems;
    for (unsigned c = 0; c < opt.clients; ++c) {
        total.accepted += tallies[c].accepted;
        total.rejected += tallies[c].rejected;
        total.rows += tallies[c].rows;
        total.cachedRows += tallies[c].cachedRows;
        total.errors += tallies[c].errors;
        total.expectedErrors += tallies[c].expectedErrors;
        for (const auto &p : tallies[c].problems)
            problems.push_back("client " + std::to_string(c) + " " + p);
    }
    if (total.errors != total.expectedErrors)
        problems.push_back(
            "error frames (" + std::to_string(total.errors) +
            ") != injected failures (" +
            std::to_string(total.expectedErrors) + ")");

    // Byte-identity: every row any client got for a given spec must
    // be the same bytes — cached, fresh, whichever worker ran it.
    unsigned distinctSpecs = 0;
    for (const auto &[key, rows] : gRowsBySpec) {
        ++distinctSpecs;
        for (const auto &row : rows)
            if (row != rows.front()) {
                problems.push_back("rows diverge for spec: " + key);
                break;
            }
    }

    // The server survived the injected failures: it must still answer.
    {
        svc::Client probe;
        std::string err;
        if (!probe.connect(opt.socketPath, err) || !probe.ping(err))
            problems.push_back("server unresponsive after load: " + err);
    }

    // ---- Drain (self-hosted only; CI checks external drain itself). ----
    if (selfHost) {
        stopServer.store(true);
        serverThread.join();
        if (served != total.accepted)
            problems.push_back(
                "served " + std::to_string(served) + " jobs, accepted " +
                std::to_string(total.accepted));
        std::remove(server->cacheIndexPath().c_str());
        std::remove(opt.socketPath.c_str());
    }

    const double rowRate =
        wallMs > 0.0 ? 1000.0 * total.rows / wallMs : 0.0;
    std::printf("  accepted %u  backpressured %u  rows %u "
                "(%u cached)  errors %u/%u expected\n",
                total.accepted, total.rejected, total.rows,
                total.cachedRows, total.errors, total.expectedErrors);
    std::printf("  %.1f ms wall, %.1f rows/s, %u distinct specs\n",
                wallMs, rowRate, distinctSpecs);
    for (const auto &p : problems)
        std::fprintf(stderr, "ext_service: FAIL: %s\n", p.c_str());

    using sim::json::Value;
    Value doc = Value::makeObj();
    doc.set("clients", Value::makeNum(opt.clients))
        .set("jobs_per_client", Value::makeNum(opt.jobsPerClient))
        .set("self_hosted", Value::makeBool(selfHost))
        .set("accepted", Value::makeNum(total.accepted))
        .set("backpressured", Value::makeNum(total.rejected))
        .set("rows", Value::makeNum(total.rows))
        .set("cached_rows", Value::makeNum(total.cachedRows))
        .set("injected_failures", Value::makeNum(total.expectedErrors))
        .set("error_frames", Value::makeNum(total.errors))
        .set("distinct_specs", Value::makeNum(distinctSpecs))
        .set("wall_ms", Value::makeNum(wallMs))
        .set("rows_per_s", Value::makeNum(rowRate))
        .set("problems",
             Value::makeNum(static_cast<double>(problems.size())));
    if (!sim::json::writeFile("BENCH_service.json", doc)) {
        std::fprintf(stderr,
                     "ext_service: cannot write BENCH_service.json\n");
        return 1;
    }
    std::printf("  wrote BENCH_service.json\n");
    return problems.empty() ? 0 : 1;
}
