/**
 * @file
 * pmsimc — submit one job to a running pmsimd and print its rows.
 *
 *   pmsimc [--socket PATH] [--id NAME] [--retries N] [--backoff-ms MS]
 *          -- <pmsim comm flags...>
 *   pmsimc [--socket PATH] --ping
 *
 * --ping round-trips a ping frame and exits 0 when the server answers
 * pong — a readiness probe for scripts that just started pmsimd.
 *
 * Everything after `--` is the job, in exactly the flags `pmsim comm`
 * takes (both sides parse with svc::JobSpec). Rows stream back as the
 * server finishes points and print in point order; a failed point
 * prints its panic message and forensic dump on stderr.
 *
 * Backpressure: a queue_full rejection is retried with exponential
 * backoff (--retries, --backoff-ms). Exit codes: 0 all points
 * succeeded; 1 at least one point failed (or transport error);
 * 2 usage / bad_spec; 3 rejected after retries (queue_full or
 * draining).
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/parse.hh"
#include "svc/client.hh"

namespace {

using namespace pm;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: pmsimc [--socket PATH] [--id NAME] [--retries N]\n"
        "              [--backoff-ms MS] -- <pmsim comm flags...>\n"
        "       pmsimc [--socket PATH] --ping\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath = "pmsimd.sock";
    std::string id = "pmsimc";
    unsigned retries = 5;
    unsigned backoffMs = 50;
    bool pingOnly = false;
    int jobFrom = argc;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--") {
            jobFrom = i + 1;
            break;
        }
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (key == "--socket" && val != nullptr) {
            socketPath = argv[++i];
        } else if (key == "--id" && val != nullptr) {
            id = argv[++i];
        } else if (key == "--retries" && val != nullptr) {
            if (!sim::parse::u32(argv[++i], retries)) {
                std::fprintf(stderr, "pmsimc: bad --retries\n");
                return 2;
            }
        } else if (key == "--backoff-ms" && val != nullptr) {
            if (!sim::parse::u32(argv[++i], backoffMs) ||
                backoffMs == 0) {
                std::fprintf(stderr, "pmsimc: bad --backoff-ms\n");
                return 2;
            }
        } else if (key == "--ping") {
            pingOnly = true;
        } else {
            std::fprintf(stderr, "pmsimc: unknown flag '%s'\n",
                         key.c_str());
            usage();
            return 2;
        }
    }
    if (!pingOnly && jobFrom >= argc) {
        std::fprintf(stderr, "pmsimc: no job given after --\n");
        usage();
        return 2;
    }
    std::vector<std::string> job;
    for (int i = jobFrom; i < argc; ++i)
        job.emplace_back(argv[i]);

    svc::Client client;
    std::string err;
    if (!client.connect(socketPath, err)) {
        std::fprintf(stderr, "pmsimc: %s\n", err.c_str());
        return 1;
    }

    if (pingOnly) {
        if (!client.ping(err)) {
            std::fprintf(stderr, "pmsimc: %s\n", err.c_str());
            return 1;
        }
        return 0;
    }

    std::string reason;
    std::string detail;
    switch (client.submitJob(id, job, retries, backoffMs, reason,
                             detail, err)) {
    case svc::Client::Submit::Accepted:
        break;
    case svc::Client::Submit::Rejected:
        std::fprintf(stderr, "pmsimc: rejected (%s): %s\n",
                     reason.c_str(), detail.c_str());
        return reason == "bad_spec" ? 2 : 3;
    case svc::Client::Submit::Error:
        std::fprintf(stderr, "pmsimc: %s\n", err.c_str());
        return 1;
    }

    // Rows may arrive out of point order (the server's workers finish
    // when they finish); buffer and print in order.
    std::map<std::size_t, std::string> rows;
    std::size_t nextPrint = 0;
    bool anyFailed = false;
    for (;;) {
        sim::json::Value frame;
        if (!client.recv(frame, err)) {
            std::fprintf(stderr, "pmsimc: %s\n", err.c_str());
            return 1;
        }
        const std::string type = frame.str("type");
        if (type == "row" || type == "error") {
            const auto point =
                static_cast<std::size_t>(frame.num("point"));
            if (type == "row") {
                const std::string label = frame.str("label");
                std::string text;
                if (!label.empty())
                    text = "[" + label + "] ";
                text += frame.str("data");
                rows[point] = std::move(text);
            } else {
                anyFailed = true;
                rows[point] = ""; // hole in stdout; details on stderr
                std::fprintf(stderr, "point %zu failed:\n%s\n%s", point,
                             frame.str("message").c_str(),
                             frame.str("dump").c_str());
            }
            while (rows.count(nextPrint) > 0) {
                std::fputs(rows[nextPrint].c_str(), stdout);
                rows.erase(nextPrint);
                ++nextPrint;
            }
            std::fflush(stdout);
        } else if (type == "done") {
            const auto failed =
                static_cast<std::size_t>(frame.num("failed"));
            const auto hits =
                static_cast<std::size_t>(frame.num("cache_hits"));
            if (hits > 0)
                std::fprintf(stderr, "pmsimc: %zu cached point%s\n",
                             hits, hits == 1 ? "" : "s");
            return failed > 0 || anyFailed ? 1 : 0;
        } else {
            std::fprintf(stderr, "pmsimc: unexpected frame '%s'\n",
                         type.c_str());
            return 1;
        }
    }
}
