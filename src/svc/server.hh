/**
 * @file
 * pmsimd's engine: a job-isolated simulation service.
 *
 * The server listens on an AF_UNIX socket and speaks line-delimited
 * JSON. One line = one frame. Client -> server:
 *
 *   {"type":"submit","id":"j1","argv":["--op","latency","--bytes","8"]}
 *   {"type":"ping"}
 *
 * Server -> client:
 *
 *   {"type":"accepted","id":"j1","points":N}
 *   {"type":"rejected","id":"j1","reason":"queue_full"|"draining"|
 *                                          "bad_spec","detail":"..."}
 *   {"type":"row","id":"j1","point":i,"label":"bytes=64",
 *    "data":"<report text>","cached":false}
 *   {"type":"error","id":"j1","point":i,"message":"...","dump":"..."}
 *   {"type":"done","id":"j1","points":N,"failed":F,"cache_hits":H}
 *   {"type":"pong"}
 *
 * Robustness contract (the reason this file exists):
 *
 *  - *Isolation.* Every point runs on a System of its own under a
 *    sim::PanicTrap with a thread-private ambient Context. A panic —
 *    watchdog deadline, strict-soak contract failure, any simulator
 *    invariant — becomes that job's `error` frame, carrying the
 *    panicking machine's own forensic dump. Concurrent jobs are
 *    byte-identical to solo runs (DESIGN.md §10).
 *  - *Backpressure.* Admission is bounded: when the queued-point
 *    backlog would exceed ServerOptions::queueDepth the submit is
 *    rejected with reason "queue_full" — explicitly, immediately —
 *    instead of growing an unbounded queue. Clients retry with
 *    backoff (see svc::Client / pmsimc).
 *  - *Fairness.* Workers pull points round-robin across connections,
 *    so one client's 10000-point sweep cannot starve another's
 *    single-point job.
 *  - *Deadlines.* A job with no watchdog of its own inherits
 *    ServerOptions::defaultDeadlineUs (folded into the spec *before*
 *    cache keying, so keys stay honest). Deadlines are virtual-time:
 *    deterministic, load-independent.
 *  - *Memoization.* Completed rows are cached content-addressed on
 *    the canonical spec hash, byte-compare-verified (svc/cache.hh).
 *  - *Graceful drain.* requestDrain() (pmsimd wires SIGTERM/SIGINT to
 *    it) finishes every accepted job, rejects new submits with reason
 *    "draining", flushes the cache index, then run() returns.
 */

#ifndef PM_SVC_SERVER_HH
#define PM_SVC_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/cache.hh"
#include "svc/jobspec.hh"

namespace pm::svc {

struct ServerOptions
{
    std::string socketPath = "pmsimd.sock";
    unsigned workers = 2;      //!< Simulation worker threads.
    unsigned queueDepth = 64;  //!< Max queued (not yet started) points.
    std::string cacheDir;      //!< Empty = caching disabled.
    double defaultDeadlineUs = 0.0; //!< 0 = no imposed deadline.
    std::FILE *log = nullptr;  //!< nullptr = quiet.
};

class Server
{
  public:
    explicit Server(ServerOptions opt);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket and load the cache index. False + err on failure. */
    [[nodiscard]] bool start(std::string &err);

    /**
     * Serve until a drain completes. `stop` is polled (~4 Hz); the
     * first observation of true triggers requestDrain(). Returns the
     * number of jobs served.
     */
    std::uint64_t run(const std::atomic<bool> &stop);

    /** Begin graceful drain (idempotent, callable from any thread). */
    void requestDrain();

    /** Where the cache index lives ("" when caching is disabled). */
    std::string cacheIndexPath() const;

    const ServerOptions &options() const { return _opt; }

  private:
    struct Conn;

    /** One accepted job: a spec plus its streaming progress. */
    struct Job
    {
        std::string id;
        JobSpec spec;
        JobSpec base; //!< spec minus the sweep (cheap per-point copy).
        Conn *conn = nullptr;
        std::size_t points = 0;
        std::size_t nextPoint = 0;  //!< Next point to hand a worker.
        std::size_t donePoints = 0; //!< Points finished (row or error).
        std::size_t failed = 0;
        std::size_t cacheHits = 0;
    };

    /** One client connection and its share of the scheduler ring. */
    struct Conn
    {
        int fd = -1;
        std::mutex writeMu;
        bool dead = false; //!< Peer hung up; drop further frames.
        std::deque<Job *> jobs; //!< This connection's unfinished jobs.
        std::size_t openJobs = 0;
        std::thread reader;
    };

    void readerLoop(Conn *conn);
    void handleLine(Conn *conn, const std::string &line);
    void workerLoop();
    bool sendFrame(Conn *conn, const std::string &line);
    void runOnePoint(Job *job, std::size_t point);
    void logf(const char *fmt, ...) __attribute__((format(printf, 2, 3)));

    ServerOptions _opt;
    int _listenFd = -1;
    ResultCache _cache;

    std::mutex _mu; //!< Guards all scheduler state below.
    std::condition_variable _workCv;  //!< Workers: points available.
    std::condition_variable _idleCv;  //!< run(): backlog fully drained.
    std::list<std::unique_ptr<Conn>> _conns;
    std::vector<Conn *> _ring; //!< Round-robin order (live conns).
    std::size_t _ringCursor = 0;
    std::list<std::unique_ptr<Job>> _jobs;
    std::size_t _queuedPoints = 0;  //!< Accepted, not yet started.
    std::size_t _readyPoints = 0;   //!< Subset visible to workers.
    std::size_t _runningPoints = 0; //!< Handed to a worker.
    std::uint64_t _jobsServed = 0;
    bool _draining = false;
    bool _shutdown = false; //!< Workers exit; readers stop accepting.

    std::vector<std::thread> _workers;
};

} // namespace pm::svc

#endif // PM_SVC_SERVER_HH
