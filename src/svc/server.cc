#include "svc/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstring>

#include "sim/context.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"
#include "sim/json.hh"

namespace pm::svc {

namespace {

/** Thunk context bridging runPoint into sweep::detail::runTrapped. */
struct PointCtx
{
    const JobSpec *spec;
    std::string out;
};

void
pointThunk(void *ctx, const sim::sweep::Point &)
{
    PointCtx &c = *static_cast<PointCtx *>(ctx);
    c.out = runPoint(*c.spec);
}

} // namespace

Server::Server(ServerOptions opt) : _opt(std::move(opt)) {}

Server::~Server()
{
    if (_listenFd >= 0) {
        ::close(_listenFd);
        ::unlink(_opt.socketPath.c_str());
    }
}

void
Server::logf(const char *fmt, ...)
{
    if (_opt.log == nullptr)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(_opt.log, fmt, ap);
    va_end(ap);
    std::fputc('\n', _opt.log);
    std::fflush(_opt.log);
}

std::string
Server::cacheIndexPath() const
{
    return _opt.cacheDir.empty() ? std::string()
                                 : _opt.cacheDir + "/index.pmcache";
}

bool
Server::start(std::string &err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (_opt.socketPath.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: '" + _opt.socketPath + "'";
        return false;
    }
    std::strncpy(addr.sun_path, _opt.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    _listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (_listenFd < 0) {
        err = std::string("socket(): ") + std::strerror(errno);
        return false;
    }
    ::unlink(_opt.socketPath.c_str());
    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(_listenFd, 16) != 0) {
        err = "cannot listen on '" + _opt.socketPath +
              "': " + std::strerror(errno);
        ::close(_listenFd);
        _listenFd = -1;
        return false;
    }

    if (!cacheIndexPath().empty()) {
        if (!_cache.load(cacheIndexPath(), err))
            return false;
        const auto s = _cache.snapshot();
        logf("cache: loaded %llu entries from %s",
             static_cast<unsigned long long>(s.entries),
             cacheIndexPath().c_str());
    }
    logf("listening on %s (workers=%u queue-depth=%u)",
         _opt.socketPath.c_str(), _opt.workers, _opt.queueDepth);
    return true;
}

bool
Server::sendFrame(Conn *conn, const std::string &line)
{
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (conn->dead)
        return false;
    std::string wire = line;
    wire += '\n';
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n = ::send(conn->fd, wire.data() + off,
                                 wire.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            // Peer gone: results of its in-flight jobs are dropped,
            // the jobs themselves run to completion (and still feed
            // the cache).
            conn->dead = true;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
Server::handleLine(Conn *conn, const std::string &line)
{
    sim::json::Value frame;
    std::string err;
    auto reject = [&](const std::string &id, const char *reason,
                      const std::string &detail) {
        sim::json::Value r = sim::json::Value::makeObj();
        r.set("type", sim::json::Value::makeStr("rejected"));
        r.set("id", sim::json::Value::makeStr(id));
        r.set("reason", sim::json::Value::makeStr(reason));
        r.set("detail", sim::json::Value::makeStr(detail));
        sendFrame(conn, sim::json::dump(r));
    };

    if (!sim::json::parse(line, frame, err) || !frame.isObj()) {
        reject("", "bad_spec", "unparseable frame: " + err);
        return;
    }
    const std::string type = frame.str("type");
    if (type == "ping") {
        sim::json::Value pong = sim::json::Value::makeObj();
        pong.set("type", sim::json::Value::makeStr("pong"));
        sendFrame(conn, sim::json::dump(pong));
        return;
    }
    if (type != "submit") {
        reject(frame.str("id"), "bad_spec",
               "unknown frame type '" + type + "'");
        return;
    }

    const std::string id = frame.str("id");
    const sim::json::Value *argv = frame.find("argv");
    if (id.empty() || argv == nullptr || !argv->isArr()) {
        reject(id, "bad_spec",
               "submit needs a non-empty \"id\" and an \"argv\" array");
        return;
    }
    std::vector<std::string> tokens;
    for (const sim::json::Value &t : argv->array) {
        if (!t.isStr()) {
            reject(id, "bad_spec", "argv elements must be strings");
            return;
        }
        tokens.push_back(t.string);
    }

    JobSpec spec;
    if (!JobSpec::parse(tokens, spec, err)) {
        reject(id, "bad_spec", err);
        return;
    }
    // The daemon writes no client-named files: forensic dumps travel
    // in error frames, and a dump-file path from across the socket
    // will not be opened with the server's credentials.
    spec.dumpFile.clear();
    // A job without its own watchdog inherits the service deadline —
    // folded in *before* cache keying so the key describes the job
    // that actually runs.
    if (!spec.watchdog && _opt.defaultDeadlineUs > 0.0) {
        spec.watchdog = true;
        spec.watchdogUs = _opt.defaultDeadlineUs / 8.0;
        spec.watchdogDeadlineUs = _opt.defaultDeadlineUs;
    }

    const std::size_t points = spec.numPoints();
    Job *raw = nullptr;
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_draining) {
            reject(id, "draining", "server is draining");
            return;
        }
        if (_queuedPoints + points > _opt.queueDepth) {
            reject(id, "queue_full",
                   "backlog full; retry with backoff");
            return;
        }
        auto job = std::make_unique<Job>();
        job->id = id;
        job->spec = std::move(spec);
        job->base = job->spec;
        job->base.haveSweep = false;
        job->base.sweep = sim::parse::AxisSpec{};
        job->conn = conn;
        job->points = points;
        raw = job.get();
        ++conn->openJobs;
        _jobs.push_back(std::move(job));
        // Reserve admission now, but keep the job invisible to the
        // scheduler until the accepted frame is on the wire — a
        // worker's first row frame must never beat the verdict.
        _queuedPoints += points;
    }

    sim::json::Value acc = sim::json::Value::makeObj();
    acc.set("type", sim::json::Value::makeStr("accepted"));
    acc.set("id", sim::json::Value::makeStr(id));
    acc.set("points", sim::json::Value::makeNum(static_cast<double>(points)));
    sendFrame(conn, sim::json::dump(acc));
    {
        std::lock_guard<std::mutex> lock(_mu);
        conn->jobs.push_back(raw);
        _readyPoints += points;
    }
    _workCv.notify_all();
    logf("job %s: accepted (%zu point%s)", id.c_str(), points,
         points == 1 ? "" : "s");
}

void
Server::readerLoop(Conn *conn)
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        pollfd pfd{conn->fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 250);
        {
            std::lock_guard<std::mutex> lock(_mu);
            if (_shutdown)
                return;
        }
        if (pr <= 0)
            continue;
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n == 0 || (n < 0 && errno != EINTR)) {
            std::lock_guard<std::mutex> lock(conn->writeMu);
            conn->dead = true;
            return;
        }
        if (n < 0)
            continue;
        buf.append(chunk, static_cast<std::size_t>(n));
        // A frame is one line; an unbounded line is a hostile client.
        if (buf.size() > (1u << 20)) {
            std::lock_guard<std::mutex> lock(conn->writeMu);
            conn->dead = true;
            return;
        }
        std::size_t nl = 0;
        while ((nl = buf.find('\n')) != std::string::npos) {
            const std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty())
                handleLine(conn, line);
        }
    }
}

void
Server::runOnePoint(Job *job, std::size_t point)
{
    JobSpec pt = job->base;
    if (job->spec.haveSweep)
        pt.applyAxisValue(job->spec.sweep.axis,
                          job->spec.sweep.values.at(point));
    const std::string canonical = pt.canonical();
    const std::uint64_t key = fnv1a64(canonical);
    const bool caching = !cacheIndexPath().empty();

    std::string row;
    bool cached = false;
    bool ok = true;
    sim::sweep::Failure fail;
    if (caching && _cache.lookup(key, canonical, row)) {
        cached = true;
    } else {
        PointCtx ctx{&pt, {}};
        const sim::sweep::Point p{point, pt.faultSeed};
        ok = sim::sweep::detail::runTrapped(p, pointThunk, &ctx, fail);
        if (ok) {
            row = std::move(ctx.out);
            if (caching)
                _cache.insert(key, canonical, row);
        }
    }

    if (ok) {
        sim::json::Value r = sim::json::Value::makeObj();
        r.set("type", sim::json::Value::makeStr("row"));
        r.set("id", sim::json::Value::makeStr(job->id));
        r.set("point", sim::json::Value::makeNum(static_cast<double>(point)));
        r.set("label",
              sim::json::Value::makeStr(job->spec.pointLabel(point)));
        r.set("data", sim::json::Value::makeStr(row));
        r.set("cached", sim::json::Value::makeBool(cached));
        sendFrame(job->conn, sim::json::dump(r));
    } else {
        sim::json::Value r = sim::json::Value::makeObj();
        r.set("type", sim::json::Value::makeStr("error"));
        r.set("id", sim::json::Value::makeStr(job->id));
        r.set("point", sim::json::Value::makeNum(static_cast<double>(point)));
        r.set("message", sim::json::Value::makeStr(fail.message));
        r.set("dump", sim::json::Value::makeStr(fail.dump));
        sendFrame(job->conn, sim::json::dump(r));
        logf("job %s point %zu: panic trapped: %s", job->id.c_str(),
             point, fail.message.c_str());
    }

    bool jobDone = false;
    std::size_t failed = 0;
    std::size_t hits = 0;
    {
        std::lock_guard<std::mutex> lock(_mu);
        --_runningPoints;
        ++job->donePoints;
        if (!ok)
            ++job->failed;
        if (cached)
            ++job->cacheHits;
        if (job->donePoints == job->points) {
            jobDone = true;
            failed = job->failed;
            hits = job->cacheHits;
            ++_jobsServed;
            --job->conn->openJobs;
        }
        if (_queuedPoints == 0 && _runningPoints == 0)
            _idleCv.notify_all();
    }
    if (jobDone) {
        sim::json::Value d = sim::json::Value::makeObj();
        d.set("type", sim::json::Value::makeStr("done"));
        d.set("id", sim::json::Value::makeStr(job->id));
        d.set("points",
              sim::json::Value::makeNum(static_cast<double>(job->points)));
        d.set("failed", sim::json::Value::makeNum(static_cast<double>(failed)));
        d.set("cache_hits",
              sim::json::Value::makeNum(static_cast<double>(hits)));
        sendFrame(job->conn, sim::json::dump(d));
        logf("job %s: done (%zu point%s, %zu failed, %zu cached)",
             job->id.c_str(), job->points, job->points == 1 ? "" : "s",
             failed, hits);
        std::lock_guard<std::mutex> lock(_mu);
        for (auto it = _jobs.begin(); it != _jobs.end(); ++it) {
            if (it->get() == job) {
                _jobs.erase(it);
                break;
            }
        }
    }
}

void
Server::workerLoop()
{
    // A fresh thread's default Context is private to it — the same
    // isolation contract as a sweep pool worker (sim/context.hh).
    sim::Context::current().setInformEnabled(false);
    for (;;) {
        Job *job = nullptr;
        std::size_t point = 0;
        {
            std::unique_lock<std::mutex> lock(_mu);
            _workCv.wait(lock, [this] {
                return _shutdown || _readyPoints > 0;
            });
            if (_shutdown && _readyPoints == 0)
                return;
            // Fair share: the ring cursor round-robins across
            // connections, so a long sweep on one connection cannot
            // starve a one-point job on another.
            for (std::size_t step = 0;
                 step < _ring.size() && job == nullptr; ++step) {
                Conn *c = _ring[(_ringCursor + step) % _ring.size()];
                if (c->jobs.empty())
                    continue;
                job = c->jobs.front();
                point = job->nextPoint++;
                if (job->nextPoint == job->points)
                    c->jobs.pop_front();
                _ringCursor = (_ringCursor + step + 1) % _ring.size();
            }
            if (job == nullptr)
                continue; // Defensive; ready implies a ringed job.
            --_readyPoints;
            --_queuedPoints;
            ++_runningPoints;
        }
        runOnePoint(job, point);
    }
}

std::uint64_t
Server::run(const std::atomic<bool> &stop)
{
    pm_assert(_listenFd >= 0, "Server::run() before start()");
    for (unsigned i = 0; i < std::max(1u, _opt.workers); ++i)
        _workers.emplace_back([this] { workerLoop(); });

    // Accept loop: poll so the stop flag (a signal handler's store)
    // is observed within ~250 ms.
    while (!stop.load(std::memory_order_relaxed)) {
        pollfd pfd{_listenFd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 250);
        if (pr <= 0)
            continue;
        const int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        Conn *raw = conn.get();
        {
            std::lock_guard<std::mutex> lock(_mu);
            _ring.push_back(raw);
            _conns.push_back(std::move(conn));
        }
        raw->reader = std::thread([this, raw] { readerLoop(raw); });
        logf("connection accepted");
    }

    requestDrain();
    logf("drain: finishing accepted jobs, rejecting new ones");

    // Finish the backlog: every accepted job completes (each point
    // drains its System to quiescence inside runPoint).
    {
        std::unique_lock<std::mutex> lock(_mu);
        _idleCv.wait(lock, [this] {
            return _queuedPoints == 0 && _runningPoints == 0;
        });
        _shutdown = true;
    }
    _workCv.notify_all();
    for (std::thread &w : _workers)
        w.join();
    _workers.clear();

    // Readers observe _shutdown within one poll tick; join, then close.
    for (auto &conn : _conns) {
        if (conn->reader.joinable())
            conn->reader.join();
        ::close(conn->fd);
    }

    if (!cacheIndexPath().empty()) {
        std::string err;
        if (_cache.flush(cacheIndexPath(), err)) {
            const auto s = _cache.snapshot();
            logf("cache: flushed %llu entries (%llu hits, %llu misses, "
                 "%llu collisions)",
                 static_cast<unsigned long long>(s.entries),
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.collisions));
        } else {
            logf("cache: flush failed: %s", err.c_str());
        }
    }
    logf("drained cleanly: served %llu job%s",
         static_cast<unsigned long long>(_jobsServed),
         _jobsServed == 1 ? "" : "s");
    return _jobsServed;
}

void
Server::requestDrain()
{
    std::lock_guard<std::mutex> lock(_mu);
    _draining = true;
}

} // namespace pm::svc
