#include "svc/client.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

namespace pm::svc {

Client::~Client() { close(); }

void
Client::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
    _buf.clear();
}

bool
Client::connect(const std::string &socketPath, std::string &err)
{
    close();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: '" + socketPath + "'";
        return false;
    }
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    _fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (_fd < 0) {
        err = std::string("socket(): ") + std::strerror(errno);
        return false;
    }
    if (::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = "cannot connect to '" + socketPath +
              "': " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
Client::send(const sim::json::Value &frame, std::string &err)
{
    if (_fd < 0) {
        err = "not connected";
        return false;
    }
    std::string wire = sim::json::dump(frame);
    wire += '\n';
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n = ::send(_fd, wire.data() + off,
                                 wire.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            err = std::string("send(): ") + std::strerror(errno);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Client::recv(sim::json::Value &frame, std::string &err)
{
    if (_fd < 0) {
        err = "not connected";
        return false;
    }
    for (;;) {
        const std::size_t nl = _buf.find('\n');
        if (nl != std::string::npos) {
            const std::string line = _buf.substr(0, nl);
            _buf.erase(0, nl + 1);
            if (line.empty())
                continue;
            if (!sim::json::parse(line, frame, err)) {
                err = "bad frame from server: " + err;
                return false;
            }
            return true;
        }
        char chunk[4096];
        const ssize_t n = ::recv(_fd, chunk, sizeof(chunk), 0);
        if (n == 0) {
            err = "server closed the connection";
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            err = std::string("recv(): ") + std::strerror(errno);
            return false;
        }
        _buf.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
Client::ping(std::string &err)
{
    sim::json::Value ping = sim::json::Value::makeObj();
    ping.set("type", sim::json::Value::makeStr("ping"));
    if (!send(ping, err))
        return false;
    sim::json::Value frame;
    if (!recv(frame, err))
        return false;
    if (frame.str("type") != "pong") {
        err = "expected pong, got '" + frame.str("type") + "'";
        return false;
    }
    return true;
}

Client::Submit
Client::submitJob(const std::string &id,
                  const std::vector<std::string> &argv, unsigned retries,
                  unsigned backoffMs, std::string &reason,
                  std::string &detail, std::string &err)
{
    unsigned delayMs = backoffMs;
    for (unsigned attempt = 0;; ++attempt) {
        sim::json::Value submit = sim::json::Value::makeObj();
        submit.set("type", sim::json::Value::makeStr("submit"));
        submit.set("id", sim::json::Value::makeStr(id));
        sim::json::Value arr = sim::json::Value::makeArr();
        for (const std::string &t : argv)
            arr.array.push_back(sim::json::Value::makeStr(t));
        submit.set("argv", std::move(arr));
        if (!send(submit, err))
            return Submit::Error;

        sim::json::Value verdict;
        if (!recv(verdict, err))
            return Submit::Error;
        const std::string type = verdict.str("type");
        if (type == "accepted")
            return Submit::Accepted;
        if (type != "rejected") {
            err = "expected accepted/rejected, got '" + type + "'";
            return Submit::Error;
        }
        reason = verdict.str("reason");
        detail = verdict.str("detail");
        if (reason != "queue_full" || attempt >= retries)
            return Submit::Rejected;
        // Backpressure: honour it with exponential backoff.
        timespec ts{};
        ts.tv_sec = delayMs / 1000;
        ts.tv_nsec = static_cast<long>(delayMs % 1000) * 1000000L;
        ::nanosleep(&ts, nullptr);
        if (delayMs < 4096)
            delayMs *= 2;
    }
}

} // namespace pm::svc

