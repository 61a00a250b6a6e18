/**
 * @file
 * Client side of the pmsimd wire protocol (see svc/server.hh for the
 * frame schema). Shared by the pmsimc CLI, the service load-generator
 * bench, and the tests, so all three speak the protocol through one
 * implementation — including the retry-with-backoff discipline that
 * makes the server's "queue_full" rejection an invitation rather than
 * a failure.
 */

#ifndef PM_SVC_CLIENT_HH
#define PM_SVC_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace pm::svc {

/** A blocking line-framed JSON connection to a pmsimd socket. */
class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    [[nodiscard]] bool connect(const std::string &socketPath,
                               std::string &err);
    void close();
    bool connected() const { return _fd >= 0; }

    /** Send one frame (a single line on the wire). */
    [[nodiscard]] bool send(const sim::json::Value &frame, std::string &err);

    /**
     * Receive the next frame. Blocks. False on EOF, socket error, or
     * a frame that does not parse (a server that emits garbage is a
     * broken server; `err` says which happened).
     */
    [[nodiscard]] bool recv(sim::json::Value &frame, std::string &err);

    /** Round-trip a ping; true when the server answers pong. */
    [[nodiscard]] bool ping(std::string &err);

    /** How a submit concluded. */
    enum class Submit
    {
        Accepted, //!< Job accepted; stream rows with recv().
        Rejected, //!< Terminally rejected (reason/detail filled in).
        Error,    //!< Transport failure (err filled in).
    };

    /**
     * Submit a job and wait for the accepted/rejected verdict. A
     * "queue_full" rejection is retried up to `retries` times with
     * exponential backoff starting at `backoffMs` (the server asked
     * for backpressure, not failure); "draining" and "bad_spec" are
     * terminal. On Rejected, `reason`/`detail` carry the server's
     * diagnosis.
     */
    Submit submitJob(const std::string &id,
                     const std::vector<std::string> &argv,
                     unsigned retries, unsigned backoffMs,
                     std::string &reason, std::string &detail,
                     std::string &err);

  private:
    int _fd = -1;
    std::string _buf;
};

} // namespace pm::svc

#endif // PM_SVC_CLIENT_HH
