// client.hpp — the benchmark's load client and its silicond child.
//
// One thread drives every connection through one epoll set.  Open-loop
// streams schedule Poisson arrivals at a fixed absolute rate and time
// each reply from its scheduled send time (so a stall is charged to
// every request it delays) and from the moment its bytes left the
// client; closed-loop streams keep a fixed number of requests
// outstanding.  Every reply is hashed and kept with its request index,
// so the byte-exact check can regenerate the line and compare.
#pragma once

#include "gen.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// A silicond child process serving TCP on an ephemeral loopback port.
class server {
public:
    /// Spawns `binary args... --port 0` with stderr appended to
    /// `log_path`, pinned to `cpu` when it is not negative, and waits
    /// for the listening port.  Throws std::runtime_error when the
    /// child dies or reports no port.
    server(const std::string& binary, const std::vector<std::string>& args,
           const std::string& log_path, int cpu);
    ~server();
    server(const server&) = delete;
    server& operator=(const server&) = delete;

    [[nodiscard]] int port() const noexcept { return port_; }
    /// The command line, space-separated.
    [[nodiscard]] const std::string& command() const noexcept {
        return command_;
    }
    /// Peak resident set (VmHWM) in MiB.
    [[nodiscard]] double rss_peak_mb() const;
    /// CPU time of all the child's threads, in seconds.
    [[nodiscard]] double cpu_seconds() const;
    /// Sends `sig` and waits for the child; returns its exit status.
    int stop(int sig);

private:
    pid_t pid_ = -1;
    int port_ = 0;
    std::string command_;
};

/// Pins the calling thread to `cpu`, or to every allowed CPU when `cpu`
/// is negative.
void pin_to(int cpu);

/// The last two CPUs this process may run on (client, server), or
/// {-1, -1} when it may use fewer than two.
[[nodiscard]] std::pair<int, int> pick_cpus();

/// Keeps one CPU from going idle while it exists: a SCHED_IDLE thread
/// pinned to `cpu` spins, and yields at once to any other runnable
/// thread there (silicond).  On a virtual machine an idle vCPU halts
/// and wakes late, which would add the host's wake-up latency to every
/// request that arrives while silicond is idle.  No-op for `cpu` < 0.
class idle_spinner {
public:
    explicit idle_spinner(int cpu);
    ~idle_spinner();
    idle_spinner(const idle_spinner&) = delete;
    idle_spinner& operator=(const idle_spinner&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::thread thread_;  ///< declared last: it reads stop_
};

/// Blocking loopback connect with TCP_NODELAY; throws on failure.
[[nodiscard]] int connect_loopback(int port);

/// `GET path` over HTTP/1.1 on a fresh connection; returns the body.
[[nodiscard]] std::string http_get(int port, const char* path);

/// The value of an unlabelled Prometheus sample, summed over label sets
/// when `name` carries labels (`name{...} v`); 0 when absent.
[[nodiscard]] double prom_sum(const std::string& text, const char* name);

/// FNV-1a 64 of a reply line (without its newline).
[[nodiscard]] std::uint64_t reply_hash(const char* data, std::size_t n);

/// One request stream on its own connection.
struct stream_spec {
    std::uint64_t stream = stream_load0;  ///< generator stream id
    double rate = 0.0;        ///< open loop: Poisson req/s; 0 = closed
    std::size_t window = 1;   ///< closed loop: requests outstanding;
                              ///< open loop: most outstanding (0 = no cap)
    std::uint64_t limit = 0;  ///< stop after this many requests (0 = none)
    bool record_latency = true;
};

struct reply_record {
    std::uint64_t index = 0;
    std::uint64_t hash = 0;
};

struct stream_result {
    std::uint64_t stream = 0;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t ok = 0;            ///< `"ok":true` replies
    std::uint64_t ok_in_window = 0;  ///< ok replies received in the window
    std::uint64_t lanes_in_window = 0;
    std::vector<double> latency_us;       ///< reply - scheduled send
    std::vector<double> send_latency_us;  ///< reply - actual send
    std::vector<double> lag_us;           ///< actual send - scheduled
    std::vector<float> at_s;  ///< reply time since the phase start
    std::vector<std::uint32_t> ok_per_s;  ///< ok replies per window second
    std::vector<reply_record> replies;
};

struct phase_result {
    std::vector<stream_result> streams;
    double window_s = 0.0;
    bool drained = true;  ///< every sent request got its reply
};

/// Runs `specs` against `port` for `seconds` (generation stops after
/// it), then waits up to `drain_s` for outstanding replies.  When
/// `echo` is set the peer is the echo server and replies are not
/// classified.
[[nodiscard]] phase_result run_phase(const generator& gen, int port,
                                     const std::vector<stream_spec>& specs,
                                     double seconds, double drain_s,
                                     bool echo = false);

/// A loopback line-echo peer on its own thread (pinned to `cpu` when it
/// is not negative), for the client self-check: it answers every line
/// with the same bytes.
class echo_peer {
public:
    explicit echo_peer(int cpu);
    ~echo_peer();
    echo_peer(const echo_peer&) = delete;
    echo_peer& operator=(const echo_peer&) = delete;
    [[nodiscard]] int port() const noexcept { return port_; }

private:
    void serve();
    int listen_fd_ = -1;
    int stop_fd_ = -1;
    int port_ = 0;
    std::thread thread_;  ///< declared last: it uses the fds above
};

}  // namespace perfbench
