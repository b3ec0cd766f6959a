#include "client.hpp"

#include "stats.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <stdexcept>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {
namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        fail("fcntl");
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// epoll_pwait2 with a nanosecond timeout (epoll_wait where the kernel
/// lacks it).
int wait_events(int epfd, epoll_event* events, int max, std::int64_t wait_ns) {
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    timespec ts{static_cast<time_t>(wait_ns / 1000000000LL),
                static_cast<long>(wait_ns % 1000000000LL)};
    const int n = ::epoll_pwait2(epfd, events, max, &ts, nullptr);
    if (n < 0 && errno == ENOSYS) {
        return ::epoll_wait(epfd, events, max,
                            static_cast<int>((wait_ns + 999999) / 1000000));
    }
    return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// server
// ---------------------------------------------------------------------------

server::server(const std::string& binary,
               const std::vector<std::string>& args,
               const std::string& log_path, int cpu) {
    std::vector<std::string> argv_s{binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    argv_s.emplace_back("--port");
    argv_s.emplace_back("0");
    for (const std::string& a : argv_s) {
        command_ += (command_.empty() ? "" : " ") + a;
    }
    struct stat st {};
    const off_t log_start = ::stat(log_path.c_str(), &st) == 0 ? st.st_size : 0;

    std::vector<char*> argv;
    for (std::string& a : argv_s) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0) {
        fail("fork");
    }
    if (pid_ == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        pin_to(cpu);
        const int log = ::open(log_path.c_str(),
                               O_WRONLY | O_CREAT | O_APPEND, 0644);
        const int null = ::open("/dev/null", O_RDWR);
        if (log < 0 || null < 0) {
            ::_exit(126);
        }
        ::dup2(null, STDIN_FILENO);
        ::dup2(null, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    // Poll the log for the listening line (the port is ephemeral).
    const std::int64_t give_up = now_ns() + 60LL * 1000000000LL;
    while (now_ns() < give_up) {
        const std::string log = read_file(log_path);
        const std::size_t at = log.find("silicond.listening",
                                        static_cast<std::size_t>(log_start));
        if (at != std::string::npos) {
            const std::size_t key = log.find("\"port\":", at);
            if (key != std::string::npos) {
                port_ = std::atoi(log.c_str() + key + 7);
                if (port_ > 0) {
                    return;
                }
            }
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("silicond exited during start-up; see " +
                                     log_path);
        }
        ::usleep(200);
    }
    stop(SIGKILL);
    throw std::runtime_error("silicond reported no port; see " + log_path);
}

server::~server() {
    if (pid_ > 0) {
        stop(SIGKILL);
    }
}

int server::stop(int sig) {
    if (pid_ <= 0) {
        return -1;
    }
    ::kill(pid_, sig);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
}

double server::rss_peak_mb() const {
    const std::string status =
        read_file("/proc/" + std::to_string(pid_) + "/status");
    const std::size_t at = status.find("VmHWM:");
    if (at == std::string::npos) {
        return 0.0;
    }
    return std::atof(status.c_str() + at + 6) / 1024.0;  // kB -> MiB
}

double server::cpu_seconds() const {
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
        return 0.0;
    }
    double total_ns = 0.0;
    while (const dirent* e = ::readdir(d)) {
        if (e->d_name[0] == '.') {
            continue;
        }
        const std::string s = read_file(dir + "/" + e->d_name + "/schedstat");
        total_ns += std::atof(s.c_str());  // first field: ns on the CPU
    }
    ::closedir(d);
    return total_ns * 1e-9;
}

void pin_to(int cpu) {
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        ::sched_getaffinity(0, sizeof set, &set);
        return set;
    }();
    cpu_set_t set = allowed;
    if (cpu >= 0) {
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
    }
    ::sched_setaffinity(0, sizeof set, &set);
}

std::pair<int, int> pick_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) {
        return {-1, -1};
    }
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
            cpus.push_back(c);
        }
    }
    if (cpus.size() < 2) {
        return {-1, -1};
    }
    return {cpus[cpus.size() - 2], cpus.back()};
}

idle_spinner::idle_spinner(int cpu) {
    if (cpu < 0) {
        return;
    }
    thread_ = std::thread{[this, cpu] {
        pin_to(cpu);
        sched_param param{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
    }};
}

idle_spinner::~idle_spinner() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
        thread_.join();
    }
}

// ---------------------------------------------------------------------------
// sockets and metrics
// ---------------------------------------------------------------------------

int connect_loopback(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        fail("socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        fail("connect");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

std::string http_get(int port, const char* path) {
    const int fd = connect_loopback(port);
    const std::string req = std::string{"GET "} + path +
                            " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    if (::write(fd, req.data(), req.size()) !=
        static_cast<ssize_t>(req.size())) {
        ::close(fd);
        fail("write");
    }
    std::string buf;
    std::size_t body_at = std::string::npos;
    std::size_t length = 0;
    char chunk[65536];
    for (;;) {
        if (body_at != std::string::npos && buf.size() >= body_at + length) {
            break;
        }
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got <= 0) {
            break;
        }
        buf.append(chunk, static_cast<std::size_t>(got));
        if (body_at == std::string::npos) {
            const std::size_t end = buf.find("\r\n\r\n");
            if (end != std::string::npos) {
                body_at = end + 4;
                const std::size_t cl = buf.find("Content-Length:");
                length = cl < end ? std::strtoull(buf.c_str() + cl + 15,
                                                  nullptr, 10)
                                  : 0;
            }
        }
    }
    ::close(fd);
    if (body_at == std::string::npos) {
        throw std::runtime_error(std::string{"no HTTP reply for "} + path);
    }
    return buf.substr(body_at, length);
}

double prom_sum(const std::string& text, const char* name) {
    const std::size_t len = std::strlen(name);
    double total = 0.0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) {
            eol = text.size();
        }
        if (text.compare(pos, len, name) == 0 && pos + len < eol &&
            (text[pos + len] == ' ' || text[pos + len] == '{')) {
            const std::size_t sp = text.rfind(' ', eol);
            total += std::strtod(text.c_str() + sp + 1, nullptr);
        }
        pos = eol + 1;
    }
    return total;
}

std::uint64_t reply_hash(const char* data, std::size_t n) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ---------------------------------------------------------------------------
// the load engine
// ---------------------------------------------------------------------------

namespace {

struct pending {
    std::uint64_t index;
    std::int64_t sched_ns;
    std::int64_t send_ns;
    std::uint64_t end_byte;  ///< queued-byte offset just past this line
    std::uint64_t lanes;
};

/// The client polls rather than sleeps when its next deadline is
/// closer than this.
constexpr std::int64_t spin_below_ns = 5000000;

/// Most bytes queued in the client before an open-loop stream stops
/// generating (the overdue requests keep their scheduled times).
constexpr std::size_t max_queued_bytes = 1u << 20;

struct conn_state {
    stream_spec spec;
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::uint64_t queued = 0;   ///< bytes ever appended to `out`
    std::uint64_t written = 0;  ///< bytes ever written to the socket
    std::deque<pending> pend;
    std::size_t unsent = 0;  ///< trailing entries of `pend` not yet written
    std::string in;
    std::size_t scanned = 0;  ///< bytes of `in` known to hold no newline
    splitmix64 arrivals{0};
    std::int64_t next_due = 0;
    std::uint64_t next_index = 0;
    bool generating = true;
    bool want_write = false;
    stream_result res;
};

}  // namespace

phase_result run_phase(const generator& gen, int port,
                       const std::vector<stream_spec>& specs, double seconds,
                       double drain_s, bool echo) {
    const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd < 0) {
        fail("epoll_create1");
    }
    std::vector<conn_state> conns(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        conn_state& c = conns[i];
        c.spec = specs[i];
        c.res.stream = specs[i].stream;
        c.fd = connect_loopback(port);
        set_nonblocking(c.fd);
        int buf = 1 << 20;
        ::setsockopt(c.fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = i;
        if (::epoll_ctl(epfd, EPOLL_CTL_ADD, c.fd, &ev) != 0) {
            fail("epoll_ctl");
        }
        c.arrivals = rng_for(gen.seed(), specs[i].stream, ~0ULL - 1);
        // Reserve the sample vectors up front: a reallocation inside the
        // window would stall the client and show up as lag.
        const double expect =
            (specs[i].rate > 0.0 ? specs[i].rate : 2000.0) * (seconds + 1.0) *
                1.3 +
            4096.0;
        const auto n = static_cast<std::size_t>(
            specs[i].limit != 0 ? static_cast<double>(specs[i].limit) : expect);
        c.res.replies.reserve(n);
        if (specs[i].record_latency) {
            c.res.latency_us.reserve(n);
            c.res.at_s.reserve(n);
            c.res.send_latency_us.reserve(n);
            c.res.lag_us.reserve(n);
        }
    }
    const bool lanes_vary = gen.kind() == workload::explore;

    const std::int64_t t0 = now_ns();
    const std::int64_t t_end =
        t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t t_drain =
        t_end + static_cast<std::int64_t>(drain_s * 1e9);
    for (conn_state& c : conns) {
        c.next_due = t0;
    }

    const auto gap_ns = [](conn_state& c) {
        const double u = c.arrivals.uniform();
        return static_cast<std::int64_t>(-std::log1p(-u) / c.spec.rate * 1e9);
    };
    const auto enqueue = [&](conn_state& c, std::int64_t sched) {
        const std::string line = gen.line(c.spec.stream, c.next_index);
        const std::uint64_t lanes =
            lanes_vary && c.spec.stream != stream_probe ? count_lanes(line)
                                                        : 1;
        c.out += line;
        c.out += '\n';
        c.queued += line.size() + 1;
        c.pend.push_back({c.next_index, sched, 0, c.queued, lanes});
        ++c.unsent;
        ++c.next_index;
        ++c.res.sent;
        if (c.spec.limit != 0 && c.next_index >= c.spec.limit) {
            c.generating = false;
        }
    };
    const auto flush = [&](conn_state& c, std::size_t idx) {
        while (c.out_off < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                     c.out.size() - c.out_off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    break;
                }
                fail("send");
            }
            c.out_off += static_cast<std::size_t>(n);
            c.written += static_cast<std::uint64_t>(n);
        }
        if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
        }
        const std::int64_t now = now_ns();
        while (c.unsent > 0) {
            pending& p = c.pend[c.pend.size() - c.unsent];
            if (p.end_byte > c.written) {
                break;
            }
            p.send_ns = now;
            if (c.spec.record_latency) {
                c.res.lag_us.push_back(
                    static_cast<double>(now - p.sched_ns) * 1e-3);
            }
            --c.unsent;
        }
        const bool want = !c.out.empty();
        if (want != c.want_write) {
            epoll_event ev{};
            ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
            ev.data.u64 = idx;
            ::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev);
            c.want_write = want;
        }
    };
    const auto drain_input = [&](conn_state& c) {
        char chunk[1 << 16];
        for (;;) {
            const ssize_t got = ::recv(c.fd, chunk, sizeof chunk, 0);
            if (got < 0) {
                if (errno == EINTR) {
                    continue;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    break;
                }
                fail("recv");
            }
            if (got == 0) {
                throw std::runtime_error("server closed a connection");
            }
            c.in.append(chunk, static_cast<std::size_t>(got));
        }
        const std::int64_t now = now_ns();
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = c.in.find('\n', std::max(start, c.scanned));
            if (nl == std::string::npos) {
                c.scanned = c.in.size();
                break;
            }
            if (c.pend.empty()) {
                throw std::runtime_error("reply without a request");
            }
            const pending p = c.pend.front();
            c.pend.pop_front();
            const char* line = c.in.data() + start;
            const std::size_t len = nl - start;
            ++c.res.received;
            const bool ok =
                !echo && len >= 10 && std::memcmp(line, "{\"ok\":true", 10) == 0;
            if (ok) {
                ++c.res.ok;
                if (now <= t_end) {
                    ++c.res.ok_in_window;
                    c.res.lanes_in_window += p.lanes;
                    const auto sec = static_cast<std::size_t>((now - t0) / 1000000000LL);
                    if (c.res.ok_per_s.size() <= sec) {
                        c.res.ok_per_s.resize(sec + 1, 0);
                    }
                    ++c.res.ok_per_s[sec];
                }
            }
            if (c.spec.record_latency) {
                c.res.at_s.push_back(static_cast<float>(
                    static_cast<double>(p.sched_ns - t0) * 1e-9));
                c.res.latency_us.push_back(
                    static_cast<double>(now - p.sched_ns) * 1e-3);
                c.res.send_latency_us.push_back(
                    static_cast<double>(now - p.send_ns) * 1e-3);
            }
            if (!echo) {
                c.res.replies.push_back({p.index, reply_hash(line, len)});
            }
            start = nl + 1;
        }
        c.in.erase(0, start);
        c.scanned -= std::min(c.scanned, start);
    };

    epoll_event events[16];
    for (;;) {
        const std::int64_t now = now_ns();
        const bool in_window = now < t_end;
        std::int64_t wake = in_window ? t_end : t_drain;
        bool outstanding = false;
        bool generating = false;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            conn_state& c = conns[i];
            if (!in_window) {
                c.generating = false;
            }
            if (c.generating) {
                if (c.spec.rate > 0.0) {
                    while (c.generating && c.next_due <= now &&
                           c.out.size() < max_queued_bytes &&
                           (c.spec.window == 0 ||
                            c.pend.size() < c.spec.window)) {
                        enqueue(c, c.next_due);
                        c.next_due += gap_ns(c);
                    }
                    wake = std::min(wake, c.next_due);
                } else {
                    while (c.generating && c.pend.size() < c.spec.window) {
                        enqueue(c, now);
                    }
                }
                if (!c.out.empty()) {
                    flush(c, i);
                }
            }
            outstanding = outstanding || !c.pend.empty();
            generating = generating || c.generating;
        }
        if (!generating && !outstanding) {
            break;  // window over, or every stream reached its limit
        }
        if (now >= t_drain) {
            break;
        }
        // Poll instead of sleeping while a request is due soon: an idle
        // vCPU wakes late from a timer, which would show up as lag.
        const std::int64_t wait = wake - now;
        const int n = wait_events(epfd, events, 16,
                                  wait < spin_below_ns ? 0 : wait - spin_below_ns);
        if (n < 0 && errno != EINTR) {
            fail("epoll_pwait2");
        }
        for (int e = 0; e < n; ++e) {
            const std::size_t idx = events[e].data.u64;
            conn_state& c = conns[idx];
            if ((events[e].events & EPOLLOUT) != 0) {
                flush(c, idx);
            }
            if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
                drain_input(c);
            }
        }
    }

    phase_result out;
    out.window_s = static_cast<double>(t_end - t0) * 1e-9;
    for (conn_state& c : conns) {
        out.drained = out.drained && c.pend.empty();
        ::close(c.fd);
        out.streams.push_back(std::move(c.res));
    }
    ::close(epfd);
    return out;
}

// ---------------------------------------------------------------------------
// echo peer
// ---------------------------------------------------------------------------

echo_peer::echo_peer(int cpu) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        fail("socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
        fail("echo listen");
    }
    port_ = ntohs(addr.sin_port);
    stop_fd_ = ::eventfd(0, EFD_CLOEXEC);
    if (stop_fd_ < 0) {
        fail("eventfd");
    }
    thread_ = std::thread{[this, cpu] {
        pin_to(cpu);
        serve();
    }};
}

echo_peer::~echo_peer() {
    const std::uint64_t one = 1;
    if (::write(stop_fd_, &one, sizeof one) < 0) {
        // The thread still exits at its next wakeup; nothing to report.
    }
    thread_.join();
    ::close(stop_fd_);
    ::close(listen_fd_);
}

void echo_peer::serve() {
    const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.fd = stop_fd_;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, stop_fd_, &ev);
    std::vector<int> fds;
    char buf[1 << 16];
    for (bool run = true; run;) {
        epoll_event events[16];
        const int n = ::epoll_wait(epfd, events, 16, -1);
        for (int e = 0; e < n; ++e) {
            const int fd = events[e].data.fd;
            if (fd == stop_fd_) {
                run = false;
            } else if (fd == listen_fd_) {
                const int c = ::accept4(listen_fd_, nullptr, nullptr,
                                        SOCK_CLOEXEC);
                if (c >= 0) {
                    const int one = 1;
                    ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
                    ev.data.fd = c;
                    ::epoll_ctl(epfd, EPOLL_CTL_ADD, c, &ev);
                    fds.push_back(c);
                }
            } else {
                // Blocking echo: the client always drains its replies.
                const ssize_t got = ::read(fd, buf, sizeof buf);
                if (got <= 0) {
                    ::epoll_ctl(epfd, EPOLL_CTL_DEL, fd, nullptr);
                    continue;
                }
                for (ssize_t off = 0; off < got;) {
                    const ssize_t w = ::write(fd, buf + off,
                                              static_cast<std::size_t>(got - off));
                    if (w <= 0) {
                        break;
                    }
                    off += w;
                }
            }
        }
    }
    for (const int fd : fds) {
        ::close(fd);
    }
    ::close(epfd);
}

}  // namespace perfbench
