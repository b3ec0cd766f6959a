// perfbench_load — one benchmark run of one workload against silicond.
//
//   perfbench_load --workload point_hot|point_cold|explore --seed N
//                    --seconds S --trace 0|1 --silicond PATH
//                    --server-threads T --run-dir DIR
//
// Prints human-readable progress on stderr and, as its last stdout line,
// one JSON report: correctness, request counts, the end-to-end metrics
// (with sample counts), the per-layer metrics and run details.  Exits 1
// when the run is not correct (a failed or mismatched reply, too few
// samples for a reported percentile, or a failed client self-check).
// perfbench/run.py builds this program and turns the report into the
// benchmark's result line.

#include "client.hpp"
#include "gen.hpp"
#include "replay.hpp"
#include "stats.hpp"

#include "exec/thread_pool.hpp"
#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unordered_map>
#include <unistd.h>
#include <vector>

namespace {

using namespace perfbench;

// Fixed absolute load levels (requests per second, whole client).
constexpr double hot_nominal_rps = 20000.0;
constexpr double hot_overload_rps = 400000.0;
constexpr double cold_nominal_rps = 16000.0;
constexpr double cold_overload_rps = 120000.0;
constexpr double probe_rps = 1000.0;
// Load connections: with the probe connection at most four at a time.
constexpr std::size_t point_conns = 3;
constexpr std::size_t explore_clients = 1;
constexpr std::size_t cold_warm_lines = 72000;
// Most requests one overload connection keeps outstanding.  80 lines
// (at most 199 bytes each) stay below the 16 KiB silicond reads per
// call: with more queued, its read-until-EAGAIN loop can keep serving
// one connection for seconds while the others starve, and whether that
// happens varies from run to run.
constexpr std::size_t overload_outstanding = 80;
constexpr int setup_repeats = 11;
// Share of a point workload's run spent at the nominal rate.
constexpr double nominal_share = 0.3;

// Client self-check: the run publishes nothing when the client's own
// cost is a large share of what it reports.  The echo round trip
// includes the loopback hop both ways, so it bounds the client's share
// of p50_ms from above; lag delays a request before silicond sees it.
constexpr double max_overhead_share = 0.75;  // echo p50 / p50_ms
constexpr double max_lag_share = 0.5;        // lag p90 / tail_ms (p90)

// Reconciliation tolerance: (client + silicond + engine) / p50_ms.
constexpr double reconcile_lo = 0.5;
constexpr double reconcile_hi = 1.5;

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string silicond;
    unsigned server_threads = 1;
    std::string run_dir = ".";
};

options parse(int argc, char** argv) {
    options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            o.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            o.trace = v == "1";
        } else if (k == "--silicond") {
            o.silicond = v;
        } else if (k == "--server-threads") {
            o.server_threads = static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (k == "--run-dir") {
            o.run_dir = v;

        } else {
            throw std::invalid_argument("unknown option " + k);
        }
    }
    if (!workload_from(o.workload) || o.silicond.empty() || o.seconds <= 0.0) {
        throw std::invalid_argument(
            "usage: perfbench_load --workload W --seed N --seconds S "
            "--trace 0|1 --silicond PATH --server-threads T --run-dir DIR");
    }
    return o;
}

/// Minimal JSON object writer.
class json_out {
public:
    void num(const std::string& k, double v) {
        key(k);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.10g", v);
        s_ += buf;
    }
    void str(const std::string& k, const std::string& v) {
        key(k);
        s_ += '"';
        for (const char c : v) {
            if (c == '"' || c == '\\') {
                s_ += '\\';
            }
            s_ += c;
        }
        s_ += '"';
    }
    void raw(const std::string& k, const std::string& v) {
        key(k);
        s_ += v;
    }
    [[nodiscard]] std::string done() const { return "{" + s_ + "}"; }

private:
    void key(const std::string& k) {
        if (!s_.empty()) {
            s_ += ',';
        }
        s_ += '"' + k + "\":";
    }
    std::string s_;
};

struct metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/// Ties every reply to its request for the byte-exact check.
struct checked_stream {
    std::uint64_t stream;
    std::vector<reply_record> replies;
};

struct tally {
    std::uint64_t attempted = 0;
    std::uint64_t not_ok = 0;       ///< error envelopes
    std::uint64_t unanswered = 0;   ///< sent, never answered
    std::vector<checked_stream> checks;

    void add(const phase_result& r) {
        for (const stream_result& s : r.streams) {
            attempted += s.sent;
            not_ok += s.received - s.ok;
            unanswered += s.sent - s.received;
            checks.push_back({s.stream, s.replies});
        }
    }
};

/// Compares every reply with the reply an in-process engine with the
/// cache disabled gives for the same line; returns the mismatch count.
std::uint64_t byte_check(const generator& gen, const tally& t) {
    silicon::serve::engine_config cfg;
    cfg.parallelism = 0;  // every core: the servers are stopped by now
    cfg.cache_capacity = 0;
    silicon::serve::engine reference{cfg};
    std::unordered_map<std::string, std::uint64_t> memo;  // repeated lines
    std::uint64_t mismatches = 0;
    std::vector<std::string> lines;
    std::vector<std::uint64_t> want;
    std::vector<bool> remember;
    const auto flush = [&] {
        const std::vector<std::string> replies = reference.handle_batch(lines);
        for (std::size_t i = 0; i < replies.size(); ++i) {
            const std::uint64_t h =
                reply_hash(replies[i].data(), replies[i].size());
            if (remember[i]) {
                memo.emplace(lines[i], h);
            }
            mismatches += h != want[i] ? 1 : 0;
        }
        lines.clear();
        want.clear();
        remember.clear();
    };
    for (const checked_stream& c : t.checks) {
        // Only point_hot-style lines repeat; the rest are not memoized.
        const bool repeats =
            gen.kind() == workload::point_hot || c.stream == stream_probe;
        for (const reply_record& r : c.replies) {
            std::string line = gen.line(c.stream, r.index);
            const auto it = repeats ? memo.find(line) : memo.end();
            if (it != memo.end()) {
                mismatches += it->second != r.hash ? 1 : 0;
                continue;
            }
            lines.push_back(std::move(line));
            want.push_back(r.hash);
            remember.push_back(repeats);
            if (lines.size() == 2048) {
                flush();
            }
        }
    }
    flush();
    return mismatches;
}

std::vector<double> gather(const phase_result& r,
                           std::vector<double> stream_result::*field,
                           bool probe) {
    std::vector<double> out;
    for (const stream_result& s : r.streams) {
        if ((s.stream == stream_probe) == probe) {
            out.insert(out.end(), (s.*field).begin(), (s.*field).end());
        }
    }
    return out;
}

/// Median over the whole seconds of a phase of percentile `pct` of the
/// latencies (us) scheduled in that second, over the load streams or
/// the probe stream.  The median across seconds keeps a transient stall
/// from moving the figure.  -1 when a second lacks the samples.
double windowed_percentile(const phase_result& r, double pct,
                           std::size_t seconds, bool probe,
                           std::size_t window_s = 1) {
    std::vector<std::vector<double>> per(seconds / window_s);
    for (const stream_result& s : r.streams) {
        if ((s.stream == stream_probe) != probe) {
            continue;
        }
        for (std::size_t i = 0; i < s.latency_us.size(); ++i) {
            const auto w = static_cast<std::size_t>(s.at_s[i]) / window_s;
            if (w < per.size()) {
                per[w].push_back(s.latency_us[i]);
            }
        }
    }
    std::vector<double> values;
    for (std::vector<double>& v : per) {
        if (supports_percentile(v.size(), pct)) {
            values.push_back(percentile(v, pct));
        }
    }
    return !values.empty() && values.size() == per.size() ? median(values)
                                                          : -1.0;
}

/// The load streams' ok replies in each whole second of a phase.
std::vector<double> goodput_per_s(const phase_result& r, std::size_t seconds) {
    std::vector<double> per(seconds, 0.0);
    for (const stream_result& s : r.streams) {
        if (s.stream == stream_probe) {
            continue;
        }
        for (std::size_t i = 0; i < seconds && i < s.ok_per_s.size(); ++i) {
            per[i] += s.ok_per_s[i];
        }
    }
    return per;
}

/// The tail percentile `tail_ms` reports on every workload: p90, the
/// highest that explore's few hundred large requests per run support
/// with ten samples beyond it.
constexpr double tail_pct = 90.0;

/// explore's central latency (us, from send): the median of each
/// request kind, averaged over the kinds.  The kinds cycle in a fixed
/// order, so the plain median of all requests falls in the gap between
/// two kinds' latencies and jumps between them from run to run.  The
/// per-kind medians (ms) land in `per_kind`, a JSON list.
double explore_p50_us(const phase_result& r, std::string& per_kind) {
    std::vector<std::vector<double>> by_kind(explore_kinds);
    for (const stream_result& s : r.streams) {
        if (s.stream == stream_probe) {
            continue;
        }
        for (std::size_t i = 0; i < s.send_latency_us.size(); ++i) {
            by_kind[(s.replies[i].index + s.stream) % explore_kinds].push_back(
                s.send_latency_us[i]);
        }
    }
    double sum = 0.0;
    per_kind = "[";
    for (std::vector<double>& v : by_kind) {
        const double m = v.empty() ? 0.0 : median(v);
        sum += m;
        per_kind += (per_kind.size() > 1 ? "," : "") + std::to_string(m * 1e-3);
    }
    per_kind += "]";
    return sum / static_cast<double>(by_kind.size());
}

/// Spawns silicond and times spawn -> first ok reply.
/// The reply line lands in `reply` (without its newline).
double timed_setup(const options& o, const std::vector<std::string>& args,
                   const std::string& first_line, const std::string& log,
                   int server_cpu,
                   std::unique_ptr<server>& out, std::string& reply) {
    const double t0 = now_s();
    auto s = std::make_unique<server>(o.silicond, args, log, server_cpu);
    const int fd = connect_loopback(s->port());
    const std::string req = first_line + "\n";
    if (::write(fd, req.data(), req.size()) !=
        static_cast<ssize_t>(req.size())) {
        throw std::runtime_error("setup: write failed");
    }
    reply.clear();
    char buf[4096];
    while (reply.find('\n') == std::string::npos) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0) {
            throw std::runtime_error("setup: no reply");
        }
        reply.append(buf, static_cast<std::size_t>(n));
    }
    const double dt = now_s() - t0;
    ::close(fd);
    reply.resize(reply.find('\n'));
    if (reply.rfind("{\"ok\":true", 0) != 0) {
        throw std::runtime_error("setup: first reply not ok: " + reply);
    }
    out = std::move(s);
    return dt;
}

struct server_sample {
    double cpu_s = 0.0;
    double lines = 0.0;
    double engine_s = 0.0;
    double flushes = 0.0;
    double hits = 0.0;
    double misses = 0.0;
    double evictions = 0.0;
    double entries = 0.0;
};

server_sample sample_server(const server& s) {
    server_sample out;
    out.cpu_s = s.cpu_seconds();
    const std::string m = http_get(s.port(), "/metrics");
    out.lines = prom_sum(m, "silicon_serve_requests_total");
    out.engine_s = prom_sum(m, "silicon_serve_latency_seconds_sum");
    out.flushes = prom_sum(m, "silicond_flushes_total");
    out.hits = prom_sum(m, "silicon_cache_hits_total");
    out.misses = prom_sum(m, "silicon_cache_misses_total");
    out.evictions = prom_sum(m, "silicon_cache_evictions_total");
    out.entries = prom_sum(m, "silicon_cache_entries");
    return out;
}

std::string host_cpu_model() {
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr) {
        return "unknown";
    }
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "model name", 10) == 0) {
            const char* colon = std::strchr(line, ':');
            model = colon != nullptr ? colon + 2 : line;
            model.erase(model.find_last_not_of("\n ") + 1);
            break;
        }
    }
    std::fclose(f);
    return model;
}

int run(const options& o) {
    const double started = now_s();
    const workload w = *workload_from(o.workload);
    const bool point = w != workload::explore;
    const generator gen{w, o.seed};
    ::mkdir(o.run_dir.c_str(), 0755);
    const std::string log = o.run_dir + "/silicond.log";
    const std::string snap = o.run_dir + "/cache.snap";
    std::remove(snap.c_str());

    std::vector<std::string> args{"--threads",
                                  std::to_string(o.server_threads)};
    if (w == workload::point_hot) {
        args.push_back("--cache-snapshot");
        args.push_back(snap);
    }

    std::map<std::string, metric> e2e;
    json_out details;
    std::map<std::string, double> layers;
    std::vector<std::string> problems;
    tally t;
    const double nominal_rps = w == workload::point_hot ? hot_nominal_rps
                                                        : cold_nominal_rps;
    const double overload_rps = w == workload::point_hot ? hot_overload_rps
                                                         : cold_overload_rps;

    // The load streams of one phase (probe appended where it runs).
    const auto load_specs = [&](double total_rps, std::uint64_t first_stream,
                                bool probe, bool record, std::size_t cap) {
        std::vector<stream_spec> specs;
        const std::size_t conns = point ? point_conns : explore_clients;
        for (std::size_t i = 0; i < conns; ++i) {
            stream_spec s;
            s.stream = first_stream + i;
            if (point) {
                s.rate = total_rps / static_cast<double>(conns);
                s.window = cap;
            } else {
                s.window = 1;
            }
            s.record_latency = record;
            specs.push_back(s);
        }
        if (probe) {
            stream_spec p;
            p.stream = stream_probe;
            p.rate = probe_rps;
            p.window = 0;
            specs.push_back(p);
        }
        return specs;
    };

    // The client (this thread) and silicond each get a CPU of their
    // own, so run-to-run placement does not move the figures.
    const std::pair<int, int> cpus = pick_cpus();
    pin_to(cpus.first);

    // 1. Client self-check against the loopback echo peer.
    double overhead_p50_us = 0.0;
    {
        echo_peer echo{cpus.second};
        const phase_result r =
            run_phase(gen, echo.port(),
                      load_specs(point ? nominal_rps : 0.0, 0, !point, true, 0),
                      1.0, 5.0, true);
        std::vector<double> lat = gather(r, &stream_result::latency_us, false);
        overhead_p50_us = median(lat);
    }
    std::cerr << "perfbench: client echo p50 " << overhead_p50_us << " us\n";

    std::cerr << "perfbench: [prep] at " << now_s() - started << " s\n";
    // 2. point_hot: an untimed prep instance writes the cache snapshot.
    if (w == workload::point_hot) {
        server prep{o.silicond, args, log, cpus.second};
        stream_spec s;
        s.stream = stream_hot_set;
        s.window = 512;
        s.limit = hot_keys;
        s.record_latency = false;
        t.add(run_phase(gen, prep.port(), {s}, 120.0, 30.0));
        prep.stop(SIGTERM);
        struct stat st {};
        if (::stat(snap.c_str(), &st) != 0) {
            throw std::runtime_error("prep instance wrote no snapshot");
        }
    }

    std::cerr << "perfbench: [setup] at " << now_s() - started << " s\n";
    // From here on silicond's CPU never idles (see idle_spinner).
    std::optional<idle_spinner> spinner;
    spinner.emplace(cpus.second);

    // 3. Set-up, several times: spawn -> first ok reply.
    std::vector<double> setups;
    std::unique_ptr<server> srv;
    for (int k = 0; k < setup_repeats; ++k) {
        const std::uint64_t stream = point ? stream_load0 : stream_probe;
        const std::uint64_t index = 1000000 + static_cast<std::uint64_t>(k);
        if (srv) {
            srv->stop(SIGKILL);
        }
        std::string reply;
        setups.push_back(timed_setup(o, args, gen.line(stream, index), log,
                                     cpus.second, srv, reply));
        t.checks.push_back(
            {stream, {{index, reply_hash(reply.data(), reply.size())}}});
        t.attempted += 1;
    }
    e2e["setup_s"] = {median(setups), "s", setups.size()};

    std::cerr << "perfbench: [warm] at " << now_s() - started << " s\n";
    // 4. point_cold: fill the cache until it evicts (untimed).
    if (w == workload::point_cold) {
        stream_spec s;
        s.stream = stream_warm;
        s.window = 512;
        s.limit = cold_warm_lines;
        s.record_latency = false;
        t.add(run_phase(gen, srv->port(), {s}, 120.0, 30.0));
    }

    std::cerr << "perfbench: [window] at " << now_s() - started << " s\n";
    const server_sample s0 = sample_server(*srv);
    // Point workloads: a latency phase at the nominal rate, then the
    // longer saturation phase, whose throughput figures vary most.
    const double nominal_s =
        point ? std::max(1.0, std::round(o.seconds * nominal_share)) : 0.0;
    const double sat_s = o.seconds - nominal_s;
    phase_result nom;  // point workloads: the nominal-rate phase
    phase_result sat;  // the saturation phase
    double lag_p90_us = 0.0;
    server_sample s1;
    if (point) {
        // 5a. Latency at the fixed nominal rate, open loop, with the
        // probe stream.
        nom = run_phase(gen, srv->port(),
                        load_specs(nominal_rps, 0, true, true, 0), nominal_s,
                        30.0);
        s1 = sample_server(*srv);
        t.add(nom);
        metric p50;
        metric tail;
        const auto seconds = static_cast<std::size_t>(nominal_s);
        const std::size_t n = gather(nom, &stream_result::latency_us, false).size();
        p50 = {windowed_percentile(nom, 50.0, seconds, false) * 1e-3, "ms", n};
        tail = {windowed_percentile(nom, tail_pct, seconds, false) * 1e-3,
                "ms", n};
        if (tail.value < 0.0 || p50.value < 0.0) {
            problems.push_back("too few nominal samples for tail_ms");
        }
        details.num("p99_ms", windowed_percentile(nom, 99.0, seconds, false) * 1e-3);
        e2e["p50_ms"] = p50;
        e2e["tail_ms"] = tail;
        std::vector<double> lag = gather(nom, &stream_result::lag_us, false);
        layers["client.lag_p99_us"] = percentile(lag, 99.0);
        lag_p90_us = percentile(lag, tail_pct);
        // 5b. Capacity at the fixed overload rate.  No probe: under
        // overload its p99 follows silicond's per-connection read order
        // and doubled from run to run with a 10% change in goodput.
        sat = run_phase(gen, srv->port(),
                        load_specs(overload_rps, point_conns, false, false,
                                   overload_outstanding),
                        sat_s, 60.0);
    } else {
        // 5. explore: the closed-loop client plus the probe stream.
        sat = run_phase(gen, srv->port(), load_specs(0.0, 0, true, true, 1),
                        o.seconds, 60.0);
        s1 = s0;
        std::vector<double> all =
            gather(sat, &stream_result::send_latency_us, false);
        std::string per_kind;
        e2e["p50_ms"] = {explore_p50_us(sat, per_kind) * 1e-3, "ms", all.size()};
        e2e["tail_ms"] = {percentile(all, tail_pct) * 1e-3, "ms", all.size()};
        if (!supports_percentile(all.size(), tail_pct)) {
            problems.push_back("too few explore samples for tail_ms");
        }
        details.raw("kind_p50_ms", per_kind);
        std::vector<double> lag = gather(sat, &stream_result::lag_us, true);
        layers["client.lag_p99_us"] = percentile(lag, 99.0);
        lag_p90_us = percentile(lag, tail_pct);
    }
    std::cerr << "perfbench: [sampled] at " << now_s() - started << " s\n";
    const server_sample s2 = sample_server(*srv);
    t.add(sat);
    if (!sat.drained) {
        problems.push_back("replies still outstanding after the drain");
    }
    std::uint64_t ok_window = 0;
    std::uint64_t lanes_window = 0;
    for (const stream_result& s : sat.streams) {
        if (s.stream != stream_probe) {
            ok_window += s.ok_in_window;
            lanes_window += s.lanes_in_window;
        }
    }
    // Means over the whole window: the host's speed drifts over seconds
    // (see goodput_per_s), and the median of per-second counts jumps
    // between its levels.  A point query is one lane.
    e2e["goodput_rps"] = {static_cast<double>(ok_window) / sat.window_s, "1/s",
                          ok_window};
    e2e["lanes_per_s"] = {static_cast<double>(lanes_window) / sat.window_s,
                          "1/s", ok_window};
    {
        std::string list = "[";
        for (const double v : goodput_per_s(sat, static_cast<std::size_t>(sat_s))) {
            list += (list.size() > 1 ? "," : "") + std::to_string(std::lround(v));
        }
        details.raw("goodput_per_s", list + "]");
    }
    {
        // The probe runs beside the nominal load (explore: the clients).
        const phase_result& probed = point ? nom : sat;
        const std::size_t n =
            gather(probed, &stream_result::latency_us, true).size();
        // Two-second windows: 2000 probes leave 20 beyond the p99.
        const double p99 = windowed_percentile(
            probed, 99.0, static_cast<std::size_t>(probed.window_s), true, 2);
        if (p99 < 0.0) {
            problems.push_back("too few probe samples for probe_p99_ms");
        }
        e2e["probe_p99_ms"] = {p99 * 1e-3, "ms", n};
    }
    e2e["rss_peak_mb"] = {srv->rss_peak_mb(), "MiB", 1};
    const std::string command = srv->command();
    srv->stop(SIGTERM);
    srv.reset();
    spinner.reset();

    // 6. Server-side layers from /metrics and the process CPU clock.
    {
        // Self time per line in the latency phase (explore: the window).
        const server_sample& a = s0;
        const server_sample& b = point ? s1 : s2;
        const double lines = std::max(1.0, b.lines - a.lines);
        const double engine_us = (b.engine_s - a.engine_s) / lines * 1e6;
        layers["silicond.self_p50_us"] =
            ((b.cpu_s - a.cpu_s) - (b.engine_s - a.engine_s)) / lines * 1e6;
        layers["silicond.engine_line_us"] = engine_us;
        layers["silicond.lines_per_batch"] =
            (s2.lines - s1.lines) / std::max(1.0, s2.flushes - s1.flushes);
        // Share of the saturation window silicond spent on a CPU: near
        // 1 per server thread means the server, not the client, limits
        // goodput_rps.
        layers["silicond.busy_share"] = (s2.cpu_s - s1.cpu_s) / sat.window_s;
        const double lookups = (s2.hits - s0.hits) + (s2.misses - s0.misses);
        layers["serve.cache.hit_ratio"] =
            lookups > 0 ? (s2.hits - s0.hits) / lookups : 0.0;
        layers["serve.cache.evictions"] = s2.evictions - s0.evictions;
        layers["serve.cache.entries"] = s2.entries;
        layers["client.overhead_p50_us"] = overhead_p50_us;
    }

    std::cerr << "perfbench: [check] at " << now_s() - started << " s\n";
    // 7. Byte-exact check of every reply.
    const double check_t0 = now_s();
    pin_to(-1);  // the check and the replay use every CPU
    const std::uint64_t mismatches = byte_check(gen, t);
    std::cerr << "perfbench: byte check " << mismatches << " mismatches in "
              << now_s() - check_t0 << " s\n";
    const std::uint64_t failed = t.not_ok + t.unanswered + mismatches;
    e2e["ok_ratio"] = {1.0 - static_cast<double>(failed) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     1, t.attempted)),
                       "ratio", t.attempted};
    if (failed != 0) {
        problems.push_back(std::to_string(t.not_ok) + " error replies, " +
                           std::to_string(t.unanswered) + " unanswered, " +
                           std::to_string(mismatches) + " byte mismatches");
    }

    // 8. Client self-check.
    const double p50_us = e2e["p50_ms"].value * 1e3;
    if (overhead_p50_us > max_overhead_share * p50_us) {
        problems.push_back("client self-check: echo p50 exceeds " +
                           std::to_string(max_overhead_share) + " of p50");
    }
    if (lag_p90_us > max_lag_share * e2e["tail_ms"].value * 1e3) {
        problems.push_back("client self-check: lag p90 exceeds " +
                           std::to_string(max_lag_share) + " of tail_ms");
    }

    // 9. The traced replay (per-layer metrics).
    if (o.trace) {
        replay_config rc;
        rc.threads = o.server_threads;
        rc.wire_lines_per_batch = layers["silicond.lines_per_batch"];
        rc.trace_path = o.run_dir + "/trace_" + o.workload + ".json";
        rc.scratch_dir = o.run_dir;
        const double r0 = now_s();
        for (const layer_value& v : run_replay(gen, rc)) {
            layers[v.name] = v.value;
        }
        std::cerr << "perfbench: replay took " << now_s() - r0 << " s\n";
        // Reconciliation: client + silicond + engine against p50_ms.
        const double engine_us =
            w == workload::point_hot    ? layers["serve.engine.line_us_hit"]
            : w == workload::point_cold ? layers["serve.engine.line_us_miss"]
                                        : layers["serve.engine.batch_us_p50"];
        const double parts = layers["client.overhead_p50_us"] +
                             std::max(0.0, layers["silicond.self_p50_us"]) +
                             engine_us;
        const double ratio = p50_us > 0 ? parts / p50_us : 0.0;
        layers["reconcile.ratio"] = ratio;
        layers["reconcile.ok"] =
            ratio >= reconcile_lo && ratio <= reconcile_hi ? 1.0 : 0.0;
        details.num("reconcile_tolerance_lo", reconcile_lo);
        details.num("reconcile_tolerance_hi", reconcile_hi);
    }

    // Report.
    details.str("silicond_command", command);
    details.num("server_threads", o.server_threads);
    details.num("nproc", silicon::exec::thread_pool::hardware_threads());
    details.str("cpu_model", host_cpu_model());
    details.num("seed", static_cast<double>(o.seed));
    details.num("tail_ms_percentile", tail_pct);
    details.num("highest_supported_percentile",
                tail_percentile(e2e["p50_ms"].samples));
    details.num("fail_ratio", 1.0 - e2e["ok_ratio"].value);
    details.num("client_overhead_max_share", max_overhead_share);
    details.num("client_lag_max_share", max_lag_share);
    details.num("client_lag_p90_us", lag_p90_us);
    std::string problem_list = "[";
    for (const std::string& p : problems) {
        problem_list += (problem_list.size() > 1 ? ",\"" : "\"") + p + "\"";
        std::cerr << "perfbench: FAIL " << p << "\n";
    }
    problem_list += "]";
    details.raw("problems", problem_list);

    json_out metrics;
    for (const auto& [name, m] : e2e) {
        json_out one;
        one.num("value", m.value);
        one.str("unit", m.unit);
        one.num("samples", static_cast<double>(m.samples));
        metrics.raw(name, one.done());
    }
    json_out layer_json;
    for (const auto& [name, v] : layers) {
        layer_json.num(name, v);
    }
    json_out report;
    report.raw("correct", problems.empty() ? "true" : "false");
    report.num("attempted", static_cast<double>(t.attempted));
    report.num("failed", static_cast<double>(failed));
    report.raw("end_to_end", metrics.done());
    report.raw("layers", layer_json.done());
    report.raw("details", details.done());
    std::cout << report.done() << std::endl;
    return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    // Sub-microsecond timer slack: the open-loop scheduler sleeps in
    // epoll_pwait2 between arrivals.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench_load: " << e.what() << "\n";
        return 2;
    }
}
