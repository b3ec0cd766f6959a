// Serving throughput: requests/second through serve::engine, measured
// two ways.
//
// 1. The memoization gate (unchanged from the first serve bench): a
//    mixed batch of unique queries served cold, then the same batch
//    again fully warm.  The warm pass exercises only the zero-allocation
//    hot path (arena parse, canonical probe, envelope splice) and must
//    beat the serial cold pass by >= 5x.
//
// 2. The cold-batch ablation gate (the perf target of the batch
//    execution work): a sweep-heavy, duplicate-heavy batch served by a
//    fresh engine (one parse per line, intra-batch dedup, one typed
//    writer evaluation per sweep lane) versus the naive per-point
//    pipeline defined below (per line json::parse -> parse_request ->
//    cache probe -> evaluate -> json::dump -> envelope, sweeps expanded
//    point by point, no dedup), fanned across the same thread pool.
//    Responses must be byte-identical; throughput must be >= 3x.
//
// 3. The cache layer on its own (no gate): ns per memo_cache get-hit,
//    get-miss and put-with-eviction on a full cache at the engine's
//    default geometry (65,536 entries in 16 shards), ~120-byte
//    canonical-style keys and 200-byte values, keys visited in
//    shuffled order.
//
// Results land in BENCH_serve.json (machine readable, git-tracked).
// SILICON_BENCH_TINY=1 shrinks the workload and skips both gates so CI
// smoke runs stay cheap and unflaky.

#include "exec/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

namespace {

namespace serve = silicon::serve;
namespace json = silicon::serve::json;

std::string num(double v) { return json::format_number(v); }

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// A deterministic mixed workload: every line unique, every endpoint
/// except stats represented.  Weighted toward evaluation-heavy
/// requests (Monte-Carlo yield, multi-point sweeps) — the realistic
/// serving mix, and the work memoization actually saves.  `n` should
/// be a multiple of 8.
std::vector<std::string> make_requests(std::size_t n) {
    std::vector<std::string> lines;
    lines.reserve(n);
    for (std::size_t i = 0; lines.size() < n; ++i) {
        const double lambda = 0.35 + 0.0001 * static_cast<double>(i);
        switch (i % 8) {
        case 0:
            lines.push_back(R"({"op":"scenario1","lambda_um":)" + num(lambda) +
                            "}");
            break;
        case 1:
            lines.push_back(R"({"op":"scenario2","lambda_um":)" + num(lambda) +
                            "}");
            break;
        case 2:
            lines.push_back(R"({"op":"cost_tr","product":{"transistors":)" +
                            num(1e6 + static_cast<double>(i)) + "}}");
            break;
        case 3:
            lines.push_back(R"({"op":"gross_die","die_width_mm":)" +
                            num(5.0 + 0.001 * static_cast<double>(i)) +
                            R"(,"die_height_mm":8.0})");
            break;
        case 4:
            lines.push_back(R"({"op":"yield","model":"murphy","die_area_cm2":)" +
                            num(0.5 + 0.0001 * static_cast<double>(i)) +
                            R"(,"defects_per_cm2":0.8})");
            break;
        case 5:
            lines.push_back(R"({"op":"mc_yield","dies":1500,"seed":)" +
                            std::to_string(i) + "}");
            break;
        case 6:
            lines.push_back(R"({"op":"mc_yield","dies":1500,"line_count":)" +
                            std::to_string(10 + i % 20) + R"(,"seed":)" +
                            std::to_string(i) + "}");
            break;
        default:
            lines.push_back(
                R"({"op":"sweep","param":"lambda_um","from":)" + num(lambda) +
                R"(,"to":)" + num(lambda + 0.4) +
                R"(,"count":16,"target":{"op":"scenario2"}})");
            break;
        }
    }
    return lines;
}

/// The cold-batch ablation workload: half multi-point sweeps (the
/// sweep-lane surface), half point queries repeated `dup` times each
/// (the intra-batch dedup surface).  `n` lines total.
std::vector<std::string> make_batch_workload(std::size_t n,
                                             std::size_t sweep_count,
                                             std::size_t dup) {
    std::vector<std::string> lines;
    lines.reserve(n);
    std::size_t unique = 0;
    while (lines.size() < n) {
        const double lambda = 0.4 + 0.001 * static_cast<double>(unique);
        if (unique % 2 == 0) {
            // Sweeps over the Eq. (8)/(9) scenario targets.
            const char* target = (unique % 4 == 0)
                                     ? R"({"op":"scenario2"})"
                                     : R"({"op":"scenario1"})";
            lines.push_back(R"({"op":"sweep","param":"lambda_um","from":)" +
                            num(lambda) + R"(,"to":)" + num(lambda + 0.6) +
                            R"(,"count":)" + std::to_string(sweep_count) +
                            R"(,"target":)" + target + "}");
        } else {
            // Point queries, each duplicated across the batch.
            const std::string line =
                R"({"op":"scenario1","lambda_um":)" + num(lambda) + "}";
            for (std::size_t d = 0; d < dup && lines.size() < n; ++d) {
                lines.push_back(line);
            }
        }
        ++unique;
    }
    return lines;
}

/// The naive per-point pipeline the engine is measured against — the
/// serving path without the batch machinery, built from public API:
/// per line json::parse -> parse_request -> memo-cache probe ->
/// evaluate_into -> cache put -> envelope.  A sweep expands
/// point by point on the engine's grid, each point taking the same
/// path and its metric read back from the dumped result (null where
/// the point errors).  No dedup, no typed lanes, no parse reuse; like
/// the engine, it leaves every point it evaluated in its cache.
class naive_pipeline {
public:
    naive_pipeline() : evaluator_{cache_free()} {}

    /// One (id-less, valid) line.
    std::string line(const std::string& text) {
        return "{\"ok\":true,\"result\":" +
               result(serve::parse_request(json::parse(text))) + "}";
    }

private:
    static serve::engine_config cache_free() {
        serve::engine_config config;
        config.cache_capacity = 0;
        return config;
    }

    std::string result(const serve::request& req) {
        if (const auto hit = cache_.get(req.canonical_key)) {
            return *hit;
        }
        std::string bytes;
        if (req.op == serve::op_code::sweep) {
            bytes = json::dump(
                sweep(std::get<serve::sweep_request>(req.payload)));
        } else {
            evaluator_.evaluate_into(req, bytes);
        }
        cache_.put(req.canonical_key, bytes);
        return bytes;
    }

    json::value sweep(const serve::sweep_request& q) {
        json::array xs;
        json::array ys;
        for (int i = 0; i < q.count; ++i) {
            const double t =
                q.count == 1 ? 0.0
                             : static_cast<double>(i) /
                                   static_cast<double>(q.count - 1);
            const double x =
                q.count == 1 ? q.from
                : q.scale == "log"
                    ? q.from * std::exp(t * std::log(q.to / q.from))
                    : q.from + t * (q.to - q.from);
            xs.emplace_back(x);
            json::value doc{q.target_params};
            json::value* slot = &doc;
            std::size_t begin = 0;
            for (std::size_t dot = 0; dot != std::string::npos;
                 begin = dot + 1) {
                dot = q.param.find('.', begin);
                slot = slot->as_object().find(
                    q.param.substr(begin, dot - begin));
            }
            *slot = json::value{x};
            try {
                const serve::request point = serve::parse_request(doc);
                const json::value parsed = json::parse(result(point));
                ys.push_back(*parsed.as_object().find(
                    serve::primary_metric(point.op)));
            } catch (const std::exception&) {
                ys.emplace_back(nullptr);
            }
        }
        json::object o;
        o.set("target_op", std::string{serve::to_string(q.target->op)});
        o.set("param", q.param);
        o.set("metric", serve::primary_metric(q.target->op));
        o.set("scale", q.scale);
        o.set("xs", std::move(xs));
        o.set("ys", std::move(ys));
        return json::value{std::move(o)};
    }

    serve::engine evaluator_;
    serve::memo_cache cache_{65536, 16};
};

double run_naive(const std::vector<std::string>& lines,
                 std::vector<std::string>& responses) {
    naive_pipeline naive;
    responses.assign(lines.size(), std::string{});
    const auto start = std::chrono::steady_clock::now();
    silicon::exec::parallel_for(
        lines.size(), /*parallelism=*/0,
        [&](const silicon::exec::shard_range& r) {
            for (std::size_t i = r.begin; i < r.end; ++i) {
                responses[i] = naive.line(lines[i]);
            }
        });
    const auto stop = std::chrono::steady_clock::now();
    return static_cast<double>(lines.size()) /
           std::chrono::duration<double>(stop - start).count();
}

double run_pass(serve::engine& engine, const std::vector<std::string>& lines,
                std::vector<std::string>* responses_out = nullptr) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> responses = engine.handle_batch(lines);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    const double rate = static_cast<double>(responses.size()) / seconds;
    if (responses_out != nullptr) {
        *responses_out = std::move(responses);
    }
    return rate;
}

/// ns per operation of the cache layer (pass set 3).
struct cache_layer_result {
    std::size_t entries = 0;
    std::size_t shards = 0;
    std::size_t ops = 0;
    double key_bytes = 0.0;  ///< mean key length
    std::size_t value_bytes = 0;
    double get_hit_ns = 0.0;
    double get_miss_ns = 0.0;
    double put_evict_ns = 0.0;
};

/// A canonical-style sweep-lane key, ~120 bytes.
std::string cache_key(std::size_t i) {
    return R"({"c0_usd":1000,"design_density":1,"lambda_um":)" +
           num(0.35 + 1e-7 * static_cast<double>(i)) +
           R"(,"op":"scenario1","wafer_radius_cm":7.5,"x":1.5,"y0":0.7})";
}

template <class Body>
double ns_per_op(std::size_t ops, Body&& body) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        body(i);
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start).count() /
           static_cast<double>(ops);
}

cache_layer_result measure_cache_layer(std::size_t ops) {
    cache_layer_result r;
    r.entries = 65536;
    r.shards = 16;
    r.ops = ops;
    r.value_bytes = 200;
    serve::memo_cache cache{r.entries, r.shards};
    const std::string value(r.value_bytes, 'v');
    for (std::size_t i = 0; i < r.entries; ++i) {
        cache.put(cache_key(i), value);
    }

    // Fresh keys for the evicting puts, prebuilt with their values so
    // the timed loop is the put alone (the value is moved in).
    std::vector<std::string> fresh(ops);
    std::vector<std::string> values(ops, value);
    double key_total = 0.0;
    for (std::size_t i = 0; i < ops; ++i) {
        fresh[i] = cache_key(r.entries + i);
        key_total += static_cast<double>(fresh[i].size());
    }
    r.key_bytes = key_total / static_cast<double>(ops);
    r.put_evict_ns = ns_per_op(ops, [&](std::size_t i) {
        cache.put(fresh[i], std::move(values[i]));
    });

    // Hits over whatever is resident now, misses over keys never
    // inserted; both in shuffled order.
    std::vector<std::string> resident;
    resident.reserve(r.entries);
    for (std::size_t s = 0; s < cache.shard_count(); ++s) {
        for (auto& [key, bytes] : cache.shard_snapshot(s)) {
            resident.push_back(std::move(key));
        }
    }
    std::mt19937_64 rng{42};
    std::vector<std::size_t> order(ops);
    for (std::size_t i = 0; i < ops; ++i) {
        order[i] = rng() % resident.size();
    }
    std::size_t hits = 0;
    r.get_hit_ns = ns_per_op(ops, [&](std::size_t i) {
        hits += cache.get(resident[order[i]]) != nullptr ? 1 : 0;
    });
    std::vector<std::string> absent(ops);
    for (std::size_t i = 0; i < ops; ++i) {
        absent[i] = cache_key(10 * r.entries + ops + i);
    }
    std::shuffle(absent.begin(), absent.end(), rng);
    std::size_t misses = 0;
    r.get_miss_ns = ns_per_op(ops, [&](std::size_t i) {
        misses += cache.get(absent[i]) == nullptr ? 1 : 0;
    });
    if (hits != ops || misses != ops) {
        std::printf("FAIL: cache layer saw %zu/%zu hits, %zu/%zu misses\n",
                    hits, ops, misses, ops);
        std::exit(1);
    }
    return r;
}

}  // namespace

int main() {
    const bool tiny = tiny_mode();
    const std::size_t kRequests = tiny ? 64 : 8192;
    const std::size_t kBatchLines = tiny ? 64 : 2048;
    const std::size_t kSweepCount = tiny ? 8 : 64;
    const std::size_t kDup = 8;
    const std::vector<std::string> lines = make_requests(kRequests);

    // --- Pass set 1: the memoization gate ------------------------------
    serve::engine_config serial_config;
    serial_config.parallelism = 1;
    serve::engine serial_engine{serial_config};
    const double serial_cold = run_pass(serial_engine, lines);

    serve::engine_config pooled_config;
    pooled_config.parallelism = 0;
    serve::engine pooled_engine{pooled_config};
    const double pooled_cold = run_pass(pooled_engine, lines);
    const double cache_warm = run_pass(pooled_engine, lines);

    const serve::memo_cache::stats cache = pooled_engine.cache_stats();

    std::printf("bench_serve_throughput (%zu unique mixed requests)\n",
                kRequests);
    std::printf("  %-22s %12.0f req/s\n", "serial cold", serial_cold);
    std::printf("  %-22s %12.0f req/s  (%.2fx serial)\n", "pooled cold",
                pooled_cold, pooled_cold / serial_cold);
    std::printf("  %-22s %12.0f req/s  (%.2fx serial)\n", "cache warm",
                cache_warm, cache_warm / serial_cold);
    std::printf("  cache: %zu hits / %zu misses / %zu entries\n",
                static_cast<std::size_t>(cache.hits),
                static_cast<std::size_t>(cache.misses),
                static_cast<std::size_t>(cache.entries));

    // --- Pass set 2: the cold-batch ablation gate ----------------------
    const std::vector<std::string> batch =
        make_batch_workload(kBatchLines, kSweepCount, kDup);

    serve::engine_config on_config;
    on_config.parallelism = 0;
    serve::engine on_engine{on_config};

    std::vector<std::string> on_responses;
    std::vector<std::string> off_responses;
    const double batch_on = run_pass(on_engine, batch, &on_responses);
    const double batch_off = run_naive(batch, off_responses);
    const bool identical = on_responses == off_responses;

    std::printf(
        "cold batch ablation (%zu lines: %zu-point sweeps + x%zu dups)\n",
        kBatchLines, kSweepCount, kDup);
    std::printf("  %-22s %12.0f req/s\n", "naive per-point", batch_off);
    std::printf("  %-22s %12.0f req/s  (%.2fx naive)\n", "engine", batch_on,
                batch_on / batch_off);
    std::printf("  dedup hits %zu, arena bytes %zu, responses %s\n",
                static_cast<std::size_t>(on_engine.dedup_hits()),
                static_cast<std::size_t>(on_engine.arena_bytes()),
                identical ? "byte-identical" : "DIFFER");

    // --- Pass set 3: the cache layer ------------------------------------
    const cache_layer_result layer = measure_cache_layer(tiny ? 4096 : 65536);
    std::printf("cache layer (%zu entries / %zu shards, %.0f-byte keys, "
                "%zu-byte values)\n",
                layer.entries, layer.shards, layer.key_bytes,
                layer.value_bytes);
    std::printf("  %-22s %12.1f ns\n", "get hit", layer.get_hit_ns);
    std::printf("  %-22s %12.1f ns\n", "get miss", layer.get_miss_ns);
    std::printf("  %-22s %12.1f ns\n", "put with eviction",
                layer.put_evict_ns);

    // --- Machine-readable results --------------------------------------
    json::object doc;
    doc.set("bench", json::value{std::string{"bench_serve_throughput"}});
    doc.set("tiny", json::value{tiny});
    json::object warm;
    warm.set("requests", json::value{static_cast<double>(kRequests)});
    warm.set("serial_cold_req_per_s", json::value{serial_cold});
    warm.set("pooled_cold_req_per_s", json::value{pooled_cold});
    warm.set("cache_warm_req_per_s", json::value{cache_warm});
    warm.set("warm_speedup_vs_serial", json::value{cache_warm / serial_cold});
    warm.set("required_speedup", json::value{5.0});
    doc.set("memoization", json::value{std::move(warm)});
    json::object cold;
    cold.set("lines", json::value{static_cast<double>(kBatchLines)});
    cold.set("sweep_count", json::value{static_cast<double>(kSweepCount)});
    cold.set("dup_factor", json::value{static_cast<double>(kDup)});
    // "flags_off" is the naive per-point baseline (key kept for the
    // BENCH_serve.json schema).
    cold.set("flags_off_req_per_s", json::value{batch_off});
    cold.set("flags_on_req_per_s", json::value{batch_on});
    cold.set("speedup", json::value{batch_on / batch_off});
    cold.set("required_speedup", json::value{3.0});
    cold.set("responses_identical", json::value{identical});
    cold.set("dedup_hits",
             json::value{static_cast<double>(on_engine.dedup_hits())});
    cold.set("arena_bytes",
             json::value{static_cast<double>(on_engine.arena_bytes())});
    doc.set("cold_batch_ablation", json::value{std::move(cold)});
    json::object cache_layer;
    cache_layer.set("entries", json::value{static_cast<double>(layer.entries)});
    cache_layer.set("shards", json::value{static_cast<double>(layer.shards)});
    cache_layer.set("ops", json::value{static_cast<double>(layer.ops)});
    cache_layer.set("key_bytes", json::value{layer.key_bytes});
    cache_layer.set("value_bytes",
                    json::value{static_cast<double>(layer.value_bytes)});
    cache_layer.set("get_hit_ns", json::value{layer.get_hit_ns});
    cache_layer.set("get_miss_ns", json::value{layer.get_miss_ns});
    cache_layer.set("put_evict_ns", json::value{layer.put_evict_ns});
    doc.set("cache_layer", json::value{std::move(cache_layer)});

    bool gate_pass = identical && cache.hits >= kRequests;
    if (!tiny) {
        gate_pass = gate_pass && cache_warm >= 5.0 * serial_cold &&
                    batch_on >= 3.0 * batch_off;
    }
    json::object gate;
    gate.set("skipped", json::value{tiny});
    gate.set("pass", json::value{gate_pass});
    doc.set("gate", json::value{std::move(gate)});

    const std::string path = "BENCH_serve.json";
    std::ofstream file{path, std::ios::binary | std::ios::trunc};
    file << json::dump(json::value{std::move(doc)}) << "\n";
    file.close();
    std::printf("[json] wrote %s\n", path.c_str());

    // --- Gates ----------------------------------------------------------
    if (!identical) {
        std::printf("FAIL: ablation responses differ\n");
        return 1;
    }
    if (cache.hits < kRequests) {
        std::printf("FAIL: warm pass was not fully cached\n");
        return 1;
    }
    if (tiny) {
        std::printf("OK: tiny mode, speedup gates skipped\n");
        return 0;
    }
    if (cache_warm < 5.0 * serial_cold) {
        std::printf("FAIL: cache warm %.2fx serial, want >= 5x\n",
                    cache_warm / serial_cold);
        return 1;
    }
    if (batch_on < 3.0 * batch_off) {
        std::printf("FAIL: cold batch %.2fx the naive baseline, want >= 3x\n",
                    batch_on / batch_off);
        return 1;
    }
    std::printf("OK: warm >= 5x serial cold, cold batch >= 3x naive\n");
    return 0;
}
