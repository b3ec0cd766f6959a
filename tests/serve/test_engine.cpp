#include "serve/engine.hpp"

#include "chiplet/model.hpp"
#include "opt/partition.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace serve = silicon::serve;
namespace json = silicon::serve::json;

namespace {

serve::engine_config config_with(unsigned parallelism,
                                 std::size_t cache_capacity = 65536) {
    serve::engine_config c;
    c.parallelism = parallelism;
    c.cache_capacity = cache_capacity;
    return c;
}

/// Every cacheable endpoint with non-default parameters, exercising the
/// full routing surface.
const std::vector<std::string>& endpoint_lines() {
    static const std::vector<std::string> lines = {
        R"({"op":"cost_tr"})",
        R"({"op":"cost_tr","product":{"transistors":4e6,"feature_size_um":0.6},
            "process":{"yield":{"model":"scaled","d":1.72,"p":4.07}},
            "economics":{"overhead_usd":2e6,"volume_wafers":500}})",
        R"({"op":"gross_die","die_width_mm":7.5,"die_height_mm":9,
            "method":"area_ratio"})",
        R"({"op":"yield","model":"poisson","die_area_cm2":0.8})",
        R"({"op":"yield","model":"murphy","defects_per_cm2":0.6})",
        R"({"op":"yield","model":"seeds"})",
        R"({"op":"yield","model":"bose_einstein","critical_steps":12})",
        R"({"op":"yield","model":"neg_binomial","alpha":1.5})",
        R"({"op":"yield","model":"scaled_poisson","lambda_um":0.6})",
        R"({"op":"yield","model":"reference","y0":0.6,"a0_cm2":0.9})",
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","lambda_um":1.1,"y0":0.8})",
        R"({"op":"table3","row":0})",
        R"({"op":"table3","row":5})",
        R"({"op":"mc_yield","dies":400,"seed":11})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,"count":5,
            "target":{"op":"scenario2"}})",
        R"({"op":"sweep","param":"product.transistors","from":1e6,"to":1e8,
            "count":3,"scale":"log","target":{"op":"cost_tr"}})",
    };
    return lines;
}

TEST(Engine, GoldenEquivalenceWithDirectEvaluation) {
    // The served response must be byte-identical to evaluating the
    // parsed request through the reference path (no cache, no batch).
    serve::engine served{config_with(0)};
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};

    for (const std::string& line : endpoint_lines()) {
        const serve::request req = serve::parse_request(json::parse(line));
        const std::string expected =
            "{\"ok\":true,\"result\":" + json::dump(reference.evaluate(req)) +
            "}";
        EXPECT_EQ(served.handle_line(line), expected) << line;
    }
}

TEST(Engine, BatchBitIdenticalAcrossParallelism) {
    std::vector<std::string> lines;
    for (int copy = 0; copy < 40; ++copy) {
        for (const std::string& line : endpoint_lines()) {
            lines.push_back(line);
        }
    }
    lines.push_back(R"({"op":"nope"})");
    lines.push_back("}{ garbage");
    lines.push_back(R"({"op":"scenario1","id":[1,"two",{"three":3}]})");

    serve::engine serial{config_with(1)};
    const std::vector<std::string> expected = serial.handle_batch(lines);
    ASSERT_EQ(expected.size(), lines.size());

    for (unsigned parallelism : {4u, 0u}) {
        serve::engine pooled{config_with(parallelism)};
        EXPECT_EQ(pooled.handle_batch(lines), expected)
            << "parallelism=" << parallelism;
    }
}

TEST(Engine, CacheHitReturnsIdenticalBytes) {
    serve::engine engine{config_with(1)};
    const std::string line = R"({"op":"scenario2","lambda_um":0.9})";
    const std::string cold = engine.handle_line(line);
    const std::string warm = engine.handle_line(line);
    EXPECT_EQ(cold, warm);

    const serve::memo_cache::stats s = engine.cache_stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(Engine, CacheHitsAcrossMemberOrderAndIds) {
    serve::engine engine{config_with(1)};
    (void)engine.handle_line(R"({"op":"table3","row":4})");
    (void)engine.handle_line(R"({"row":4,"op":"table3","id":9})");
    (void)engine.handle_line(R"({"op":"table3","row":4,"id":"again"})");
    const serve::memo_cache::stats s = engine.cache_stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 2u);
}

TEST(Engine, IdEchoedVerbatim) {
    serve::engine engine{config_with(1)};
    EXPECT_EQ(engine.handle_line(R"({"op":"table3","row":1,"id":42})")
                  .substr(0, 9),
              R"({"id":42,)");
    const std::string nested =
        engine.handle_line(R"({"id":{"a":[1]},"op":"table3","row":1})");
    EXPECT_EQ(nested.substr(0, 16), R"({"id":{"a":[1]},)");
}

TEST(Engine, ErrorEnvelopes) {
    serve::engine engine{config_with(1)};

    const std::string parse = engine.handle_line("not json");
    EXPECT_NE(parse.find(R"("ok":false)"), std::string::npos);
    EXPECT_NE(parse.find(R"("code":"parse_error")"), std::string::npos);

    const std::string unknown = engine.handle_line(R"({"op":"warp"})");
    EXPECT_NE(unknown.find(R"("code":"unknown_op")"), std::string::npos);

    const std::string field =
        engine.handle_line(R"({"op":"scenario1","lambda":1})");
    EXPECT_NE(field.find(R"("code":"unknown_field")"), std::string::npos);

    // Infeasible model input: scenario1 rejects non-positive lambda.
    const std::string domain =
        engine.handle_line(R"({"op":"scenario1","lambda_um":-1})");
    EXPECT_NE(domain.find(R"("ok":false)"), std::string::npos) << domain;

    // Errors keep their id.
    const std::string with_id =
        engine.handle_line(R"({"op":"warp","id":"e1"})");
    EXPECT_EQ(with_id.substr(0, 12), R"({"id":"e1",")");
}

TEST(Engine, TraceIdEchoedOnEveryErrorTaxonomyEnvelope) {
    // The trace must survive every failure class reachable from a
    // parsed request — that is exactly when the operator needs the
    // correlation most.  (`parse_error` is the deliberate exception: a
    // line that failed to parse has no trustworthy members, so nothing
    // is scanned out of it; `overloaded`/`batch_too_large` splice a
    // raw-scanned trace and are pinned in the limits suite.)
    serve::engine_config cfg = config_with(1);
    cfg.limits.max_mc_dies = 100;
    serve::engine engine{cfg};

    const std::pair<const char*, const char*> cases[] = {
        {"unknown_op", R"({"op":"nope","trace_id":"t-x"})"},
        {"bad_request", R"({"op":42,"trace_id":"t-x"})"},
        {"unknown_field", R"({"op":"scenario1","bogus":1,"trace_id":"t-x"})"},
        {"bad_param",
         R"({"op":"scenario1","lambda_um":"half","trace_id":"t-x"})"},
        {"bad_param", R"({"op":"scenario1","lambda_um":0,"trace_id":"t-x"})"},
        {"too_large", R"({"op":"mc_yield","dies":1000,"trace_id":"t-x"})"},
        {"deadline_exceeded",
         R"({"op":"mc_yield","dies":50,"deadline_ms":0,"trace_id":"t-x"})"},
    };
    for (const auto& [code, line] : cases) {
        const std::string response = engine.handle_line(line);
        EXPECT_NE(response.find(std::string{"\"code\":\""} + code + "\""),
                  std::string::npos)
            << line << " -> " << response;
        EXPECT_EQ(response.rfind(R"({"trace_id":"t-x","ok":false)", 0), 0u)
            << line << " -> " << response;
    }

    // A non-string trace_id is itself a schema error (echoing a
    // non-string would corrupt the envelope).
    const std::string bad =
        engine.handle_line(R"({"op":"scenario1","trace_id":42})");
    EXPECT_NE(bad.find(R"("code":"bad_param")"), std::string::npos) << bad;
    EXPECT_EQ(bad.find("\"trace_id\":"), std::string::npos)
        << "non-string trace must not be echoed: " << bad;

    // And a parse error stays trace-free even when the broken bytes
    // happen to contain the member.
    const std::string torn =
        engine.handle_line(R"({"trace_id":"t-torn","op":)");
    EXPECT_NE(torn.find(R"("code":"parse_error")"), std::string::npos);
    EXPECT_EQ(torn.find("t-torn"), std::string::npos) << torn;
}

TEST(Engine, TraceIdEchoPositionAndBytes) {
    serve::engine engine{config_with(1)};
    // With an id: id first, trace second — the envelope key order is
    // part of the wire contract.
    const std::string both = engine.handle_line(
        R"({"id":9,"op":"scenario1","lambda_um":0.5,"trace_id":"t-a"})");
    EXPECT_EQ(both.rfind(R"({"id":9,"trace_id":"t-a","ok":true)", 0), 0u)
        << both;
    // Escapes round-trip exactly like json::dump.
    const std::string escaped = engine.handle_line(
        R"({"op":"table3","row":1,"trace_id":"say \"hi\"\n"})");
    EXPECT_NE(escaped.find(R"("trace_id":"say \"hi\"\n")"),
              std::string::npos)
        << escaped;
    // Absent trace: the response is byte-identical to the pre-trace
    // format (golden compatibility).
    const std::string bare =
        engine.handle_line(R"({"op":"scenario1","lambda_um":0.5})");
    EXPECT_EQ(bare.find("trace_id"), std::string::npos);
    EXPECT_EQ(bare.rfind(R"({"ok":true,"result":)", 0), 0u);
}

TEST(Engine, ErrorsAreNeverCached) {
    serve::engine engine{config_with(1)};
    const std::string line = R"({"op":"scenario1","lambda_um":-1})";
    (void)engine.handle_line(line);
    (void)engine.handle_line(line);
    EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(Engine, MetricsCountRequestsAndErrors) {
    serve::engine engine{config_with(1)};
    (void)engine.handle_line(R"({"op":"scenario1"})");
    (void)engine.handle_line(R"({"op":"scenario1"})");
    (void)engine.handle_line(R"({"op":"scenario1","lambda":1})");

    const serve::endpoint_metrics& m =
        engine.metrics().at(serve::op_code::scenario1);
    EXPECT_EQ(m.requests.load(), 3u);
    EXPECT_EQ(m.errors.load(), 1u);
    EXPECT_EQ(m.cache_hits.load(), 1u);
}

TEST(Engine, StatsEndpointIsLive) {
    serve::engine engine{config_with(1)};
    (void)engine.handle_line(R"({"op":"table3","row":2})");
    const std::string first = engine.handle_line(R"({"op":"stats"})");
    (void)engine.handle_line(R"({"op":"table3","row":3})");
    const std::string second = engine.handle_line(R"({"op":"stats"})");
    EXPECT_NE(first, second);  // live snapshot, not cached
    EXPECT_EQ(engine.cache_stats().entries, 2u);  // stats never stored

    const json::value doc = json::parse(second);
    const json::object& result =
        doc.as_object().find("result")->as_object();
    ASSERT_NE(result.find("cache"), nullptr);
    ASSERT_NE(result.find("endpoints"), nullptr);
}

TEST(Engine, SweepSharesCacheWithPointQueries) {
    // Point/sweep cache sharing: a sweep lane probes its point
    // request's key, so a pre-warmed grid point is answered from the
    // cache (and evaluated lanes populate the same cache, so the
    // sharing is bidirectional).
    serve::engine engine{config_with(1)};
    // Pre-answer one grid point as a standalone request.
    (void)engine.handle_line(R"({"op":"scenario1","lambda_um":0.5})");
    const auto before = engine.cache_stats();

    (void)engine.handle_line(
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,"count":2,
            "target":{"op":"scenario1"}})");
    const auto after = engine.cache_stats();
    // The sweep hit the pre-warmed 0.5 point.
    EXPECT_GT(after.hits, before.hits);
}

TEST(Engine, SweepKernelLanesPopulateThePointCache) {
    // Evaluated grid points land in the memoization cache under their
    // point-request canonical keys, with bytes identical to a fresh
    // scalar evaluation — so a post-sweep point query is a warm hit,
    // for every sweep target.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,
             "count":2,"target":{"op":"scenario1"}})",
         R"({"op":"scenario1","lambda_um":1.0})"},
        {R"({"op":"sweep","param":"lambda_um","from":0.6,"to":1.2,
             "count":2,"target":{"op":"scenario2","y0":0.8}})",
         R"({"op":"scenario2","lambda_um":1.2,"y0":0.8})"},
        {R"({"op":"sweep","param":"expected_faults","from":0.5,"to":2,
             "count":2,"target":{"op":"yield","model":"murphy"}})",
         R"({"op":"yield","model":"murphy","expected_faults":2})"},
        {R"({"op":"sweep","param":"die_area_cm2","from":0.5,"to":1.5,
             "count":2,"target":{"op":"yield","model":"reference"}})",
         R"({"op":"yield","model":"reference","die_area_cm2":1.5})"},
        // gross_die and chiplet targets share the cache too.
        {R"({"op":"sweep","param":"die_width_mm","from":5,"to":9,
             "count":2,"target":{"op":"gross_die"}})",
         R"({"op":"gross_die","die_width_mm":9})"},
        {R"({"op":"sweep","param":"d2d_area_mm2","from":2,"to":6,
             "count":2,"target":{"op":"chiplet","chiplets":4}})",
         R"({"op":"chiplet","chiplets":4,"d2d_area_mm2":6})"},
    };
    for (const auto& [sweep, point] : cases) {
        serve::engine engine{config_with(1)};
        (void)engine.handle_line(sweep);
        const auto before = engine.cache_stats();
        const std::string warm = engine.handle_line(point);
        const auto after = engine.cache_stats();
        EXPECT_EQ(after.hits, before.hits + 1) << point;
        EXPECT_EQ(after.misses, before.misses) << point;

        // The cached bytes equal a fresh evaluation's.
        serve::engine cold{config_with(1)};
        EXPECT_EQ(warm, cold.handle_line(point)) << point;
    }
}

TEST(Engine, CacheAwareSweepSplicesPrewarmedLanes) {
    // Each sweep lane probes the point cache, evaluates only when it
    // misses, and reads a hit's metric back from the cached bytes — so
    // a pre-warmed grid point is served from memory and the response
    // stays byte-identical at every thread count.  Grid [1,5]x5 has
    // exact-double lanes {1,2,3,4,5}.
    const std::string sweep =
        R"({"op":"sweep","param":"lambda_um","from":1,"to":5,"count":5,
            "target":{"op":"scenario1"}})";
    serve::engine cold{config_with(1, /*cache_capacity=*/0)};
    const std::string expected = cold.handle_line(sweep);

    for (unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine engine{config_with(parallelism)};
        (void)engine.handle_line(R"({"op":"scenario1","lambda_um":2})");
        (void)engine.handle_line(R"({"op":"scenario1","lambda_um":4})");
        const auto before = engine.cache_stats();
        EXPECT_EQ(engine.handle_line(sweep), expected)
            << "parallelism=" << parallelism;
        const auto after = engine.cache_stats();
        // Both pre-warmed lanes were cache hits inside the sweep.
        EXPECT_GE(after.hits, before.hits + 2)
            << "parallelism=" << parallelism;
    }
}

TEST(Engine, FullyCachedSweepIsByteIdenticalToCold) {
    // A coarser sweep whose grid is a subset of an earlier fine sweep
    // finds every lane in the cache: no lane evaluates and the response
    // is pure splice — still byte-identical to a cache-disabled
    // engine's answer.
    const std::string fine =
        R"({"op":"sweep","param":"lambda_um","from":1,"to":5,"count":5,
            "target":{"op":"scenario2","y0":0.8}})";
    const std::string coarse =
        R"({"op":"sweep","param":"lambda_um","from":1,"to":5,"count":3,
            "target":{"op":"scenario2","y0":0.8}})";
    serve::engine cold{config_with(1, /*cache_capacity=*/0)};
    const std::string expected = cold.handle_line(coarse);

    serve::engine engine{config_with(4)};
    (void)engine.handle_line(fine);  // caches lanes {1,2,3,4,5}
    const auto before = engine.cache_stats();
    EXPECT_EQ(engine.handle_line(coarse), expected);
    const auto after = engine.cache_stats();
    EXPECT_GE(after.hits, before.hits + 3)
        << "all three coarse lanes {1,3,5} must splice from cache";
}

TEST(Engine, ExploreLanesPopulateTheChipletPointCache) {
    // partition_explore cells are chiplet point evaluations; the SoA
    // kernel exports each feasible cell's full breakdown so the engine
    // caches it under the equivalent chiplet point request's canonical
    // key.  Defaults sum to 600 mm^2, so totals {600,1200} scale by
    // exact factors {1,2} and a handwritten point request produces the
    // same canonical doubles.
    serve::engine engine{config_with(1)};
    (void)engine.handle_line(
        R"({"op":"partition_explore","splits":"1,2","area_from_mm2":600,
            "area_to_mm2":1200,"count":2})");
    const auto before = engine.cache_stats();
    const std::vector<std::string> points = {
        R"({"op":"chiplet","chiplets":1})",  // total 600, factor 1
        R"({"op":"chiplet","chiplets":2,"logic_area_mm2":700,
            "memory_area_mm2":300,"io_area_mm2":200})",  // total 1200
    };
    serve::engine fresh{config_with(1, /*cache_capacity=*/0)};
    for (const std::string& point : points) {
        EXPECT_EQ(engine.handle_line(point), fresh.handle_line(point))
            << point;
    }
    const auto after = engine.cache_stats();
    EXPECT_EQ(after.hits, before.hits + points.size());
    EXPECT_EQ(after.misses, before.misses);
}

TEST(Engine, OverlappingExploreSplicesCachedCellsByteIdentical) {
    // A second explore over a sub-grid of the first answers its cells
    // from the point cache; the spliced response must be byte-identical
    // to a cache-disabled engine's at every thread count.
    const std::string fine =
        R"({"op":"partition_explore","splits":"1,2,4","area_from_mm2":100,
            "area_to_mm2":400,"count":4})";
    const std::string coarse =
        R"({"op":"partition_explore","splits":"1,2,4","area_from_mm2":100,
            "area_to_mm2":400,"count":2})";
    serve::engine cold{config_with(1, /*cache_capacity=*/0)};
    const std::string expected = cold.handle_line(coarse);

    for (unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine engine{config_with(parallelism)};
        (void)engine.handle_line(fine);  // caches cells {100,200,300,400}
        const auto before = engine.cache_stats();
        EXPECT_EQ(engine.handle_line(coarse), expected)
            << "parallelism=" << parallelism;
        const auto after = engine.cache_stats();
        // Every feasible coarse cell {100,400} x 3 splits was a hit.
        EXPECT_GT(after.hits, before.hits)
            << "parallelism=" << parallelism;
    }
}

TEST(Engine, SweepInfeasiblePointsAreNull) {
    serve::engine engine{config_with(1)};
    // Lambda swept through zero: non-positive grid points infeasible.
    const std::string response = engine.handle_line(
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":-0.5,
            "count":3,"target":{"op":"scenario1"}})");
    const json::value doc = json::parse(response);
    const json::object& result =
        doc.as_object().find("result")->as_object();
    const json::array& ys = result.find("ys")->as_array();
    ASSERT_EQ(ys.size(), 3u);
    EXPECT_TRUE(ys[0].is_number());
    EXPECT_TRUE(ys[2].is_null());
}

TEST(Engine, NonFiniteGridLanesAreNullWarmOrCold) {
    // An overflowing grid yields non-finite lane values (printed as
    // null in xs).  No point request can carry them, so their lanes are
    // null without evaluating — for every target, and whether or not an
    // earlier sweep over the same target warmed the cache (NaN and
    // +inf lanes print the same key, so a cached +inf lane must never
    // answer a NaN lane).
    const std::string warm_up =
        R"({"op":"sweep","param":"alpha","from":-1.7e308,"to":1.7e308,)"
        R"("count":3,"target":{"op":"yield","model":"neg_binomial",)"
        R"("expected_faults":1}})";
    const std::string sweep =
        R"({"op":"sweep","param":"alpha","from":-1.7e308,"to":1.7e308,)"
        R"("count":4,"target":{"op":"yield","model":"neg_binomial",)"
        R"("expected_faults":1}})";
    const std::string nulls =
        R"("xs":[null,null,null,null],"ys":[null,null,null,null])";
    for (const std::size_t cache_capacity : {std::size_t{65536},
                                             std::size_t{0}}) {
        serve::engine engine{config_with(1, cache_capacity)};
        (void)engine.handle_line(warm_up);
        EXPECT_NE(engine.handle_line(sweep).find(nulls), std::string::npos)
            << "cache_capacity=" << cache_capacity;
    }
}

TEST(Engine, OversizedGrossDieWorkIsRejectedFast) {
    // Wafer radius / die edge far beyond any real process: the gross-die
    // loops would run for seconds to hours, so the geometry rejects the
    // work before looping and the engine answers domain_error.
    serve::engine engine{config_with(1)};
    for (const char* line :
         {R"({"op":"gross_die","wafer_radius_cm":1e9})",
          R"({"op":"gross_die","wafer_radius_cm":100000,"method":"exact"})",
          R"({"op":"cost_tr","process":{"wafer_radius_cm":1e9}})"}) {
        SCOPED_TRACE(line);
        const auto start = std::chrono::steady_clock::now();
        const json::value doc = json::parse(engine.handle_line(line));
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds{1});
        const json::value* error = doc.as_object().find("error");
        ASSERT_NE(error, nullptr);
        EXPECT_EQ(error->as_object().find("code")->as_string(),
                  "domain_error");
    }
    // A sweep up to 1e9 cm: lanes past the bound are null, the 450 mm
    // wafer lane still counts.
    const json::value sweep = json::parse(engine.handle_line(
        R"({"op":"sweep","param":"wafer_radius_cm","from":22.5,"to":1e9,)"
        R"("count":5,"target":{"op":"gross_die"}})"));
    const json::array& ys = sweep.as_object()
                                .find("result")
                                ->as_object()
                                .find("ys")
                                ->as_array();
    ASSERT_EQ(ys.size(), 5u);
    EXPECT_TRUE(ys[0].is_number());
    for (std::size_t i = 1; i < ys.size(); ++i) {
        EXPECT_TRUE(ys[i].is_null()) << i;
    }
}

TEST(Engine, EmptyBatch) {
    serve::engine engine{config_with(0)};
    EXPECT_TRUE(engine.handle_batch({}).empty());
}

TEST(Engine, BatchDedupCoalescesDuplicates) {
    serve::engine engine{config_with(1)};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","lambda_um":0.8})",
        R"({"lambda_um":0.5,"op":"scenario1"})",  // same canonical key
    };
    const std::vector<std::string> responses = engine.handle_batch(lines);
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(responses[0], responses[3]);
    EXPECT_NE(responses[0], responses[2]);

    // Two twins spliced from one representative evaluation.
    EXPECT_EQ(engine.dedup_hits(), 2u);
    const serve::endpoint_metrics& m =
        engine.metrics().at(serve::op_code::scenario1);
    EXPECT_EQ(m.requests.load(), 3u);
    EXPECT_EQ(m.cache_hits.load(), 2u);  // twins answered from cache
}

TEST(Engine, BatchDedupPreservesOrderAndIds) {
    serve::engine engine{config_with(0)};
    std::vector<std::string> lines;
    for (int i = 0; i < 24; ++i) {
        lines.push_back(R"({"id":)" + std::to_string(i) +
                        R"(,"op":"scenario1","lambda_um":0.5})");
    }
    const std::vector<std::string> responses = engine.handle_batch(lines);
    ASSERT_EQ(responses.size(), lines.size());
    for (int i = 0; i < 24; ++i) {
        const std::string prefix = R"({"id":)" + std::to_string(i) + ",";
        EXPECT_EQ(responses[i].substr(0, prefix.size()), prefix) << i;
    }
    EXPECT_EQ(engine.dedup_hits(), 23u);
}

TEST(Engine, BatchDedupDoesNotCoalesceErrors) {
    serve::engine engine{config_with(1)};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":-1})",
        R"({"op":"scenario1","lambda_um":-1})",
    };
    const std::vector<std::string> responses = engine.handle_batch(lines);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_NE(responses[0].find(R"("ok":false)"), std::string::npos);
    EXPECT_EQ(responses[0], responses[1]);

    // Errors are never cached, so the twin re-evaluated instead of
    // splicing a coalesced result: both attempts show up as errors.
    const serve::endpoint_metrics& m =
        engine.metrics().at(serve::op_code::scenario1);
    EXPECT_EQ(m.errors.load(), 2u);
    EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(Engine, BatchDedupDisabledLeavesBehaviorIntact) {
    // Dedup answers twins from the cache, so a cache-free engine runs
    // every line on its own — with identical bytes.
    serve::engine engine{config_with(1, /*cache_capacity=*/0)};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario1","lambda_um":0.5})",
    };
    const std::vector<std::string> responses = engine.handle_batch(lines);
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(engine.dedup_hits(), 0u);
}

/// The primary metric a point request answers, as JSON text ("null"
/// when the point is an error).
std::string point_metric(serve::engine& engine, const std::string& line,
                         serve::op_code op) {
    const json::value doc = json::parse(engine.handle_line(line));
    const json::value* result = doc.as_object().find("result");
    if (result == nullptr) {
        return "null";
    }
    return json::dump(*result->as_object().find(serve::primary_metric(op)));
}

/// `target` with the dotted `param` set to `x` (intermediate objects
/// created as needed), as a request line.
std::string point_line(json::value target, const std::string& param,
                       double x) {
    json::value* node = &target;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t dot = param.find('.', begin);
        const std::string key = param.substr(
            begin, dot == std::string::npos ? std::string::npos : dot - begin);
        if (dot == std::string::npos) {
            node->as_object().set(key, json::value{x});
            return json::dump(target);
        }
        if (node->as_object().find(key) == nullptr) {
            node->as_object().set(key, json::value{json::object{}});
        }
        node = node->as_object().find(key);
        begin = dot + 1;
    }
}

TEST(Engine, SweepKernelMatchesGenericPath) {
    // A lane equals its point query: every ys[i] of a sweep is the
    // primary metric of the matching point request on a fresh engine,
    // and null exactly when that point errors — for every sweep target
    // (the seven yield models, scenario #1/#2, cost_tr, gross_die,
    // chiplet, mc_yield), with the lane cache on and off, at every
    // thread count.
    const std::vector<std::string> sweeps = {
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,"count":7,
            "target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":-0.5,"count":5,
            "target":{"op":"scenario2","y0":0.85}})",
        R"({"op":"sweep","param":"y0","from":0.05,"to":1,"count":6,
            "scale":"log","target":{"op":"scenario2"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":4,"count":9,
            "target":{"op":"yield","model":"poisson"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.2,"to":3,"count":5,
            "target":{"op":"yield","model":"poisson","defects_per_cm2":0.5}})",
        R"({"op":"sweep","param":"lambda_um","from":0.4,"to":1.2,"count":6,
            "target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"d","from":0,"to":3,"count":5,
            "target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"a0_cm2","from":0.5,"to":2,"count":4,
            "target":{"op":"yield","model":"reference","y0":0.7}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":5,"count":8,
            "target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"alpha","from":-1,"to":3,"count":5,
            "target":{"op":"yield","model":"neg_binomial"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,"count":7,
            "target":{"op":"yield","model":"seeds"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":2,"count":6,
            "target":{"op":"yield","model":"seeds","defects_per_cm2":0.8}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":4,"count":6,
            "target":{"op":"yield","model":"bose_einstein",
                      "critical_steps":12}})",
        R"({"op":"sweep","param":"defects_per_cm2","from":-0.5,"to":1.5,
            "count":5,"target":{"op":"yield","model":"bose_einstein",
                                "die_area_cm2":0.8}})",
        R"({"op":"sweep","param":"expected_faults","from":-1,"to":3,"count":5,
            "target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"process.c0_usd","from":100,"to":3000,
            "count":5,"scale":"log","target":{"op":"cost_tr"}})",
        R"({"op":"sweep","param":"die_width_mm","from":2,"to":30,"count":5,
            "target":{"op":"gross_die"}})",
        R"({"op":"sweep","param":"logic_area_mm2","from":50,"to":800,
            "count":5,"target":{"op":"chiplet","chiplets":2}})",
        R"({"op":"sweep","param":"bond_yield","from":0.5,"to":1.5,"count":5,
            "target":{"op":"chiplet","chiplets":8}})",
        // Monte-Carlo targets, over a double and over integer-valued
        // parameters (a non-integral or out-of-range lane is null exactly
        // because its point request fails schema validation).
        R"({"op":"sweep","param":"defects_per_um2","from":-1e-4,"to":3e-4,
            "count":5,"target":{"op":"mc_yield","dies":60,"seed":5}})",
        R"({"op":"sweep","param":"seed","from":-1,"to":2,"count":7,
            "target":{"op":"mc_yield","dies":40}})",
        R"({"op":"sweep","param":"dies","from":-10,"to":50,"count":5,
            "target":{"op":"mc_yield"}})",
        R"({"op":"sweep","param":"line_count","from":-4,"to":20,"count":7,
            "target":{"op":"mc_yield","dies":30}})",
        // Integer-valued parameters of the typed targets: non-integral
        // lanes, and chiplet counts past the schema's 16.
        R"({"op":"sweep","param":"chiplets","from":1,"to":20,"count":39,
            "target":{"op":"chiplet"}})",
        R"({"op":"sweep","param":"critical_steps","from":0,"to":12,"count":9,
            "target":{"op":"yield","model":"bose_einstein"}})",
        R"({"op":"sweep","param":"critical_steps","from":-2,"to":10,"count":7,
            "target":{"op":"yield","model":"bose_einstein",
                      "expected_faults":1.5}})",
        R"({"op":"sweep","param":"product.transistors","from":1e5,"to":1e9,
            "count":5,"scale":"log","target":{"op":"cost_tr"}})",
        R"({"op":"sweep","param":"scribe_mm","from":-0.5,"to":2,"count":6,
            "target":{"op":"gross_die","method":"exact"}})",
    };
    const std::size_t on = serve::engine_config{}.cache_capacity;
    for (const std::size_t cache_capacity : {on, std::size_t{0}}) {
        for (unsigned parallelism : {1u, 4u, 0u}) {
            serve::engine engine{config_with(parallelism, cache_capacity)};
            for (const std::string& line : sweeps) {
                SCOPED_TRACE(line);
                const json::value request = json::parse(line);
                const json::object& sweep = request.as_object();
                const json::value& target = *sweep.find("target");
                const std::string& param =
                    sweep.find("param")->as_string();
                const serve::op_code op = *serve::op_from_string(
                    target.as_object().find("op")->as_string());

                const json::value response =
                    json::parse(engine.handle_line(line));
                const json::object& result =
                    response.as_object().find("result")->as_object();
                const json::array& xs = result.find("xs")->as_array();
                const json::array& ys = result.find("ys")->as_array();
                ASSERT_EQ(xs.size(), ys.size());
                serve::engine fresh{config_with(parallelism)};
                for (std::size_t i = 0; i < xs.size(); ++i) {
                    EXPECT_EQ(json::dump(ys[i]),
                              point_metric(fresh,
                                           point_line(target, param,
                                                      xs[i].as_number()),
                                           op))
                        << "cache_capacity=" << cache_capacity
                        << " parallelism=" << parallelism << " lane=" << i;
                }
            }
        }
    }
}

TEST(Engine, PartitionExploreBitIdenticalAcrossKernelsAndThreads) {
    // The crossover response is golden material: byte-identical at
    // every thread count, and every cell equals the primary metric of
    // its `chiplet` point request (the base configuration at that split,
    // areas rescaled to the cell's total) — null exactly when that point
    // errors.
    const std::vector<std::string> lines = {
        R"({"op":"partition_explore"})",
        R"({"op":"partition_explore","splits":"1,2,4,8","count":17,
            "scale":"log","area_from_mm2":30,"area_to_mm2":1500})",
        R"({"op":"partition_explore","splits":"1,3","count":9,
            "substrate":"interposer","d2d_area_mm2":12})",
        // Tiny areas make fine splits infeasible (die smaller than a
        // grid cell never happens, but zero/negative per-die faults
        // regions exercise NaN lanes via the huge-area tail).
        R"({"op":"partition_explore","splits":"1,16","count":8,
            "area_from_mm2":5,"area_to_mm2":70000,"scale":"log"})",
    };
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        const serve::request req = serve::parse_request(json::parse(line));
        const auto& q = std::get<serve::partition_explore_request>(req.payload);
        std::string expected;
        for (unsigned parallelism : {1u, 4u, 0u}) {
            serve::engine engine{config_with(parallelism)};
            const std::string response = engine.handle_line(line);
            if (expected.empty()) {
                expected = response;
            }
            EXPECT_EQ(response, expected) << "parallelism=" << parallelism;

            const json::value doc = json::parse(response);
            const json::object& result =
                doc.as_object().find("result")->as_object();
            const json::array& splits = result.find("splits")->as_array();
            const json::array& xs = result.find("xs")->as_array();
            const json::array& ys = result.find("ys")->as_array();
            serve::engine fresh{config_with(parallelism)};
            for (std::size_t s = 0; s < splits.size(); ++s) {
                for (std::size_t i = 0; i < xs.size(); ++i) {
                    silicon::chiplet::chiplet_spec areas;
                    areas.logic_area_mm2 = q.base.logic_area_mm2;
                    areas.memory_area_mm2 = q.base.memory_area_mm2;
                    areas.io_area_mm2 = q.base.io_area_mm2;
                    areas = silicon::chiplet::scaled_to_total(
                        areas, xs[i].as_number());
                    serve::request point;
                    point.op = serve::op_code::chiplet;
                    serve::chiplet_request cell = q.base;
                    cell.chiplets =
                        static_cast<int>(splits[s].as_number());
                    cell.logic_area_mm2 = areas.logic_area_mm2;
                    cell.memory_area_mm2 = areas.memory_area_mm2;
                    cell.io_area_mm2 = areas.io_area_mm2;
                    point.payload = cell;
                    EXPECT_EQ(json::dump(ys[s].as_array()[i]),
                              point_metric(
                                  fresh,
                                  json::dump(serve::request_to_json(point)),
                                  serve::op_code::chiplet))
                        << "parallelism=" << parallelism << " split="
                        << cell.chiplets << " cell=" << i;
                }
            }
        }
    }
}

TEST(Engine, PartitionExploreFindsTheCrossover) {
    // The Chiplet Actuary qualitative result through the endpoint: the
    // monolithic die wins the small-area end of the default grid, a
    // multi-die split wins the large end, and crossover_area_mm2 marks
    // the first grid area where a split is cheaper.
    serve::engine engine{config_with(1)};
    const std::string response = engine.handle_line(
        R"({"op":"partition_explore","splits":"1,2,4","area_from_mm2":40,
            "area_to_mm2":1000,"count":25})");
    const json::value doc = json::parse(response);
    const json::object& result =
        doc.as_object().find("result")->as_object();

    const json::array& best = result.find("best_split")->as_array();
    ASSERT_EQ(best.size(), 25u);
    EXPECT_EQ(best.front().as_number(), 1.0);   // small: monolithic
    EXPECT_GT(best.back().as_number(), 1.0);    // large: split wins

    const json::value* crossover = result.find("crossover_area_mm2");
    ASSERT_NE(crossover, nullptr);
    ASSERT_TRUE(crossover->is_number());
    const json::array& xs = result.find("xs")->as_array();
    EXPECT_GT(crossover->as_number(), xs.front().as_number());
    EXPECT_LE(crossover->as_number(), xs.back().as_number());

    // ys is one cost row per split, null-padded where infeasible.
    const json::array& ys = result.find("ys")->as_array();
    ASSERT_EQ(ys.size(), 3u);
    for (const json::value& row : ys) {
        EXPECT_EQ(row.as_array().size(), 25u);
    }
}

TEST(Engine, PartitionExploreBudgetChargesGridCells) {
    // splits x count grid cells charge against max_sweep_points, under
    // the dedicated explore_too_large reason — structural, so the same
    // request is rejected identically every time.
    serve::engine_config config = config_with(1);
    config.limits.max_sweep_points = 32;
    serve::engine engine{config};

    // 3 splits x 10 points = 30 cells: admitted.
    const std::string ok = engine.handle_line(
        R"({"op":"partition_explore","splits":"1,2,4","count":10})");
    EXPECT_NE(ok.find(R"("ok":true)"), std::string::npos);

    // 3 splits x 11 points = 33 cells: rejected.
    const std::string rejected = engine.handle_line(
        R"({"op":"partition_explore","splits":"1,2,4","count":11})");
    EXPECT_NE(rejected.find(R"("code":"too_large")"), std::string::npos);
    EXPECT_NE(rejected.find("max_sweep_points"), std::string::npos);
    EXPECT_EQ(engine.admission().rejected(
                  serve::reject_reason::explore_too_large),
              1u);

    // A plain sweep still charges its own reason, not the explore one.
    const std::string sweep = engine.handle_line(
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1,"count":40,
            "target":{"op":"scenario1"}})");
    EXPECT_NE(sweep.find(R"("code":"too_large")"), std::string::npos);
    EXPECT_EQ(engine.admission().rejected(
                  serve::reject_reason::sweep_too_large),
              1u);
}

TEST(Engine, StatsAndPrometheusExposePartitionPricerCounters) {
    // The 2^n - 1 partition pricer's mask-memoization stats surface
    // through both observability channels.  The counters are
    // process-global and cumulative, so drive the optimizer first and
    // check the exposed values against the library accessors.
    const std::vector<silicon::opt::block> blocks = {
        {"a", 1e6, 100.0}, {"b", 2e6, 100.0}, {"c", 3e6, 100.0},
        {"d", 4e6, 100.0},
    };
    (void)silicon::opt::optimize_partitions(
        blocks,
        [](const std::vector<silicon::opt::block>& group) {
            double t = 0.0;
            for (const silicon::opt::block& b : group) {
                t += b.transistors;
            }
            return std::pair<double, double>{t * 1e-6, 0.5};
        },
        [](std::size_t dies) { return 2.0 * static_cast<double>(dies); });
    const std::uint64_t hits = silicon::opt::partition_pricer_hits();
    const std::uint64_t entries = silicon::opt::partition_pricer_entries();
    EXPECT_GE(entries, 15u);  // 2^4 - 1 subsets priced at least once
    EXPECT_GT(hits, entries); // every partition scan is memoized lookups

    serve::engine engine{config_with(1)};
    const std::string response =
        engine.handle_line(R"({"op":"stats"})");
    const json::value doc = json::parse(response);
    const json::object& pricer = doc.as_object()
                                     .find("result")
                                     ->as_object()
                                     .find("partition_pricer")
                                     ->as_object();
    EXPECT_EQ(pricer.find("hits")->as_number(),
              static_cast<double>(silicon::opt::partition_pricer_hits()));
    EXPECT_EQ(
        pricer.find("entries")->as_number(),
        static_cast<double>(silicon::opt::partition_pricer_entries()));

    const std::string text = engine.prometheus_text();
    EXPECT_NE(text.find("silicon_partition_pricer_hits_total"),
              std::string::npos);
    EXPECT_NE(text.find("silicon_partition_pricer_entries_total"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// fast_math (engine_config::fast_math): vector-path sweeps and
// partition grids.  Values may drift from the scalar path within the
// DESIGN.md §15 ULP bounds, but the contracts below are exact.
// ---------------------------------------------------------------------------

const std::vector<std::string>& fast_math_lines() {
    static const std::vector<std::string> lines = {
        R"({"op":"sweep","param":"lambda_um","from":0.3,"to":1.5,)"
        R"("count":64,"target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","from":0.3,"to":1.5,)"
        R"("count":64,"target":{"op":"scenario2","y0":0.7}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":64,"target":{"op":"yield","model":"poisson"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":64,"target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":64,"target":{"op":"yield","model":"seeds"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":33,"target":{"op":"yield","model":"bose_einstein",)"
        R"("critical_steps":9}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":33,"target":{"op":"yield","model":"neg_binomial",)"
        R"("alpha":2.5}})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,)"
        R"("count":33,"target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":4,)"
        R"("count":33,"target":{"op":"yield","model":"reference",)"
        R"("y0":0.7}})",
        R"({"op":"partition_explore","splits":"1,2,4,8","count":17,)"
        R"("area_from_mm2":30,"area_to_mm2":1500,"scale":"log"})",
    };
    return lines;
}

TEST(FastMath, SweepsDeterministicAcrossParallelism) {
    // fast_math is NOT bit-identical to scalar, but it must be
    // bit-identical to itself at every thread count (lanes are
    // independent; sub-range kernel calls compose bytewise).
    std::vector<std::vector<std::string>> outputs;
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine_config config = config_with(parallelism);
        config.fast_math = true;
        serve::engine engine{config};
        std::vector<std::string> out;
        for (const std::string& line : fast_math_lines()) {
            out.push_back(engine.handle_line(line));
        }
        outputs.push_back(std::move(out));
    }
    for (std::size_t i = 0; i < fast_math_lines().size(); ++i) {
        SCOPED_TRACE(fast_math_lines()[i]);
        EXPECT_EQ(outputs[0][i], outputs[1][i]);
        EXPECT_EQ(outputs[0][i], outputs[2][i]);
    }
}

TEST(FastMath, NullLanesMatchScalarSweeps) {
    // Sweeps crossing invalid parameter ranges: the vector path masks
    // guard lanes before the transcendental, so the set of JSON null
    // lanes must be identical to the scalar path's.
    const std::vector<std::string> lines = {
        R"({"op":"sweep","param":"alpha","from":-1,"to":2,"count":21,)"
        R"("target":{"op":"yield","model":"neg_binomial",)"
        R"("expected_faults":1.5}})",
        R"({"op":"sweep","param":"lambda_um","from":-0.5,"to":1.5,)"
        R"("count":21,"target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"lambda_um","from":-0.5,"to":1.5,)"
        R"("count":21,"target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"y0","from":-0.2,"to":1.4,)"
        R"("count":21,"target":{"op":"scenario2"}})",
    };
    serve::engine_config fast_config = config_with(1);
    fast_config.fast_math = true;
    serve::engine fast{fast_config};
    serve::engine scalar{config_with(1)};
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        const json::value fast_doc = json::parse(fast.handle_line(line));
        const json::value scalar_doc =
            json::parse(scalar.handle_line(line));
        const json::array& fast_ys = fast_doc.as_object()
                                         .find("result")
                                         ->as_object()
                                         .find("ys")
                                         ->as_array();
        const json::array& scalar_ys = scalar_doc.as_object()
                                           .find("result")
                                           ->as_object()
                                           .find("ys")
                                           ->as_array();
        ASSERT_EQ(fast_ys.size(), scalar_ys.size());
        bool any_null = false;
        for (std::size_t i = 0; i < fast_ys.size(); ++i) {
            EXPECT_EQ(fast_ys[i].is_null(), scalar_ys[i].is_null())
                << "lane " << i;
            any_null = any_null || scalar_ys[i].is_null();
        }
        EXPECT_TRUE(any_null) << "grid never crossed the invalid range";
    }
}

TEST(FastMath, SweepLanesDoNotPoisonPointCache) {
    // Fast sweep lanes must never populate the per-point memoization
    // cache: a point query after a fast sweep has to return the exact
    // scalar bytes (a cache hit fed by a fast lane would leak drifted
    // values into bit-exact workflows).
    serve::engine_config config = config_with(1);
    config.fast_math = true;
    serve::engine fast{config};
    serve::engine scalar{config_with(1)};

    // Sweep across a grid whose first point is exactly lambda 0.5 —
    // the same canonical key as the point query below.
    const std::string sweep =
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,)"
        R"("count":3,"target":{"op":"scenario2","y0":0.7}})";
    (void)fast.handle_line(sweep);
    (void)scalar.handle_line(sweep);

    const std::string point =
        R"({"op":"scenario2","lambda_um":0.5,"y0":0.7})";
    EXPECT_EQ(fast.handle_line(point), scalar.handle_line(point));
    // And again (now definitely a warm hit on both engines).
    EXPECT_EQ(fast.handle_line(point), scalar.handle_line(point));
}

TEST(FastMath, OffIsBitIdenticalToScalarEngine) {
    // The flag default: an engine with fast_math off serves exactly
    // the bytes of the pre-flag engine for the whole sweep surface.
    serve::engine_config off_config = config_with(1);
    off_config.fast_math = false;
    serve::engine off{off_config};
    serve::engine scalar{config_with(1)};
    for (const std::string& line : fast_math_lines()) {
        SCOPED_TRACE(line);
        EXPECT_EQ(off.handle_line(line), scalar.handle_line(line));
    }
}

TEST(FastMath, StatuszReportsSimdTargetAndFlag) {
    serve::engine_config config = config_with(1);
    config.fast_math = true;
    serve::engine engine{config};
    const json::value doc = engine.statusz_json();
    const json::object& cfg =
        doc.as_object().find("config")->as_object();
    EXPECT_TRUE(cfg.find("fast_math")->as_bool());
    const std::string& target = cfg.find("simd_target")->as_string();
    EXPECT_TRUE(target == "scalar" || target == "avx2" ||
                target == "neon");

    const std::string text = engine.prometheus_text();
    EXPECT_NE(text.find("silicon_build_info{simd_target=\"" + target +
                        "\",fast_math=\"on\"}"),
              std::string::npos);
}

}  // namespace
