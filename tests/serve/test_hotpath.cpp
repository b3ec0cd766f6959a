// test_hotpath.cpp — the zero-allocation gate and the reference
// equivalence of the serve line path (DESIGN.md §10).
//
// This file lives in its own test binary (test_serve_hotpath) because
// it replaces the global allocation functions with counting versions:
// the contract "a warm cache hit performs zero heap allocations" is
// enforced by literally counting operator-new calls around
// `engine::handle_line_into`.
//
// The other half pins bytes: the arena-view JSON parser must match the
// DOM parser, the engine's request parse must match the DOM entry point
// `parse_request` (keys, error codes and messages), and every engine
// response — cold, warm, single line or batch, at every parallelism —
// must equal the public-API reference pipeline (json::parse ->
// parse_request -> engine::evaluate -> json::dump, in the documented
// envelope).

#include "exec/arena.hpp"
#include "request_corpus.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/json_arena.hpp"
#include "serve/request.hpp"
#include "serve/request_fast.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation bumps a thread-local
// counter.  The zero-allocation gates read only that one (returning
// memory is allowed on the hot path; taking it is not); deallocations
// are counted separately so the cache gate can check that evicting puts
// hold the number of live blocks flat.
// ---------------------------------------------------------------------------

namespace {

thread_local std::uint64_t t_allocations = 0;
thread_local std::uint64_t t_frees = 0;

void counted_free(void* p) noexcept {
    if (p != nullptr) {
        ++t_frees;
        std::free(p);
    }
}

void* counted_alloc(std::size_t n) {
    ++t_allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::size_t alignment) {
    ++t_allocations;
    void* p = nullptr;
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*)
                                                     : alignment,
                       n == 0 ? 1 : n) != 0) {
        throw std::bad_alloc{};
    }
    return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    ++t_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    ++t_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
    counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
    counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    counted_free(p);
}

namespace {

using namespace silicon;

using serve::test_corpus::corpus;
using serve::test_corpus::fuzz_corpus;

serve::engine_config fast_config() {
    serve::engine_config config;
    config.parallelism = 1;
    return config;
}

/// The public-API reference for one line: json::parse ->
/// parse_request -> engine::evaluate -> json::dump, wrapped in the
/// documented envelope — the request's `id` and string `trace_id`
/// echoed first (neither on a line that is not JSON), then the result
/// or the error taxonomy code and message.
std::string reference_line(serve::engine& reference, const std::string& line) {
    namespace json = serve::json;
    json::value doc;
    std::string code;
    std::string message;
    std::string result;
    try {
        doc = json::parse(line);
        result = json::dump(reference.evaluate(serve::parse_request(doc)));
    } catch (const json::parse_error& e) {
        code = "parse_error";
        message = e.what();
    } catch (const serve::request_error& e) {
        code = e.code();
        message = e.what();
    } catch (const std::domain_error& e) {
        code = "domain_error";
        message = e.what();
    } catch (const std::invalid_argument& e) {
        code = "bad_param";
        message = e.what();
    } catch (const std::exception& e) {
        code = "internal_error";
        message = e.what();
    }
    std::string out = "{";
    if (doc.is_object()) {
        if (const json::value* id = doc.as_object().find("id")) {
            out += "\"id\":" + json::dump(*id) + ",";
        }
        const json::value* trace = doc.as_object().find("trace_id");
        if (trace != nullptr && trace->is_string()) {
            out += "\"trace_id\":" + json::dump(*trace) + ",";
        }
    }
    if (code.empty()) {
        return out + "\"ok\":true,\"result\":" + result + "}";
    }
    json::object error;
    error.set("code", code);
    error.set("message", message);
    return out + "\"ok\":false,\"error\":" +
           json::dump(json::value{std::move(error)}) + "}";
}

/// A cache-free reference engine (evaluate bypasses the cache anyway).
serve::engine_config reference_config() {
    serve::engine_config config;
    config.parallelism = 1;
    config.cache_capacity = 0;
    return config;
}

bool is_stats(const std::string& line) {
    return line.find("\"stats\"") != std::string::npos;
}

// ---------------------------------------------------------------------------
// The cache's allocation gate: one block per entry.
// ---------------------------------------------------------------------------

/// A ~120-byte canonical-looking key (well past the small-string
/// buffer), written into `out` without allocating once it has grown.
void lane_key_into(std::size_t i, std::string& out) {
    out.assign(R"({"c0_usd":1000,"design_density":1,"lambda_um":)");
    out.append(std::to_string(i));  // SSO: no allocation
    out.append(R"(,"op":"scenario1","wafer_radius_cm":7.5,"x":1.5,"pad":"...."})");
}

/// Fill a 64-entry cache past its budget, so every further new key
/// evicts.
void fill_to_eviction(serve::memo_cache& cache, std::string& key) {
    for (std::size_t i = 0; i < 256; ++i) {
        lane_key_into(i, key);
        cache.put(key, std::string(200, 'v'));
    }
    ASSERT_GT(cache.snapshot().evictions, 0u);
}

TEST(CacheAllocations, EvictingPutAllocatesAtMostTwice) {
    serve::memo_cache cache{64, 4};
    std::string key;
    key.reserve(256);
    fill_to_eviction(cache, key);
    for (std::size_t i = 1000; i < 1100; ++i) {
        lane_key_into(i, key);
        std::string value(200, 'w');  // built before counting: moved in
        const std::uint64_t before = t_allocations;
        cache.put(key, std::move(value));
        EXPECT_LE(t_allocations - before, 2u) << "put " << i;
    }
}

TEST(CacheAllocations, EvictingPutsKeepLiveAllocationsFlat) {
    serve::memo_cache cache{64, 4};
    std::string key;
    key.reserve(256);
    fill_to_eviction(cache, key);
    const std::uint64_t allocations = t_allocations;
    const std::uint64_t frees = t_frees;
    for (std::size_t i = 0; i < 10000; ++i) {
        lane_key_into(100000 + i, key);
        cache.put(key, std::string(200, 'w'));  // value + block
    }
    const std::uint64_t taken = t_allocations - allocations;
    const std::uint64_t returned = t_frees - frees;
    // Each put takes the value string and the entry block and its
    // eviction returns the victim's two: live blocks stay flat.
    EXPECT_EQ(taken, returned);
    EXPECT_LE(taken, 2u * 10000u);
    EXPECT_EQ(cache.snapshot().entries, 64u);
}

TEST(CacheAllocations, WarmGetAllocatesNothing) {
    serve::memo_cache cache{64, 4};
    std::string key;
    key.reserve(256);
    fill_to_eviction(cache, key);
    lane_key_into(255, key);  // the most recent fill key: resident
    const std::uint64_t before = t_allocations;
    for (int i = 0; i < 100; ++i) {
        const auto hit = cache.get(key);
        ASSERT_NE(hit, nullptr);
    }
    EXPECT_EQ(t_allocations - before, 0u);
}

// ---------------------------------------------------------------------------
// The zero-allocation gate.
// ---------------------------------------------------------------------------

class HotPathAllocations : public ::testing::Test {
protected:
    /// Warm a request line until the hot path is primed (evaluation
    /// cached, arena chunks and buffers grown), then count allocations
    /// across several further warm hits.
    static std::uint64_t warm_hit_allocations(serve::engine& engine,
                                              const std::string& line,
                                              std::string& out) {
        for (int i = 0; i < 3; ++i) {
            engine.handle_line_into(line, out);
        }
        const std::uint64_t before = t_allocations;
        for (int i = 0; i < 5; ++i) {
            engine.handle_line_into(line, out);
        }
        return t_allocations - before;
    }
};

TEST_F(HotPathAllocations, WarmScenario1HitAllocatesNothing) {
    serve::engine engine{fast_config()};
    const std::string line = R"({"id":7,"op":"scenario1","lambda_um":0.5})";
    std::string out;
    engine.handle_line_into(line, out);
    const std::string expected = out;
    EXPECT_EQ(warm_hit_allocations(engine, line, out), 0u);
    EXPECT_EQ(out, expected);
    EXPECT_GT(engine.arena_bytes(), 0u);
}

TEST_F(HotPathAllocations, WarmHitWithTraceIdAllocatesNothing) {
    // The observability tentpole's gate: echoing a client trace_id —
    // envelope splice, flight-recorder append, tail-exemplar note —
    // must not cost the warm path a single allocation.  The warm-up
    // passes inside warm_hit_allocations also pre-register this
    // thread's flight ring, so only steady-state work is counted.
    serve::engine engine{fast_config()};
    const std::string line =
        R"({"id":7,"op":"scenario1","lambda_um":0.5,)"
        R"("trace_id":"req-abc-123-def-456"})";
    std::string out;
    engine.handle_line_into(line, out);
    const std::string expected = out;
    EXPECT_EQ(warm_hit_allocations(engine, line, out), 0u);
    EXPECT_EQ(out, expected);
    EXPECT_NE(out.find("\"trace_id\":\"req-abc-123-def-456\""),
              std::string::npos);
    // And a line without one still answers with the legacy bytes.
    const std::string bare = R"({"id":7,"op":"scenario1","lambda_um":0.5})";
    EXPECT_EQ(warm_hit_allocations(engine, bare, out), 0u);
    EXPECT_EQ(out.find("trace_id"), std::string::npos);
}

TEST_F(HotPathAllocations, WarmHitsAcrossEndpointsAllocateNothing) {
    serve::engine engine{fast_config()};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","id":"abc","y0":0.9})",
        R"({"op":"yield","model":"murphy","expected_faults":1.5})",
        R"({"op":"yield","model":"reference","y0":0.7,"die_area_cm2":2})",
        R"({"op":"cost_tr","product":{"transistors":1e6},)"
        R"("process":{"c0_usd":900}})",
        R"({"op":"gross_die","die_width_mm":12,"die_height_mm":9})",
        R"({"id":[1,2],"op":"table3","row":3})",
        R"({"op":"mc_yield","dies":32,"seed":3})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":3,"target":{"op":"scenario1"}})",
        // The acceptance gate for the chiplet endpoint: a warm point
        // query allocates nothing (all strings in the payload are SSO).
        R"({"id":9,"op":"chiplet","chiplets":4,"substrate":"rdl",)"
        R"("d2d_area_mm2":8})",
        R"({"op":"partition_explore","splits":"1,2,4","count":5})",
    };
    std::string out;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        serve::engine* e = &engine;
        EXPECT_EQ(warm_hit_allocations(*e, line, out), 0u);
    }
}

TEST_F(HotPathAllocations, ColdMissWithCacheDisabledAllocatesNothing) {
    // The cold-path arena gate: with the memoization cache disabled,
    // *every* request is a cold miss, and for the point endpoints whose
    // library evaluation allocates nothing (the closed forms, the exact
    // gross-die search, cost_tr, chiplet) the hot path evaluates the
    // library directly and serializes into a reused per-thread buffer —
    // zero allocations once buffers have grown (warm-up is inside
    // warm_hit_allocations).  The cache put is skipped entirely at
    // capacity 0, so no copy of the response is taken either.
    serve::engine_config config = fast_config();
    config.cache_capacity = 0;
    serve::engine engine{config};
    const std::vector<std::string> lines = {
        R"({"id":7,"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","y0":0.9,"lambda_um":0.8})",
        R"({"op":"yield","model":"poisson","expected_faults":0.5})",
        R"({"op":"yield","model":"murphy","die_area_cm2":2.5,)"
        R"("defects_per_cm2":0.4})",
        R"({"op":"yield","model":"seeds","die_area_cm2":1.2})",
        R"({"op":"yield","model":"bose_einstein","critical_steps":12})",
        R"({"op":"yield","model":"neg_binomial","alpha":2.5,)"
        R"("expected_faults":3})",
        R"({"op":"yield","model":"scaled_poisson","lambda_um":0.8})",
        R"({"op":"yield","model":"reference","y0":0.7,"die_area_cm2":2})",
        R"({"op":"gross_die","die_width_mm":12,"die_height_mm":9})",
        R"({"op":"gross_die","die_width_mm":7,"die_height_mm":7,)"
        R"("method":"ferris_prabhu","scribe_mm":0.1})",
        // The exact placement search counts without storing rows.
        R"({"op":"gross_die","die_width_mm":9,"die_height_mm":11,)"
        R"("method":"exact","scribe_mm":0.2})",
        R"({"id":"t","op":"scenario1","trace_id":"req-cold-1"})",
        // cost_tr and chiplet misses run the same writer-based
        // serializer as the closed-form ops.
        R"({"op":"cost_tr","product":{"transistors":1e6},)"
        R"("process":{"c0_usd":900}})",
        R"({"op":"cost_tr","process":{"yield":{"model":"scaled"},)"
        R"("gross_die_method":"maly_rows_best_orient"},)"
        R"("economics":{"volume_wafers":500}})",
        R"({"op":"cost_tr","process":{"gross_die_method":"exact"}})",
        R"({"id":9,"op":"chiplet","chiplets":4,"substrate":"rdl",)"
        R"("d2d_area_mm2":8})",
        R"({"op":"chiplet","substrate":"interposer","logic_area_mm2":120})",
    };
    std::string out;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        EXPECT_EQ(warm_hit_allocations(engine, line, out), 0u);
    }
    // Cache accounting: every one of those was a miss, never a hit.
    EXPECT_EQ(engine.cache_stats().hits, 0u);
    EXPECT_GT(engine.cache_stats().misses, 0u);
    EXPECT_EQ(engine.cache_stats().entries, 0u);

    // And the bytes are exactly the reference pipeline's.
    serve::engine reference{reference_config()};
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        engine.handle_line_into(line, out);
        EXPECT_EQ(out, reference_line(reference, line));
    }
}

TEST_F(HotPathAllocations, ColdMissIneligibleOpsStillAnswerCorrectly) {
    // Ops outside the zero-allocation gate (table3, mc_yield, sweeps;
    // chiplet and cost_tr repeated here) and error lines at cache
    // capacity 0 — allocations are allowed, bytes must match.
    serve::engine_config config = fast_config();
    config.cache_capacity = 0;
    serve::engine engine{config};
    serve::engine reference{reference_config()};
    const std::vector<std::string> lines = {
        R"({"op":"table3","row":3})",
        R"({"op":"chiplet","chiplets":4,"substrate":"rdl"})",
        R"({"op":"cost_tr","product":{"transistors":1e6}})",
        R"({"op":"mc_yield","dies":32,"seed":3})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":3,"target":{"op":"scenario1"}})",
        R"({"op":"yield","model":"voodoo"})",
        R"({"op":"scenario1","lambda_um":0})",
    };
    std::string out;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        for (int i = 0; i < 2; ++i) {
            engine.handle_line_into(line, out);
            EXPECT_EQ(out, reference_line(reference, line));
        }
    }
}

TEST_F(HotPathAllocations, ColdAndLegacyPathsStillWork) {
    // Sanity: the counter itself sees the cold path allocate.
    serve::engine engine{fast_config()};
    std::string out;
    const std::uint64_t before = t_allocations;
    engine.handle_line_into(R"({"op":"scenario1","lambda_um":0.61})", out);
    EXPECT_GT(t_allocations, before);
}

// ---------------------------------------------------------------------------
// Differential: arena-view parser vs DOM parser.
// ---------------------------------------------------------------------------

TEST(ArenaParser, MatchesDomParserOnCorpus) {
    exec::arena arena;
    serve::json::arena_parser parser;
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(500);
    lines.insert(lines.end(), extra.begin(), extra.end());

    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        std::string dom_dump;
        std::string dom_error;
        try {
            dom_dump = serve::json::dump(serve::json::parse(line));
        } catch (const serve::json::parse_error& e) {
            dom_error = e.what();
        }

        arena.reset();
        std::string view_dump;
        std::string view_error;
        try {
            const serve::json::aview& doc = parser.parse(line, arena);
            serve::json::dump_into(doc, view_dump);
        } catch (const serve::json::parse_error& e) {
            view_error = e.what();
        }

        EXPECT_EQ(dom_error, view_error);
        EXPECT_EQ(dom_dump, view_dump);
    }
}

// ---------------------------------------------------------------------------
// Differential: the engine's request parse (arena view of the raw line
// bytes -> parse_request_fast) vs the DOM entry point
// (json::parse -> parse_request, which re-parses a dump of the DOM).
// ---------------------------------------------------------------------------

TEST(FastParse, CanonicalKeysAndErrorsMatchLegacy) {
    exec::arena arena;
    serve::json::arena_parser parser;
    serve::fast_parse_state state;
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(1000);
    lines.insert(lines.end(), extra.begin(), extra.end());

    std::size_t errors = 0;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);

        std::string dom_key;
        std::string dom_error;
        try {
            const serve::request req =
                serve::parse_request(serve::json::parse(line));
            dom_key = req.canonical_key;
        } catch (const serve::request_error& e) {
            dom_error = std::string{e.code()} + ": " + e.what();
        } catch (const serve::json::parse_error&) {
            continue;  // parser equivalence is pinned above
        }

        std::string fast_key;
        std::string fast_error;
        try {
            arena.reset();
            const serve::json::aview& doc = parser.parse(line, arena);
            serve::parse_request_fast(doc, state);
            fast_key = state.req.canonical_key;
        } catch (const serve::request_error& e) {
            fast_error = std::string{e.code()} + ": " + e.what();
        }

        errors += dom_error.empty() ? 0 : 1;
        EXPECT_EQ(dom_error, fast_error);
        EXPECT_EQ(dom_key, fast_key);
    }
    // The corpus exercises both sides: valid requests and schema errors.
    EXPECT_GT(errors, 0u);
    EXPECT_LT(errors, lines.size());
}

// ---------------------------------------------------------------------------
// Whole-engine responses against the public-API reference.
// ---------------------------------------------------------------------------

TEST(HotPathEquivalence, ResponsesMatchLegacyColdAndWarm) {
    serve::engine engine{fast_config()};
    serve::engine reference{reference_config()};
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(300);
    lines.insert(lines.end(), extra.begin(), extra.end());

    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        if (is_stats(line)) {
            continue;  // live snapshot: legitimately differs
        }
        // Cold, then warm (warm exercises the allocation-free splice).
        const std::string expected = reference_line(reference, line);
        EXPECT_EQ(engine.handle_line(line), expected);
        EXPECT_EQ(engine.handle_line(line), expected);
    }
}

TEST(HotPathEquivalence, BatchesMatchLegacyAtEveryParallelism) {
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(200);
    lines.insert(lines.end(), extra.begin(), extra.end());
    // Duplicate a slice so intra-batch dedup actually triggers.
    for (std::size_t i = 0; i < 50 && i < lines.size(); ++i) {
        lines.push_back(lines[i]);
    }
    serve::engine reference{reference_config()};
    std::vector<std::string> expected;
    expected.reserve(lines.size());
    for (const std::string& line : lines) {
        expected.push_back(reference_line(reference, line));
    }

    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine_config config = fast_config();
        config.parallelism = parallelism;
        serve::engine engine{config};
        // Cold batch, then the same batch warm.
        for (int pass = 0; pass < 2; ++pass) {
            const std::vector<std::string> out = engine.handle_batch(lines);
            ASSERT_EQ(out.size(), lines.size());
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (is_stats(lines[i])) {
                    continue;
                }
                SCOPED_TRACE(lines[i]);
                EXPECT_EQ(out[i], expected[i])
                    << "parallelism=" << parallelism << " pass=" << pass;
            }
        }
    }
}

}  // namespace
