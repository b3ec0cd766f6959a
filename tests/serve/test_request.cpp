#include "serve/request.hpp"

#include "request_corpus.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace serve = silicon::serve;
namespace json = silicon::serve::json;

namespace {

serve::request parse(const std::string& text) {
    return serve::parse_request(json::parse(text));
}

std::string error_code(const std::string& text) {
    try {
        (void)parse(text);
    } catch (const serve::request_error& e) {
        return e.code();
    }
    return "";
}

TEST(RequestSchema, OpNamesRoundTrip) {
    for (int i = 0; i < serve::op_count; ++i) {
        const auto op = static_cast<serve::op_code>(i);
        const auto back = serve::op_from_string(serve::to_string(op));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, op);
    }
    EXPECT_FALSE(serve::op_from_string("frobnicate").has_value());
}

TEST(RequestSchema, DefaultsFillIn) {
    const serve::request r = parse(R"({"op":"scenario1"})");
    EXPECT_EQ(r.op, serve::op_code::scenario1);
    const auto& q = std::get<serve::scenario1_request>(r.payload);
    EXPECT_DOUBLE_EQ(q.lambda_um, 0.8);
    EXPECT_DOUBLE_EQ(q.c0_usd, 500.0);
    EXPECT_DOUBLE_EQ(q.x, 1.2);
    EXPECT_DOUBLE_EQ(q.design_density, 30.0);
}

TEST(RequestSchema, CanonicalKeyIgnoresMemberOrderAndDefaults) {
    const serve::request defaults = parse(R"({"op":"scenario1"})");
    const serve::request explicit_default =
        parse(R"({"op":"scenario1","lambda_um":0.8,"x":1.2})");
    const serve::request reordered =
        parse(R"({"x":1.2,"op":"scenario1","lambda_um":0.8})");
    EXPECT_EQ(defaults.canonical_key, explicit_default.canonical_key);
    EXPECT_EQ(defaults.canonical_key, reordered.canonical_key);

    const serve::request different =
        parse(R"({"op":"scenario1","lambda_um":0.5})");
    EXPECT_NE(defaults.canonical_key, different.canonical_key);
}

TEST(RequestSchema, CanonicalKeyMatchesRequestToJson) {
    // The parser's hand-ordered key emitters against the generic
    // serialize-then-sort reference, for every line of the shared
    // corpus that parses (sweeps included: their key splices the
    // target's emitted key).
    std::vector<std::string> lines = serve::test_corpus::corpus();
    const std::vector<std::string> extra =
        serve::test_corpus::fuzz_corpus(1000);
    lines.insert(lines.end(), extra.begin(), extra.end());
    lines.push_back(R"({"op":"cost_tr","product":{"transistors":2e6}})");
    std::size_t parsed = 0;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        serve::request r;
        try {
            r = parse(line);
        } catch (const std::exception&) {
            continue;  // error bytes are pinned by the silicond goldens
        }
        ++parsed;
        EXPECT_EQ(r.canonical_key,
                  json::canonical(serve::request_to_json(r)));
    }
    EXPECT_GT(parsed, lines.size() / 2);
}

TEST(RequestSchema, CanonicalKeyExcludesId) {
    const serve::request a = parse(R"({"op":"table3","row":3,"id":1})");
    const serve::request b = parse(R"({"op":"table3","row":3,"id":"x"})");
    const serve::request c = parse(R"({"op":"table3","row":3})");
    EXPECT_EQ(a.canonical_key, b.canonical_key);
    EXPECT_EQ(a.canonical_key, c.canonical_key);
    EXPECT_TRUE(a.has_id);
    EXPECT_FALSE(c.has_id);
    EXPECT_DOUBLE_EQ(a.id.as_number(), 1.0);
}

TEST(RequestSchema, NestedBlocksParse) {
    const serve::request r = parse(
        R"({"op":"cost_tr",
            "process":{"c0_usd":600,"yield":{"model":"scaled","d":2.0}},
            "product":{"transistors":3e6,"feature_size_um":0.5},
            "economics":{"overhead_usd":1e6,"volume_wafers":100}})");
    const auto& q = std::get<serve::cost_tr_request>(r.payload);
    EXPECT_DOUBLE_EQ(q.process.c0_usd, 600.0);
    EXPECT_EQ(q.process.yield.model, serve::yield_spec_params::kind::scaled);
    EXPECT_DOUBLE_EQ(q.process.yield.d, 2.0);
    EXPECT_DOUBLE_EQ(q.product.transistors, 3e6);
    EXPECT_DOUBLE_EQ(q.economics.volume_wafers, 100.0);
}

TEST(RequestSchema, ErrorCodes) {
    EXPECT_EQ(error_code(R"(["not an object"])"), "bad_request");
    EXPECT_EQ(error_code(R"({"lambda_um":0.5})"), "bad_request");  // no op
    EXPECT_EQ(error_code(R"({"op":"warp_drive"})"), "unknown_op");
    EXPECT_EQ(error_code(R"({"op":17})"), "bad_request");
    EXPECT_EQ(error_code(R"({"op":"scenario1","lambda":0.5})"),
              "unknown_field");
    EXPECT_EQ(error_code(R"({"op":"scenario1","lambda_um":"big"})"),
              "bad_param");
    EXPECT_EQ(error_code(R"({"op":"table3","row":18})"), "bad_param");
    EXPECT_EQ(error_code(R"({"op":"table3","row":-1})"), "bad_param");
    EXPECT_EQ(error_code(R"({"op":"table3","row":2.5})"), "bad_param");
    EXPECT_EQ(error_code(R"({"op":"mc_yield","dies":0})"), "bad_param");
    EXPECT_EQ(error_code(R"({"op":"mc_yield","seed":-1})"), "bad_param");
    EXPECT_EQ(error_code(R"({"op":"yield","model":"voodoo"})"), "bad_param");
    EXPECT_EQ(error_code(R"({"op":"gross_die","method":"guess"})"),
              "bad_param");
    EXPECT_EQ(error_code(R"({"op":"stats","extra":1})"), "unknown_field");
}

TEST(RequestSchema, SweepValidation) {
    // A valid sweep parses and canonicalizes its target.
    const serve::request ok = parse(
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,
            "count":4,"target":{"op":"scenario1"}})");
    const auto& q = std::get<serve::sweep_request>(ok.payload);
    ASSERT_NE(q.target, nullptr);
    EXPECT_EQ(q.target->op, serve::op_code::scenario1);
    EXPECT_EQ(q.count, 4);
    EXPECT_EQ(q.scale, "linear");

    const char* bad_count =
        R"({"op":"sweep","param":"x","from":1,"to":2,"count":0,
            "target":{"op":"scenario1"}})";
    EXPECT_EQ(error_code(bad_count), "bad_param");

    const char* log_nonpositive =
        R"({"op":"sweep","param":"x","from":0,"to":2,"scale":"log",
            "target":{"op":"scenario1"}})";
    EXPECT_EQ(error_code(log_nonpositive), "bad_param");

    const char* sweep_of_sweep =
        R"({"op":"sweep","param":"x","from":1,"to":2,
            "target":{"op":"sweep","param":"y","from":1,"to":2,
                      "target":{"op":"scenario1"}}})";
    EXPECT_EQ(error_code(sweep_of_sweep), "bad_param");

    const char* stats_target =
        R"({"op":"sweep","param":"x","from":1,"to":2,
            "target":{"op":"stats"}})";
    EXPECT_EQ(error_code(stats_target), "bad_param");

    const char* target_with_id =
        R"({"op":"sweep","param":"x","from":1,"to":2,
            "target":{"op":"scenario1","id":5}})";
    EXPECT_EQ(error_code(target_with_id), "bad_param");

    const char* unknown_param =
        R"({"op":"sweep","param":"warp","from":1,"to":2,
            "target":{"op":"scenario1"}})";
    EXPECT_EQ(error_code(unknown_param), "bad_param");
}

TEST(RequestSchema, SweepDottedParamPath) {
    const serve::request r = parse(
        R"({"op":"sweep","param":"product.feature_size_um","from":0.5,
            "to":1.5,"count":3,"target":{"op":"cost_tr"}})");
    const auto& q = std::get<serve::sweep_request>(r.payload);
    EXPECT_EQ(q.param, "product.feature_size_um");
}

TEST(RequestSchema, PrimaryMetric) {
    using serve::op_code;
    EXPECT_STREQ(serve::primary_metric(op_code::cost_tr),
                 "cost_per_transistor_usd");
    EXPECT_STREQ(serve::primary_metric(op_code::scenario1),
                 "cost_per_transistor_usd");
    EXPECT_STREQ(serve::primary_metric(op_code::gross_die), "count");
    EXPECT_STREQ(serve::primary_metric(op_code::yield), "yield");
    EXPECT_STREQ(serve::primary_metric(op_code::mc_yield), "yield");
    EXPECT_EQ(serve::primary_metric(op_code::table3), nullptr);
    EXPECT_EQ(serve::primary_metric(op_code::sweep), nullptr);
    EXPECT_EQ(serve::primary_metric(op_code::stats), nullptr);
}

TEST(RequestSchema, RequestToJsonIsReparseable) {
    const serve::request r = parse(
        R"({"op":"mc_yield","dies":500,"seed":7,"line_count":9})");
    const serve::request again = serve::parse_request(request_to_json(r));
    EXPECT_EQ(again.canonical_key, r.canonical_key);
    const auto& q = std::get<serve::mc_yield_request>(again.payload);
    EXPECT_EQ(q.dies, 500);
    EXPECT_EQ(q.seed, 7u);
    EXPECT_EQ(q.line_count, 9);
}

}  // namespace
