#include "gen.hpp"

#include "serve/json.hpp"
#include "serve/request.hpp"

#include <array>
#include <charconv>
#include <stdexcept>
#include <unordered_set>
#include <variant>

namespace perfbench {
namespace {

/// Appends `"name":value` (shortest round-trip double) and a comma.
void num(std::string& out, const char* name, double v) {
    out += '"';
    out += name;
    out += "\":";
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
    out += ',';
}

void integer(std::string& out, const char* name, std::uint64_t v) {
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(v);
    out += ',';
}

void str(std::string& out, const char* name, std::string_view v) {
    out += '"';
    out += name;
    out += "\":\"";
    out += v;
    out += "\",";
}

/// Opens `{"op":"<op>",`.
std::string open(std::string_view op) {
    std::string out = "{\"op\":\"";
    out += op;
    out += "\",";
    return out;
}

/// Replaces the trailing comma with the closing brace.
std::string close(std::string out) {
    out.back() = '}';
    return out;
}

constexpr std::array<const char*, 7> yield_models = {
    "poisson",      "murphy",         "seeds",    "bose_einstein",
    "neg_binomial", "scaled_poisson", "reference"};

constexpr std::array<const char*, 6> gross_die_methods = {
    "maly_rows",     "maly_rows_best_orient", "area_ratio",
    "circumference", "ferris_prabhu",         "exact"};

constexpr std::array<const char*, 3> substrates = {"organic", "rdl",
                                                   "interposer"};

/// Yield-model parameters shared by point queries and sweep targets;
/// `sweep_area` leaves die_area_cm2 to the sweep.
void yield_params(std::string& out, splitmix64& rng, const char* model,
                  bool sweep_area) {
    str(out, "model", model);
    if (!sweep_area) {
        num(out, "die_area_cm2", rng.range(0.1, 3.0));
    }
    const std::string_view m = model;
    if (m == "scaled_poisson") {
        num(out, "lambda_um", rng.range(0.3, 1.2));
        num(out, "d", rng.range(1.0, 2.5));
        num(out, "p", rng.range(3.5, 4.5));
    } else if (m == "reference") {
        num(out, "y0", rng.range(0.5, 0.95));
        num(out, "a0_cm2", rng.range(0.5, 2.0));
    } else {
        num(out, "defects_per_cm2", rng.range(0.1, 2.0));
        if (m == "bose_einstein") {
            integer(out, "critical_steps", 5 + rng.below(16));
        } else if (m == "neg_binomial") {
            num(out, "alpha", rng.range(0.5, 4.0));
        }
    }
}

std::string cost_tr_line(splitmix64& rng) {
    std::string out = open("cost_tr");
    out += "\"process\":{";
    num(out, "c0_usd", rng.range(300.0, 800.0));
    num(out, "x", rng.range(1.2, 1.8));
    out.back() = '}';
    out += ",\"product\":{";
    num(out, "transistors", rng.range(2e5, 2e6));
    num(out, "design_density", rng.range(100.0, 200.0));
    num(out, "feature_size_um", rng.range(0.35, 1.0));
    out.back() = '}';
    out += ',';
    return close(std::move(out));
}

std::string gross_die_line(splitmix64& rng) {
    std::string out = open("gross_die");
    num(out, "wafer_radius_cm", rng.range(7.5, 15.0));
    num(out, "die_width_mm", rng.range(3.0, 20.0));
    num(out, "die_height_mm", rng.range(3.0, 20.0));
    str(out, "method", gross_die_methods[rng.below(gross_die_methods.size())]);
    return close(std::move(out));
}

std::string yield_line(splitmix64& rng) {
    std::string out = open("yield");
    yield_params(out, rng, yield_models[rng.below(yield_models.size())],
                 false);
    return close(std::move(out));
}

std::string scenario1_line(splitmix64& rng) {
    std::string out = open("scenario1");
    num(out, "lambda_um", rng.range(0.3, 1.5));
    num(out, "c0_usd", rng.range(300.0, 800.0));
    num(out, "design_density", rng.range(20.0, 40.0));
    return close(std::move(out));
}

std::string scenario2_line(splitmix64& rng) {
    std::string out = open("scenario2");
    num(out, "lambda_um", rng.range(0.3, 1.5));
    num(out, "c0_usd", rng.range(300.0, 800.0));
    num(out, "y0", rng.range(0.5, 0.9));
    return close(std::move(out));
}

std::string chiplet_line(splitmix64& rng) {
    constexpr std::array<int, 4> counts = {1, 2, 4, 8};
    std::string out = open("chiplet");
    integer(out, "chiplets",
            static_cast<std::uint64_t>(counts[rng.below(counts.size())]));
    num(out, "logic_area_mm2", rng.range(100.0, 600.0));
    num(out, "memory_area_mm2", rng.range(50.0, 300.0));
    num(out, "io_area_mm2", rng.range(20.0, 150.0));
    num(out, "defects_per_cm2", rng.range(0.1, 1.0));
    str(out, "substrate", substrates[rng.below(substrates.size())]);
    return close(std::move(out));
}

std::string table3_line(int row) {
    return "{\"op\":\"table3\",\"row\":" + std::to_string(row) + "}";
}

/// A sweep of `target` over `param`; the endpoints are drawn from
/// [from_lo, from_hi) and [to_lo, to_hi) in that order.
std::string sweep_line(splitmix64& rng, std::string_view param,
                       double from_lo, double from_hi, double to_lo,
                       double to_hi, int count, const std::string& target) {
    const double from = rng.range(from_lo, from_hi);
    const double to = rng.range(to_lo, to_hi);
    std::string out = open("sweep");
    str(out, "param", param);
    num(out, "from", from);
    num(out, "to", to);
    integer(out, "count", static_cast<std::uint64_t>(count));
    out += "\"target\":";
    out += target;
    out += ',';
    return close(std::move(out));
}

}  // namespace

splitmix64 rng_for(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t index) noexcept {
    splitmix64 mix{seed ^ 0x243f6a8885a308d3ULL};
    const std::uint64_t a = mix.next() ^ (stream * 0x9e3779b97f4a7c15ULL);
    splitmix64 mix2{a};
    const std::uint64_t b = mix2.next() ^ (index * 0xd1b54a32d192ed03ULL);
    splitmix64 out{b};
    out.next();
    return out;
}

std::optional<workload> workload_from(std::string_view name) {
    if (name == "point_hot") {
        return workload::point_hot;
    }
    if (name == "point_cold") {
        return workload::point_cold;
    }
    if (name == "explore") {
        return workload::explore;
    }
    return std::nullopt;
}

std::string_view to_string(workload w) {
    switch (w) {
        case workload::point_hot:
            return "point_hot";
        case workload::point_cold:
            return "point_cold";
        case workload::explore:
            return "explore";
    }
    return "?";
}

std::string cold_point_line(splitmix64& rng) {
    // Weights out of 100: cost_tr 15, gross_die 15, yield 28,
    // scenario1 10, scenario2 10, chiplet 22.
    const std::uint64_t pick = rng.below(100);
    if (pick < 15) {
        return cost_tr_line(rng);
    }
    if (pick < 30) {
        return gross_die_line(rng);
    }
    if (pick < 58) {
        return yield_line(rng);
    }
    if (pick < 68) {
        return scenario1_line(rng);
    }
    if (pick < 78) {
        return scenario2_line(rng);
    }
    return chiplet_line(rng);
}

std::vector<std::string> hot_working_set(std::uint64_t seed) {
    std::vector<std::string> set;
    set.reserve(hot_keys);
    std::unordered_set<std::string> seen;
    seen.reserve(hot_keys * 2);
    // Every Table 3 row (0 = the whole table) is one key of the set.
    for (int row = 0; row <= 17; ++row) {
        set.push_back(table3_line(row));
        seen.insert(set.back());
    }
    for (std::uint64_t i = 0; set.size() < hot_keys; ++i) {
        splitmix64 rng = rng_for(seed, stream_hot_set, i);
        std::string line = cold_point_line(rng);
        if (seen.insert(line).second) {
            set.push_back(std::move(line));
        }
    }
    // Interleave the table3 rows with the rest (deterministic shuffle).
    splitmix64 rng = rng_for(seed, stream_hot_set, ~0ULL);
    for (std::size_t i = set.size() - 1; i > 0; --i) {
        std::swap(set[i], set[rng.below(i + 1)]);
    }
    return set;
}

std::string explore_line(splitmix64& rng, std::uint64_t kind) {
    switch (kind % explore_kinds) {
        case 0: {
            std::string target = open("scenario1");
            num(target, "c0_usd", rng.range(300.0, 800.0));
            num(target, "design_density", rng.range(20.0, 40.0));
            return sweep_line(rng, "lambda_um", 0.30, 0.35, 1.45, 1.5, 4096,
                              close(std::move(target)));
        }
        case 1: {
            std::string target = open("scenario2");
            num(target, "c0_usd", rng.range(300.0, 800.0));
            num(target, "y0", rng.range(0.5, 0.9));
            return sweep_line(rng, "lambda_um", 0.30, 0.35, 1.45, 1.5, 4096,
                              close(std::move(target)));
        }
        case 2: {
            std::string target = open("yield");
            yield_params(target, rng,
                         yield_models[rng.below(yield_models.size())], true);
            return sweep_line(rng, "die_area_cm2", 0.1, 0.15, 2.9, 3.0, 4096,
                              close(std::move(target)));
        }
        case 3: {
            std::string target = open("cost_tr");
            target += "\"product\":{";
            num(target, "design_density", rng.range(100.0, 200.0));
            num(target, "feature_size_um", rng.range(0.35, 1.0));
            target.back() = '}';
            target += ',';
            return sweep_line(rng, "product.transistors",
                              2e5, 2.2e5, 1.9e6, 2e6,
                              1024, close(std::move(target)));
        }
        case 4: {
            std::string out = open("partition_explore");
            str(out, "splits", "1,2,4,8");
            num(out, "area_from_mm2", rng.range(40.0, 50.0));
            num(out, "area_to_mm2", rng.range(900.0, 1000.0));
            integer(out, "count", 256);
            num(out, "defects_per_cm2", rng.range(0.1, 1.0));
            return close(std::move(out));
        }
        default: {
            std::string out = open("mc_yield");
            integer(out, "dies", 20000);
            num(out, "defects_per_um2", rng.range(0.8e-4, 1.2e-4));
            integer(out, "seed", rng.next() >> 12);
            return close(std::move(out));
        }
    }
}

generator::generator(workload w, std::uint64_t seed)
    : kind_{w}, seed_{seed}, hot_{hot_working_set(seed)} {}

std::string generator::line(std::uint64_t stream, std::uint64_t index) const {
    if (stream == stream_hot_set && !hot_.empty()) {
        return hot_[index % hot_.size()];
    }
    splitmix64 rng = rng_for(seed_, stream, index);
    if (stream == stream_probe || kind_ == workload::point_hot) {
        return hot_[rng.below(hot_.size())];
    }
    if (kind_ == workload::point_cold || stream == stream_warm) {
        return cold_point_line(rng);
    }
    // Kinds cycle by index, so every run has the same request mix.
    return explore_line(rng, index + stream);
}

std::uint64_t count_lanes(std::string_view line) {
    namespace serve = silicon::serve;
    try {
        const serve::request r = serve::parse_request(serve::json::parse(line));
        if (const auto* s = std::get_if<serve::sweep_request>(&r.payload)) {
            return static_cast<std::uint64_t>(s->count);
        }
        if (const auto* p =
                std::get_if<serve::partition_explore_request>(&r.payload)) {
            std::uint64_t splits = 1;
            for (const char c : p->splits) {
                splits += c == ',' ? 1 : 0;
            }
            return splits * static_cast<std::uint64_t>(p->count);
        }
        return 1;
    } catch (const std::exception&) {
        return 0;
    }
}

std::string canonical_key(std::string_view line) {
    namespace serve = silicon::serve;
    try {
        return serve::parse_request(serve::json::parse(line)).canonical_key;
    } catch (const std::exception&) {
        return {};
    }
}

}  // namespace perfbench
