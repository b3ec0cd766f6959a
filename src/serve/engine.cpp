#include "serve/engine.hpp"

#include "chiplet/batch.hpp"
#include "chiplet/model.hpp"
#include "core/cost_model.hpp"
#include "cost/batch.hpp"
#include "exec/arena.hpp"
#include "obs/trace.hpp"
#include "core/scenario.hpp"
#include "core/table3.hpp"
#include "exec/thread_pool.hpp"
#include "geometry/gross_die.hpp"
#include "opt/partition.hpp"
#include "serve/faults.hpp"
#include "serve/json_arena.hpp"
#include "serve/request_fast.hpp"
#include "simd/dispatch.hpp"
#include "yield/batch.hpp"
#include "yield/models.hpp"
#include "yield/monte_carlo.hpp"
#include "yield/scaled.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace silicon::serve {

namespace {

// ---------------------------------------------------------------------------
// Endpoint writers: typed request -> result body.  Each routes into the
// library exactly as a direct caller would, appends the result object
// to `out` with the JSON writer's own number and string formatting, and
// returns the endpoint's primary metric (NaN when it has none).
// Invalid or infeasible inputs surface as the library's own exceptions
// and become error responses upstream.  Once `out` has grown, the
// closed-form writers allocate nothing.
// ---------------------------------------------------------------------------

constexpr double no_metric = std::numeric_limits<double>::quiet_NaN();

/// `[v0,v1,...]`; non-finite entries (NaN lanes) print as null.
void numbers_into(const std::vector<double>& v, std::string& out) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        json::format_number_into(v[i], out);
    }
    out += ']';
}

/// Appends one JSON object member by member, in call order — the bytes
/// json::dump writes for the same members.  Keys are literal
/// identifiers, so they need no escaping.
class object_writer {
public:
    explicit object_writer(std::string& out) : out_{out} {}

    /// Opens member `k`; the caller appends its value.
    std::string& key(std::string_view k) {
        out_ += first_ ? '{' : ',';
        first_ = false;
        out_ += '"';
        out_ += k;
        out_ += "\":";
        return out_;
    }
    void number(std::string_view k, double v) {
        json::format_number_into(v, key(k));
    }
    void text(std::string_view k, std::string_view s) {
        json::write_string_into(key(k), s);
    }
    void numbers(std::string_view k, const std::vector<double>& v) {
        numbers_into(v, key(k));
    }
    void close() {
        if (first_) {
            out_ += '{';
        }
        out_ += '}';
    }

private:
    std::string& out_;
    bool first_ = true;
};

/// The parser validated the name, so the throw is unreachable.  Matches
/// literals (geometry::to_string builds strings) so the closed-form
/// path stays allocation-free.
geometry::gross_die_method method_from_name(std::string_view name) {
    using geometry::gross_die_method;
    if (name == "maly_rows") return gross_die_method::maly_rows;
    if (name == "maly_rows_best_orient") {
        return gross_die_method::maly_rows_best_orient;
    }
    if (name == "area_ratio") return gross_die_method::area_ratio;
    if (name == "circumference") return gross_die_method::circumference;
    if (name == "ferris_prabhu") return gross_die_method::ferris_prabhu;
    if (name == "exact") return gross_die_method::exact;
    throw request_error("bad_param",
                        "unknown gross-die method '" + std::string{name} +
                            "'");
}

core::process_spec build_process(const process_params& p) {
    core::yield_spec yield{probability{1.0}};
    switch (p.yield.model) {
        case yield_spec_params::kind::reference:
            yield = yield::reference_die_yield{
                probability{p.yield.y0},
                square_centimeters{p.yield.a0_cm2}};
            break;
        case yield_spec_params::kind::scaled:
            yield = yield::scaled_poisson_model{p.yield.d, p.yield.p};
            break;
        case yield_spec_params::kind::fixed:
            yield = probability{p.yield.fixed};
            break;
    }
    return core::process_spec{
        cost::wafer_cost_model{dollars{p.c0_usd}, p.x,
                               microns{p.generation_step_um}},
        geometry::wafer{centimeters{p.wafer_radius_cm},
                        centimeters{p.edge_exclusion_cm}},
        std::move(yield),
        method_from_name(p.gross_die_method),
    };
}

double cost_tr_into(const cost_tr_request& q, std::string& out) {
    const core::cost_model model{build_process(q.process)};

    core::product_spec product;
    product.name = q.product.name;
    product.transistors = q.product.transistors;
    product.design_density = q.product.design_density;
    product.feature_size = microns{q.product.feature_size_um};
    product.die_aspect_ratio = q.product.die_aspect_ratio;

    core::economics_spec economics;
    economics.overhead = dollars{q.economics.overhead_usd};
    economics.volume_wafers = q.economics.volume_wafers;

    const core::cost_breakdown b = model.evaluate(product, economics);

    object_writer w{out};
    w.text("product", b.product_name);
    w.number("feature_size_um", b.feature_size.value());
    w.number("die_area_mm2", b.die_area.value());
    w.number("gross_dies_per_wafer",
             static_cast<double>(b.gross_dies_per_wafer));
    w.number("yield", b.yield.value());
    w.number("good_dies_per_wafer", b.good_dies_per_wafer);
    w.number("wafer_cost_usd", b.wafer_cost.value());
    w.number("cost_per_good_die_usd", b.cost_per_good_die.value());
    w.number("cost_per_transistor_usd", b.cost_per_transistor.value());
    w.number("cost_per_transistor_micro_usd",
             b.cost_per_transistor_micro_dollars());
    w.close();
    return b.cost_per_transistor.value();
}

double gross_die_into(const gross_die_request& q, std::string& out) {
    const geometry::wafer wafer{centimeters{q.wafer_radius_cm},
                                centimeters{q.edge_exclusion_cm}};
    const geometry::die d{millimeters{q.die_width_mm},
                          millimeters{q.die_height_mm}};
    const auto count = static_cast<double>(geometry::gross_dies(
        wafer, d, method_from_name(q.method), millimeters{q.scribe_mm}));
    object_writer w{out};
    w.number("count", count);
    w.text("method", q.method);
    w.number("die_area_mm2", d.area().value());
    w.number("wafer_area_cm2", wafer.area().value());
    w.close();
    return count;
}

double yield_into(const yield_request& q, std::string& out) {
    object_writer w{out};
    w.text("model", q.model);
    double y = 0.0;
    if (q.model == "scaled_poisson") {
        const yield::scaled_poisson_model model{q.d, q.p};
        y = model.yield(square_centimeters{q.die_area_cm2},
                        microns{q.lambda_um})
                .value();
        w.number("yield", y);
        w.number("effective_defects_per_cm2",
                 model.effective_defect_density(microns{q.lambda_um}));
    } else if (q.model == "reference") {
        const yield::reference_die_yield model{probability{q.y0},
                                               square_centimeters{q.a0_cm2}};
        y = model.yield(square_centimeters{q.die_area_cm2}).value();
        w.number("yield", y);
        w.number("equivalent_defects_per_cm2",
                 model.equivalent_defect_density());
    } else {
        const double faults = q.expected_faults >= 0.0
                                  ? q.expected_faults
                                  : q.die_area_cm2 * q.defects_per_cm2;
        if (!(faults >= 0.0) || !std::isfinite(faults)) {
            throw request_error("bad_param",
                                "yield: expected fault count must be finite "
                                "and non-negative");
        }
        if (q.model == "poisson") {
            y = yield::poisson_model{}.yield(faults).value();
        } else if (q.model == "murphy") {
            y = yield::murphy_model{}.yield(faults).value();
        } else if (q.model == "seeds") {
            y = yield::seeds_model{}.yield(faults).value();
        } else if (q.model == "bose_einstein") {
            y = yield::bose_einstein_model{q.critical_steps}
                    .yield(faults)
                    .value();
        } else if (q.model == "neg_binomial") {
            y = yield::negative_binomial_model{q.alpha}.yield(faults).value();
        } else {
            throw request_error("bad_param",
                                "yield: unknown model '" + q.model + "'");
        }
        w.number("expected_faults", faults);
        w.number("yield", y);
    }
    w.close();
    return y;
}

double scenario1_into(const scenario1_request& q, std::string& out) {
    core::scenario1 s;
    s.wafer_cost = cost::wafer_cost_model{dollars{q.c0_usd}, q.x};
    s.wafer = geometry::wafer{centimeters{q.wafer_radius_cm}};
    s.design_density = q.design_density;
    const double ctr = s.cost_per_transistor(microns{q.lambda_um}).value();
    object_writer w{out};
    w.number("cost_per_transistor_usd", ctr);
    w.number("cost_per_transistor_micro_usd", ctr * 1e6);
    w.close();
    return ctr;
}

double scenario2_into(const scenario2_request& q, std::string& out) {
    core::scenario2 s;
    s.wafer_cost = cost::wafer_cost_model{dollars{q.c0_usd}, q.x};
    s.wafer = geometry::wafer{centimeters{q.wafer_radius_cm}};
    s.design_density = q.design_density;
    s.yield = yield::reference_die_yield{probability{q.y0}};
    const microns lambda{q.lambda_um};
    const double ctr = s.cost_per_transistor(lambda).value();
    object_writer w{out};
    w.number("cost_per_transistor_usd", ctr);
    w.number("cost_per_transistor_micro_usd", ctr * 1e6);
    w.number("die_area_cm2", s.die_area(lambda).value());
    w.number("transistors", s.transistors(lambda));
    w.close();
    return ctr;
}

void comparison_into(const core::table3_comparison& c, std::string& out) {
    object_writer w{out};
    w.number("row", c.row.index);
    w.text("ic_type", c.row.ic_type);
    w.number("printed_ctr_micro", c.row.printed_ctr_micro);
    w.number("computed_ctr_micro", c.computed_ctr_micro);
    w.number("ratio", c.ratio);
    w.key("reconstructed") += c.row.reconstructed ? "true" : "false";
    w.close();
}

void table3_into(const table3_request& q, std::string& out) {
    const std::vector<core::table3_comparison> all = core::reproduce_table3();
    if (q.row != 0) {
        for (const core::table3_comparison& c : all) {
            if (c.row.index == q.row) {
                comparison_into(c, out);
                return;
            }
        }
        throw request_error("bad_param", "table3: no row " +
                                             std::to_string(q.row));
    }
    object_writer w{out};
    std::string& rows = w.key("rows");
    rows += '[';
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i != 0) {
            rows += ',';
        }
        comparison_into(all[i], rows);
    }
    rows += ']';
    w.number("memory_logic_separation", core::memory_logic_separation());
    w.close();
}

double mc_yield_into(const mc_yield_request& q, unsigned parallelism,
                     const exec::cancel_token* cancel, std::string& out) {
    yield::wire_array_layout layout;
    layout.line_width = q.line_width_um;
    layout.line_spacing = q.line_spacing_um;
    layout.line_length = q.line_length_um;
    layout.line_count = q.line_count;

    const yield::defect_size_distribution sizes{q.defect_r0_um, q.defect_p,
                                                q.defect_q};

    yield::monte_carlo_config config;
    config.dies = static_cast<std::size_t>(q.dies);
    config.defects_per_um2 = q.defects_per_um2;
    config.extra_material_fraction = q.extra_material_fraction;
    config.seed = q.seed;
    config.parallelism = parallelism;
    config.cancel = cancel;

    const yield::monte_carlo_result r =
        yield::simulate_layout_yield(layout, sizes, config);

    object_writer w{out};
    w.number("dies", static_cast<double>(r.dies));
    w.number("good_dies", static_cast<double>(r.good_dies));
    w.number("defects_thrown", static_cast<double>(r.defects_thrown));
    w.number("shorts", static_cast<double>(r.shorts));
    w.number("opens", static_cast<double>(r.opens));
    w.number("yield", r.yield);
    w.number("std_error", r.std_error);
    w.number("observed_faults_per_die", r.observed_faults_per_die());
    w.close();
    return r.yield;
}

chiplet::substrate_kind substrate_from_string(const std::string& name) {
    if (name == "rdl") {
        return chiplet::substrate_kind::rdl;
    }
    if (name == "interposer") {
        return chiplet::substrate_kind::interposer;
    }
    return chiplet::substrate_kind::organic;  // parse validated the enum
}

chiplet::chiplet_spec spec_from(const chiplet_request& q) {
    chiplet::chiplet_spec s;
    s.logic_area_mm2 = q.logic_area_mm2;
    s.memory_area_mm2 = q.memory_area_mm2;
    s.io_area_mm2 = q.io_area_mm2;
    s.chiplets = q.chiplets;
    s.d2d_area_mm2 = q.d2d_area_mm2;
    s.lambda_um = q.lambda_um;
    s.c0_usd = q.c0_usd;
    s.x = q.x;
    s.generation_step_um = q.generation_step_um;
    s.wafer_radius_cm = q.wafer_radius_cm;
    s.edge_exclusion_cm = q.edge_exclusion_cm;
    s.defects_per_cm2 = q.defects_per_cm2;
    s.memory_defect_factor = q.memory_defect_factor;
    s.io_defect_factor = q.io_defect_factor;
    s.clustering_alpha = q.clustering_alpha;
    s.test_coverage = q.test_coverage;
    s.tester_rate_per_hour = q.tester_rate_per_hour;
    s.test_seconds_fixed = q.test_seconds_fixed;
    s.test_seconds_per_cm2 = q.test_seconds_per_cm2;
    s.substrate = substrate_from_string(q.substrate);
    s.substrate_cost_per_cm2 = q.substrate_cost_per_cm2;
    s.rdl_cost_per_cm2 = q.rdl_cost_per_cm2;
    s.rdl_defects_per_cm2 = q.rdl_defects_per_cm2;
    s.interposer_cost_per_cm2 = q.interposer_cost_per_cm2;
    s.interposer_defects_per_cm2 = q.interposer_defects_per_cm2;
    s.package_area_factor = q.package_area_factor;
    s.bond_yield = q.bond_yield;
    s.bonding_cost_per_chiplet = q.bonding_cost_per_chiplet;
    return s;
}

/// The chiplet endpoint's result object from a computed breakdown.
/// Explore cells cache these bytes too, so a cached cell is
/// byte-identical to a fresh point evaluation.
double chiplet_into(const chiplet::chiplet_breakdown& b,
                    std::string_view substrate, std::string& out) {
    object_writer w{out};
    w.number("chiplets", static_cast<double>(b.chiplets));
    w.number("total_area_mm2", b.total_area_mm2);
    w.number("chiplet_area_mm2", b.chiplet_area_mm2);
    w.number("die_yield", b.die_yield);
    w.number("gross_dies_per_wafer", b.gross_dies_per_wafer);
    w.number("wafer_cost_usd", b.wafer_cost_usd);
    w.number("die_cost_usd", b.die_cost_usd);
    w.number("test_cost_per_die_usd", b.test_cost_per_die_usd);
    w.number("defect_level", b.defect_level);
    w.text("substrate", substrate);
    w.number("package_area_cm2", b.package_area_cm2);
    w.number("substrate_cost_usd", b.substrate_cost_usd);
    w.number("substrate_yield", b.substrate_yield);
    w.number("assembly_yield", b.assembly_yield);
    w.number("module_yield", b.module_yield);
    w.number("bonding_cost_usd", b.bonding_cost_usd);
    w.number("cost_per_system_usd", b.cost_per_system_usd);
    w.number("cost_per_good_system_usd", b.cost_per_good_system_usd);
    w.close();
    return b.cost_per_good_system_usd;
}

/// The split counts of a validated partition_explore `splits` list
/// ("1,2,4" -> {1, 2, 4}).  Parse already enforced the grammar, so
/// this cannot fail.
std::vector<int> parse_splits(const std::string& splits) {
    std::vector<int> out;
    int value = 0;
    for (const char c : splits) {
        if (c == ',') {
            out.push_back(value);
            value = 0;
        } else {
            value = value * 10 + (c - '0');
        }
    }
    out.push_back(value);
    return out;
}

/// Grid cells a partition_explore request evaluates (splits x points);
/// the structural budget check charges against max_sweep_points.
std::size_t explore_cells(const partition_explore_request& q) {
    std::size_t split_count = 1;
    for (const char c : q.splits) {
        split_count += c == ',' ? 1 : 0;
    }
    return static_cast<std::size_t>(q.count) * split_count;
}

/// Grid points on [from, to], endpoints inclusive, linear or geometric.
/// Shared by sweep and partition_explore so both produce bit-identical
/// grids for the same bounds.
std::vector<double> grid_points(double from, double to, int count,
                                bool log_scale) {
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(count));
    if (count == 1) {
        xs.push_back(from);
        return xs;
    }
    for (int i = 0; i < count; ++i) {
        const double t = static_cast<double>(i) /
                         static_cast<double>(count - 1);
        if (log_scale) {
            xs.push_back(from * std::exp(t * std::log(to / from)));
        } else {
            xs.push_back(from + t * (to - from));
        }
    }
    return xs;
}


std::string error_code_for(const std::exception& e) {
    if (const auto* schema = dynamic_cast<const request_error*>(&e)) {
        return schema->code();
    }
    if (dynamic_cast<const exec::cancelled_error*>(&e) != nullptr) {
        // Before the generic buckets: cancelled_error is a
        // runtime_error, and its fixed what() keeps the envelope
        // byte-deterministic.
        return "deadline_exceeded";
    }
    if (dynamic_cast<const std::domain_error*>(&e) != nullptr) {
        return "domain_error";
    }
    if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
        return "bad_param";
    }
    return "internal_error";
}

/// Opens a response envelope in `out`: `{"id":..,"trace_id":..,"ok":..,`
/// then `"result":` or `"error":`; the caller appends the body and the
/// closing brace.  `id` and `trace` are spliced straight from the arena
/// document (dump_into/write_string_into escape exactly like json::dump),
/// and a line without them echoes neither.  A cache-hit result splices
/// in verbatim, so its bytes are identical to a fresh evaluation's.
void open_envelope(const json::aview* id, const json::aview* trace, bool ok,
                   std::string& out) {
    out += '{';
    if (id != nullptr) {
        out += "\"id\":";
        json::dump_into(*id, out);
        out += ',';
    }
    if (trace != nullptr) {
        out += "\"trace_id\":";
        json::write_string_into(out, trace->string);
        out += ',';
    }
    out += ok ? "\"ok\":true,\"result\":" : "\"ok\":false,\"error\":";
}

/// Best-effort `id` rendering for a flight record: strings verbatim,
/// numbers via shortest-round-trip to_chars (no allocation — the hot
/// path fills records too), everything else elided (records are
/// fixed-size; a composite id would truncate arbitrarily).
void flight_number_field(char (&dst)[32], double v) noexcept {
    char buf[40];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec == std::errc{}) {
        obs::assign_field(
            dst, std::string_view{buf, static_cast<std::size_t>(end - buf)});
    }
}

void flight_id_field(char (&dst)[32], const json::aview* id) {
    if (id == nullptr) {
        return;
    }
    if (id->is_string()) {
        obs::assign_field(dst, id->string);
    } else if (id->is_number()) {
        flight_number_field(dst, id->number);
    }
}

std::uint32_t ns_to_us_u32(std::uint64_t ns) noexcept {
    const std::uint64_t us = ns / 1000;
    return us > UINT32_MAX ? UINT32_MAX
                           : static_cast<std::uint32_t>(us);
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Anomaly trigger set (DESIGN.md §14): transient failures worth a
/// flight dump.  deadline_exceeded and overloaded are self-describing;
/// internal_error is how an injected (or real) allocation failure
/// surfaces, so "fault fired" lands here.
bool anomalous_code(std::string_view code) noexcept {
    return code == "deadline_exceeded" || code == "overloaded" ||
           code == "internal_error";
}

/// Canonical point keys of a sweep's lanes.  Lanes differ only in the
/// swept number, so the key is emitted once around two probe values
/// and each lane splices its number between the shared prefix and
/// suffix — the bytes canonical_key_into writes for the lane's request.
class lane_keys {
public:
    lane_keys(request target, std::string_view param) {
        std::string one;
        std::string two;
        (void)set_numeric_param(target, param, 1.0);
        canonical_key_into(target, one);
        (void)set_numeric_param(target, param, 2.0);
        canonical_key_into(target, two);
        std::size_t head = 0;
        while (one[head] == two[head]) {
            ++head;
        }
        std::size_t tail = 0;
        while (one[one.size() - 1 - tail] == two[two.size() - 1 - tail]) {
            ++tail;
        }
        prefix_ = one.substr(0, head);
        suffix_ = one.substr(one.size() - tail);
    }

    void key_into(double x, std::string& out) const {
        out = prefix_;
        json::format_number_into(x, out);
        out += suffix_;
    }

private:
    std::string prefix_;
    std::string suffix_;
};

/// The `serve.eval` fault site: fires once per cache miss, before the
/// evaluation.
void eval_fault_site() {
    if (faults::enabled()) {
        faults::maybe_delay("serve.eval");
        if (faults::should_fail("serve.eval")) {
            throw std::bad_alloc{};
        }
    }
}

/// Deadline instant for a request that started at `start`.  The budget
/// is clamped far below the time_point's representable range (~31
/// years) so arithmetic never overflows; a clamped deadline never
/// expires in practice, which is the right reading of an absurd value.
std::chrono::steady_clock::time_point deadline_from(
    std::chrono::steady_clock::time_point start, std::uint64_t budget_ms) {
    constexpr std::uint64_t max_ms = 1'000'000'000'000;
    if (budget_ms > max_ms) {
        budget_ms = max_ms;
    }
    return start +
           std::chrono::milliseconds{static_cast<std::int64_t>(budget_ms)};
}

/// Per-thread line scratch: the parse arena, the arena-view parser and
/// the reused request.  Engine instances share it safely — it holds no
/// engine state, only per-line storage that is fully rewritten by each
/// parse.  Evaluation never re-enters a line on the same thread (exec
/// runs only the caller's own shards), so the parsed request stays
/// valid until its line is answered.
struct line_state {
    exec::arena arena;
    json::arena_parser parser;
    fast_parse_state parsed;
    /// Cache-miss result body (capacity reused by closed-form misses).
    std::string body;
    /// Reads lane metrics back out of cached results (cached_metric).
    exec::arena lane_arena;
    json::arena_parser lane_parser;
};

line_state& tls_line_state() {
    thread_local line_state state;
    return state;
}

/// The number a cached result object holds under `metric`; NaN when the
/// member is absent or not a number.  NaN lanes are never cached and
/// doubles print shortest-round-trip, so for a cached lane this is the
/// lane value bit for bit.  Parsed in the thread's lane arena: the line
/// arena still holds the request being answered.
double cached_metric(const std::string& bytes, const char* metric) {
    line_state& st = tls_line_state();
    st.lane_arena.reset();
    try {
        const json::aview* v =
            st.lane_parser.parse(bytes, st.lane_arena).find(metric);
        return v != nullptr && v->is_number() ? v->number : no_metric;
    } catch (const std::exception&) {
        return no_metric;  // defensive: cached results always parse
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

engine::engine(engine_config config)
    : config_{config},
      cache_{config.cache_capacity, config.cache_shards} {}

void engine::evaluate_into(const request& req, std::string& out) {
    out.clear();
    (void)result_into(req, out, nullptr);
}

json::value engine::evaluate(const request& req) {
    std::string body;
    evaluate_into(req, body);
    return json::parse(body);
}

double engine::result_into(const request& req, std::string& out,
                           const exec::cancel_token* cancel) {
    // Structural budget checks (too_large): properties of the request
    // alone, so the same request is rejected identically every time —
    // the deterministic half of the rejection taxonomy.
    if (req.op == op_code::sweep && config_.limits.max_sweep_points != 0) {
        const auto& q = std::get<sweep_request>(req.payload);
        if (static_cast<std::size_t>(q.count) >
            config_.limits.max_sweep_points) {
            admission_.note_rejection(reject_reason::sweep_too_large);
            throw request_error(
                "too_large",
                "sweep: count exceeds max_sweep_points " +
                    std::to_string(config_.limits.max_sweep_points));
        }
    }
    if (req.op == op_code::mc_yield && config_.limits.max_mc_dies != 0) {
        const auto& q = std::get<mc_yield_request>(req.payload);
        if (static_cast<std::size_t>(q.dies) > config_.limits.max_mc_dies) {
            admission_.note_rejection(reject_reason::mc_too_large);
            throw request_error(
                "too_large",
                "mc_yield: dies exceeds max_mc_dies " +
                    std::to_string(config_.limits.max_mc_dies));
        }
    }
    if (req.op == op_code::partition_explore &&
        config_.limits.max_sweep_points != 0) {
        const auto& q = std::get<partition_explore_request>(req.payload);
        if (explore_cells(q) > config_.limits.max_sweep_points) {
            admission_.note_rejection(reject_reason::explore_too_large);
            throw request_error(
                "too_large",
                "partition_explore: grid cells exceed max_sweep_points " +
                    std::to_string(config_.limits.max_sweep_points));
        }
    }

    switch (req.op) {
        case op_code::cost_tr:
            return cost_tr_into(std::get<cost_tr_request>(req.payload), out);
        case op_code::gross_die:
            return gross_die_into(std::get<gross_die_request>(req.payload),
                                  out);
        case op_code::yield:
            return yield_into(std::get<yield_request>(req.payload), out);
        case op_code::scenario1:
            return scenario1_into(std::get<scenario1_request>(req.payload),
                                  out);
        case op_code::scenario2:
            return scenario2_into(std::get<scenario2_request>(req.payload),
                                  out);
        case op_code::table3:
            table3_into(std::get<table3_request>(req.payload), out);
            return no_metric;
        case op_code::mc_yield:
            return mc_yield_into(std::get<mc_yield_request>(req.payload),
                                 config_.parallelism, cancel, out);
        case op_code::sweep:
            sweep_into(std::get<sweep_request>(req.payload), out, cancel);
            return no_metric;
        case op_code::stats:
            out += json::dump(stats_json());
            return no_metric;
        case op_code::chiplet: {
            const auto& q = std::get<chiplet_request>(req.payload);
            return chiplet_into(chiplet::evaluate_chiplet(spec_from(q)),
                                q.substrate, out);
        }
        case op_code::partition_explore:
            explore_into(std::get<partition_explore_request>(req.payload),
                         out, cancel);
            return no_metric;
    }
    throw std::logic_error("engine: unhandled op");
}

void engine::sweep_into(const sweep_request& q, std::string& out,
                        const exec::cancel_token* cancel) {
    const std::vector<double> xs =
        grid_points(q.from, q.to, q.count, q.scale == "log");
    std::vector<double> ys(xs.size());

    // Grid points are independent; inside a batch worker this degrades
    // to serial with the identical decomposition (exec contract), so
    // sweep responses are byte-stable at every nesting/thread level.
    // Every exact lane is its own point request, evaluated once through
    // the endpoint writer (tests/serve/test_engine.cpp pins this);
    // fast_math lanes run on the vector kernels instead.
    if (!config_.fast_math || !fast_lanes(q, xs, ys, cancel)) {
        point_lanes(q, xs, ys, cancel);
    }

    const op_code op = q.target->op;
    object_writer w{out};
    w.text("target_op", to_string(op));
    w.text("param", q.param);
    w.text("metric", primary_metric(op));
    w.text("scale", q.scale);
    w.numbers("xs", xs);
    w.numbers("ys", ys);
    w.close();
}

bool engine::fast_lanes(const sweep_request& q,
                        const std::vector<double>& xs,
                        std::vector<double>& ys,
                        const exec::cancel_token* cancel) {
    const request& tgt = *q.target;
    if (tgt.op != op_code::scenario1 && tgt.op != op_code::scenario2 &&
        tgt.op != op_code::yield) {
        return false;
    }
    request tmp = tgt;
    const double* slot = numeric_param_ptr(tmp, q.param);
    if (slot == nullptr) {
        return false;  // integer-valued parameter: per-lane path
    }
    // Fast lanes drift from the scalar bytes (DESIGN.md §15), so they
    // never enter the point cache and are never answered from it.
    const std::size_t n = xs.size();

    // Expand one payload member into a parameter column: the swept
    // member carries the grid, everything else is a constant lane.
    const auto col = [&](const double& member) {
        std::vector<double> v(n, member);
        if (&member == slot) {
            std::copy(xs.begin(), xs.end(), v.begin());
        }
        return v;
    };
    const auto shard = [&](auto&& body) {
        exec::parallel_for(
            n, config_.parallelism,
            [&](const exec::shard_range& r) {
                body(r.begin, r.end - r.begin);
            },
            cancel);
    };
    double* out = ys.data();

    // Scenario #1 is scenario #2 without the reference-yield column.
    const auto scenario = [&](const auto& t, auto kernel) {
        const auto lambda = col(t.lambda_um), c0 = col(t.c0_usd),
                   x = col(t.x), r = col(t.wafer_radius_cm),
                   dd = col(t.design_density);
        std::vector<double> y0;
        if constexpr (requires { t.y0; }) {
            y0 = col(t.y0);
        }
        shard([&](std::size_t b, std::size_t len) {
            cost::batch::scenario_columns cols;
            cols.lambda_um = lambda.data() + b;
            cols.c0_usd = c0.data() + b;
            cols.x = x.data() + b;
            cols.wafer_radius_cm = r.data() + b;
            cols.design_density = dd.data() + b;
            if constexpr (requires { t.y0; }) {
                cols.y0 = y0.data() + b;
            }
            kernel(cols, out + b, len);
        });
    };
    if (tgt.op == op_code::scenario1) {
        scenario(std::get<scenario1_request>(tmp.payload),
                 cost::batch::scenario1_cost_per_transistor_fast);
    } else if (tgt.op == op_code::scenario2) {
        scenario(std::get<scenario2_request>(tmp.payload),
                 cost::batch::scenario2_cost_per_transistor_fast);
    } else if (const auto& t = std::get<yield_request>(tmp.payload);
               t.model == "scaled_poisson") {
        const auto area = col(t.die_area_cm2), lambda = col(t.lambda_um),
                   d = col(t.d), p = col(t.p);
        shard([&](std::size_t b, std::size_t len) {
            yield::batch::scaled_poisson_yield_fast(
                area.data() + b, lambda.data() + b, d.data() + b,
                p.data() + b, out + b, len);
        });
    } else if (t.model == "reference") {
        const auto area = col(t.die_area_cm2), y0 = col(t.y0),
                   a0 = col(t.a0_cm2);
        shard([&](std::size_t b, std::size_t len) {
            yield::batch::reference_yield_fast(area.data() + b,
                                               y0.data() + b, a0.data() + b,
                                               out + b, len);
        });
    } else {
        // poisson | murphy | seeds | bose_einstein | neg_binomial
        const auto ef = col(t.expected_faults), area = col(t.die_area_cm2),
                   dpc = col(t.defects_per_cm2);
        const std::vector<double> alpha = t.model == "neg_binomial"
                                              ? col(t.alpha)
                                              : std::vector<double>{};
        shard([&](std::size_t b, std::size_t len) {
            // The endpoint's fault derivation (yield_into): the explicit
            // count wins, else area * density, both gated by the
            // finite/non-negative request check.
            std::vector<double> faults(len);
            for (std::size_t i = 0; i < len; ++i) {
                const double f =
                    ef[b + i] >= 0.0 ? ef[b + i] : area[b + i] * dpc[b + i];
                faults[i] = (!(f >= 0.0) || !std::isfinite(f)) ? no_metric
                                                               : f;
            }
            if (t.model == "poisson") {
                yield::batch::poisson_yield_fast(faults.data(), out + b,
                                                 len);
            } else if (t.model == "murphy") {
                yield::batch::murphy_yield_fast(faults.data(), out + b, len);
            } else if (t.model == "seeds") {
                yield::batch::seeds_yield_fast(faults.data(), out + b, len);
            } else if (t.model == "bose_einstein") {
                yield::batch::bose_einstein_yield_fast(
                    faults.data(), t.critical_steps, out + b, len);
            } else {
                yield::batch::negative_binomial_yield_fast(
                    faults.data(), alpha.data() + b, out + b, len);
            }
        });
    }
    return true;
}

void engine::point_lanes(const sweep_request& q,
                         const std::vector<double>& xs,
                         std::vector<double>& ys,
                         const exec::cancel_token* cancel) {
    // The exact lane path, for every target: each shard writes lane
    // values into its own copy of the target request and runs the
    // endpoint writer on it once, taking the lane value from the
    // writer's primary metric.  A lane whose point request would fail
    // schema validation (a non-finite grid value, a non-integral or
    // out-of-range integer) is null without evaluating.  Lanes the
    // point cache holds are spliced, and evaluated lanes enter it under
    // their point request's key with the bytes that request writes — so
    // the response is byte-identical either way, and a post-sweep point
    // query is a warm hit.  Errors (null lanes) are never cached.
    // A lane's catch may swallow a cancelled_error thrown by a nested
    // mc_yield evaluation (null slot), but the cancellable parallel_for
    // re-raises after the join — the expired token is sticky — so a
    // deadline always surfaces as deadline_exceeded, never as a
    // response with nondeterministic nulls.
    const request& tgt = *q.target;
    const bool lane_cache = config_.cache_capacity != 0;
    const lane_keys key_of{tgt, q.param};
    const char* metric = primary_metric(tgt.op);
    exec::parallel_for(
        xs.size(), config_.parallelism,
        [&](const exec::shard_range& r) {
            request lane = tgt;
            std::string key;
            std::string body;
            for (std::size_t i = r.begin; i < r.end; ++i) {
                ys[i] = no_metric;
                try {
                    const double x = set_numeric_param(lane, q.param, xs[i]);
                    if (std::isnan(x)) {
                        continue;
                    }
                    if (lane_cache) {
                        key_of.key_into(x, key);
                        if (const auto cached = cache_.get_if_present(key)) {
                            ys[i] = cached_metric(*cached, metric);
                            continue;
                        }
                    }
                    body.clear();
                    ys[i] = result_into(lane, body, cancel);
                    if (lane_cache) {
                        cache_.put(key, body);
                    }
                } catch (const std::exception&) {
                    // Infeasible point (die does not fit, yield
                    // underflow, negative parameter): null slot.
                    ys[i] = no_metric;
                }
            }
        },
        cancel);
}

void engine::explore_into(const partition_explore_request& q,
                          std::string& out,
                          const exec::cancel_token* cancel) {
    const std::vector<double> xs = grid_points(
        q.area_from_mm2, q.area_to_mm2, q.count, q.scale == "log");
    const std::vector<int> splits = parse_splits(q.splits);
    const chiplet::chiplet_spec base = spec_from(q.base);
    const std::size_t n = xs.size();

    // One cost matrix, filled split-by-split (the outer list is <= 8
    // entries; the per-split grid is where the work is).  The kernel
    // runs the scalar core per cell — it only batches lanes — so every
    // cell is bit-identical to its `chiplet` point request at any
    // thread count, and infeasible cells are NaN, never a throw.  Under
    // fast_math the transcendental tail runs on the vector math instead
    // (cells drift within DESIGN.md §15 bounds, same NaN
    // classification, still thread-count deterministic).
    std::vector<std::vector<double>> cost(splits.size(),
                                          std::vector<double>(n));
    // Explore cells share the point cache with the chiplet endpoint
    // (scalar math, cache enabled): each feasible cell is exactly the
    // chiplet point request for the scaled spec at that split, so cells
    // land in — and are answered from — the same per-point memoization
    // as a direct `op:chiplet` query, with the bytes chiplet_into
    // writes for it.
    const bool lane_cache =
        config_.cache_capacity != 0 && !config_.fast_math;
    for (std::size_t s = 0; s < splits.size(); ++s) {
        double* row = cost[s].data();
        const int split = splits[s];
        if (!lane_cache) {
            const bool fm = config_.fast_math;
            exec::parallel_for(
                n, config_.parallelism,
                [&](const exec::shard_range& r) {
                    if (fm) {
                        chiplet::batch::cost_per_good_system_fast(
                            base, split, xs.data() + r.begin,
                            row + r.begin, r.end - r.begin);
                    } else {
                        chiplet::batch::cost_per_good_system(
                            base, split, xs.data() + r.begin,
                            row + r.begin, r.end - r.begin);
                    }
                },
                cancel);
            continue;
        }
        std::vector<std::string> keys(n);
        exec::parallel_for(
            n, config_.parallelism,
            [&](const exec::shard_range& r) {
                request cell;
                cell.op = op_code::chiplet;
                chiplet_request point = q.base;
                point.chiplets = split;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    const chiplet::chiplet_spec spec =
                        chiplet::scaled_to_total(base, xs[i]);
                    point.logic_area_mm2 = spec.logic_area_mm2;
                    point.memory_area_mm2 = spec.memory_area_mm2;
                    point.io_area_mm2 = spec.io_area_mm2;
                    cell.payload = point;
                    canonical_key_into(cell, keys[i]);
                }
            },
            cancel);
        std::vector<double> missing_xs;
        std::vector<std::size_t> lane_of;
        missing_xs.reserve(n);
        lane_of.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (const auto hit = cache_.get_if_present(keys[i])) {
                row[i] = cached_metric(*hit, "cost_per_good_system_usd");
            } else {
                missing_xs.push_back(xs[i]);
                lane_of.push_back(i);
            }
        }
        const std::size_t m = missing_xs.size();
        std::vector<double> missing_out(m);
        std::vector<chiplet::chiplet_breakdown> breakdowns(m);
        exec::parallel_for(
            m, config_.parallelism,
            [&](const exec::shard_range& r) {
                chiplet::batch::cost_per_good_system(
                    base, split, missing_xs.data() + r.begin,
                    missing_out.data() + r.begin,
                    breakdowns.data() + r.begin, r.end - r.begin);
            },
            cancel);
        std::string body;
        for (std::size_t j = 0; j < m; ++j) {
            row[lane_of[j]] = missing_out[j];
            if (std::isnan(missing_out[j])) {
                continue;  // infeasible cells are never cached
            }
            try {
                body.clear();
                (void)chiplet_into(breakdowns[j], q.base.substrate, body);
                cache_.put(keys[lane_of[j]], body);
            } catch (const std::exception&) {
                // Allocation failure caching a side value: skip.
            }
        }
    }

    // Per grid point, the cheapest feasible split (ties break to the
    // coarser split, so the monolithic baseline wins exact draws), and
    // the first area where a real multi-die split beats it — the
    // published crossover.
    std::vector<double> best_split(n, no_metric);
    bool crossed = false;
    double crossover = no_metric;
    for (std::size_t i = 0; i < n; ++i) {
        int best = 0;
        double best_cost = 0.0;
        for (std::size_t s = 0; s < splits.size(); ++s) {
            const double c = cost[s][i];
            if (std::isnan(c)) {
                continue;
            }
            if (best == 0 || c < best_cost) {
                best = splits[s];
                best_cost = c;
            }
        }
        if (best != 0) {
            best_split[i] = static_cast<double>(best);
        }
        if (!crossed && best > 1) {
            crossed = true;
            crossover = xs[i];
        }
    }

    object_writer w{out};
    w.text("metric", "cost_per_good_system_usd");
    w.text("scale", q.scale);
    w.numbers("splits", std::vector<double>(splits.begin(), splits.end()));
    w.numbers("xs", xs);
    std::string& ys = w.key("ys");
    ys += '[';
    for (std::size_t s = 0; s < splits.size(); ++s) {
        if (s != 0) {
            ys += ',';
        }
        numbers_into(cost[s], ys);
    }
    ys += ']';
    w.numbers("best_split", best_split);
    w.number("crossover_area_mm2", crossover);
    w.close();
}


namespace {

/// Snapshot observability object shared by stats and /statusz.
json::value snapshot_stats_json(const engine::snapshot_stats& s) {
    json::object o;
    o.set("writes", static_cast<double>(s.writes));
    o.set("write_failures", static_cast<double>(s.write_failures));
    o.set("restores", static_cast<double>(s.restores));
    o.set("restore_failures", static_cast<double>(s.restore_failures));
    o.set("restored_entries", static_cast<double>(s.restored_entries));
    o.set("last_entries", static_cast<double>(s.last_entries));
    o.set("last_bytes", static_cast<double>(s.last_bytes));
    o.set("last_write_seconds", s.last_write_seconds);
    o.set("last_restore_seconds", s.last_restore_seconds);
    o.set("age_seconds", s.age_seconds);
    return json::value{std::move(o)};
}

/// Flight-recorder summary shared by stats and /statusz.
json::value flight_stats_json() {
    const obs::flight_recorder::stats f =
        obs::flight_recorder::instance().snapshot();
    json::object o;
    o.set("enabled", f.enabled);
    o.set("capacity", static_cast<double>(f.capacity));
    o.set("threads", static_cast<double>(f.threads));
    o.set("appended", static_cast<double>(f.appended));
    o.set("dropped", static_cast<double>(f.dropped));
    o.set("anomalies", static_cast<double>(f.anomalies));
    return json::value{std::move(o)};
}

}  // namespace

json::value engine::stats_json() {
    const memo_cache::stats c = cache_.snapshot();
    json::object cache;
    cache.set("hits", static_cast<double>(c.hits));
    cache.set("misses", static_cast<double>(c.misses));
    cache.set("evictions", static_cast<double>(c.evictions));
    cache.set("entries", static_cast<double>(c.entries));
    cache.set("capacity", static_cast<double>(c.capacity));
    cache.set("shards", static_cast<double>(c.shards));

    json::object o;
    o.set("cache", json::value{std::move(cache)});
    o.set("endpoints", metrics_.to_json());
    o.set("parallelism",
          static_cast<double>(exec::resolve_parallelism(config_.parallelism)));
    o.set("parse_errors",
          static_cast<double>(parse_errors_.load(std::memory_order_relaxed)));
    o.set("dedup_hits",
          static_cast<double>(dedup_hits_.load(std::memory_order_relaxed)));
    o.set("arena_bytes",
          static_cast<double>(arena_bytes_.load(std::memory_order_relaxed)));

    // Mask-memoization statistics of the 2^n - 1 partition pricer
    // (process-global, like the exec gauges: the optimizer is a
    // library-level component, not per-engine).
    json::object pricer;
    pricer.set("hits", static_cast<double>(opt::partition_pricer_hits()));
    pricer.set("entries",
               static_cast<double>(opt::partition_pricer_entries()));
    o.set("partition_pricer", json::value{std::move(pricer)});

    json::object rejected;
    for (int i = 0; i < reject_reason_count; ++i) {
        const auto reason = static_cast<reject_reason>(i);
        rejected.set(std::string{to_string(reason)},
                     static_cast<double>(admission_.rejected(reason)));
    }
    json::object overload;
    overload.set("rejected", json::value{std::move(rejected)});
    overload.set("inflight_bytes",
                 static_cast<double>(admission_.inflight_bytes()));
    overload.set("deadline_exceeded",
                 static_cast<double>(
                     deadline_exceeded_.load(std::memory_order_relaxed)));
    overload.set("hot_declines",
                 static_cast<double>(
                     hot_declines_.load(std::memory_order_relaxed)));
    overload.set("cache_shed_entries",
                 static_cast<double>(
                     cache_shed_entries_.load(std::memory_order_relaxed)));
    o.set("overload", json::value{std::move(overload)});

    o.set("flight", flight_stats_json());
    o.set("snapshot", snapshot_stats_json(snapshot_info()));
    return json::value{std::move(o)};
}

snapshot::write_result engine::snapshot_write(const std::string& path) {
    // One writer at a time: the periodic tick, a SIGUSR2 trigger and
    // the shutdown write may race; whichever loses the lock simply
    // writes a fresher image.  Serving and overload sheds are NOT
    // blocked — the serializer captures shards one at a time under
    // their own locks, so a concurrent shed yields a stale-but-
    // consistent image (counts and CRCs are computed from the bytes
    // actually captured), never a torn or double-counted one.
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    const auto t0 = std::chrono::steady_clock::now();
    const snapshot::write_result r = snapshot::write_file(
        cache_, snapshot::config_fingerprint(config_.fast_math), path);
    const auto t1 = std::chrono::steady_clock::now();
    if (r.ok) {
        snap_writes_.fetch_add(1, std::memory_order_relaxed);
        snap_last_entries_.store(r.entries, std::memory_order_relaxed);
        snap_last_bytes_.store(r.bytes, std::memory_order_relaxed);
        snap_last_write_ns_.store(ns_between(t0, t1),
                                  std::memory_order_relaxed);
        snap_last_write_at_ns_.store(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1.time_since_epoch())
                    .count()),
            std::memory_order_relaxed);
    } else {
        snap_write_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

snapshot::restore_result engine::snapshot_restore(const std::string& path) {
    const auto t0 = std::chrono::steady_clock::now();
    const snapshot::restore_result r = snapshot::restore_file(
        cache_, snapshot::config_fingerprint(config_.fast_math), path);
    snap_last_restore_ns_.store(
        ns_between(t0, std::chrono::steady_clock::now()),
        std::memory_order_relaxed);
    switch (r.outcome) {
        case snapshot::restore_outcome::restored:
            snap_restores_.fetch_add(1, std::memory_order_relaxed);
            snap_restored_entries_.fetch_add(r.entries,
                                             std::memory_order_relaxed);
            break;
        case snapshot::restore_outcome::cold_corrupt:
            snap_restore_failures_.fetch_add(1, std::memory_order_relaxed);
            break;
        case snapshot::restore_outcome::cold_missing:
            break;  // normal first boot, not a failure
    }
    return r;
}

engine::snapshot_stats engine::snapshot_info() const {
    snapshot_stats s;
    s.writes = snap_writes_.load(std::memory_order_relaxed);
    s.write_failures =
        snap_write_failures_.load(std::memory_order_relaxed);
    s.restores = snap_restores_.load(std::memory_order_relaxed);
    s.restore_failures =
        snap_restore_failures_.load(std::memory_order_relaxed);
    s.restored_entries =
        snap_restored_entries_.load(std::memory_order_relaxed);
    s.last_entries = snap_last_entries_.load(std::memory_order_relaxed);
    s.last_bytes = snap_last_bytes_.load(std::memory_order_relaxed);
    s.last_write_seconds =
        static_cast<double>(
            snap_last_write_ns_.load(std::memory_order_relaxed)) *
        1e-9;
    s.last_restore_seconds =
        static_cast<double>(
            snap_last_restore_ns_.load(std::memory_order_relaxed)) *
        1e-9;
    const std::uint64_t at =
        snap_last_write_at_ns_.load(std::memory_order_relaxed);
    if (at != 0) {
        const auto now = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
        s.age_seconds =
            now > at ? static_cast<double>(now - at) * 1e-9 : 0.0;
    }
    return s;
}

json::value engine::statusz_json() const {
    json::object config;
    config.set("parallelism",
               static_cast<double>(
                   exec::resolve_parallelism(config_.parallelism)));
    config.set("cache_capacity",
               static_cast<double>(config_.cache_capacity));
    config.set("cache_shards", static_cast<double>(config_.cache_shards));
    config.set("fast_math", config_.fast_math);
    config.set("simd_target",
               std::string{simd::to_string(simd::active_target())});

    const limits_config& l = config_.limits;
    json::object limits;
    limits.set("max_line_bytes", static_cast<double>(l.max_line_bytes));
    limits.set("max_batch_lines", static_cast<double>(l.max_batch_lines));
    limits.set("max_sweep_points", static_cast<double>(l.max_sweep_points));
    limits.set("max_mc_dies", static_cast<double>(l.max_mc_dies));
    limits.set("max_inflight_bytes",
               static_cast<double>(l.max_inflight_bytes));
    limits.set("default_deadline_ms",
               static_cast<double>(l.default_deadline_ms));
    limits.set("max_arena_reserved_bytes",
               static_cast<double>(l.max_arena_reserved_bytes));
    limits.set("shed_on_overload", l.shed_on_overload);

    const memo_cache::stats c = cache_.snapshot();
    json::object cache;
    cache.set("entries", static_cast<double>(c.entries));
    cache.set("capacity", static_cast<double>(c.capacity));
    cache.set("hits", static_cast<double>(c.hits));
    cache.set("misses", static_cast<double>(c.misses));
    cache.set("evictions", static_cast<double>(c.evictions));

    json::object overload;
    overload.set("inflight_bytes",
                 static_cast<double>(admission_.inflight_bytes()));
    overload.set("rejected_total",
                 static_cast<double>(admission_.rejected_total()));
    overload.set("deadline_exceeded",
                 static_cast<double>(
                     deadline_exceeded_.load(std::memory_order_relaxed)));

    json::object o;
    o.set("config", json::value{std::move(config)});
    o.set("limits", json::value{std::move(limits)});
    o.set("cache", json::value{std::move(cache)});
    o.set("overload", json::value{std::move(overload)});
    o.set("flight", flight_stats_json());
    o.set("snapshot", snapshot_stats_json(snapshot_info()));
    o.set("parse_errors",
          static_cast<double>(parse_errors_.load(std::memory_order_relaxed)));
    return json::value{std::move(o)};
}

std::string engine::prometheus_text() const {
    std::string out;
    metrics_.to_prometheus(out);

    // Build/dispatch identity, info-style gauge: constant 1, the
    // payload is the labels (which vector lane the one-time runtime
    // dispatch picked, and whether this engine serves fast_math
    // kernels).
    obs::prometheus_header(out, "silicon_build_info", "gauge",
                           "SIMD dispatch target and fast_math mode");
    {
        std::string name = "silicon_build_info{simd_target=\"";
        name += simd::to_string(simd::active_target());
        name += "\",fast_math=\"";
        name += config_.fast_math ? "on" : "off";
        name += "\"}";
        obs::prometheus_sample(out, name, std::uint64_t{1});
    }

    const auto metric = [&out](std::string_view name, std::string_view type,
                               std::string_view help, auto value) {
        obs::prometheus_header(out, name, type, help);
        obs::prometheus_sample(out, name, value);
    };
    const auto count = [](auto v) { return static_cast<std::uint64_t>(v); };
    const auto relaxed = [](const std::atomic<std::uint64_t>& v) {
        return v.load(std::memory_order_relaxed);
    };

    const memo_cache::stats c = cache_.snapshot();
    metric("silicon_cache_hits_total", "counter", "Memoization-cache hits",
           c.hits);
    metric("silicon_cache_misses_total", "counter",
           "Memoization-cache misses", c.misses);
    metric("silicon_cache_evictions_total", "counter",
           "Memoization-cache LRU evictions", c.evictions);
    metric("silicon_cache_entries", "gauge",
           "Resident memoization-cache entries", count(c.entries));
    metric("silicon_cache_capacity", "gauge",
           "Configured memoization-cache entry budget", count(c.capacity));
    const std::uint64_t lookups = c.hits + c.misses;
    metric("silicon_cache_hit_ratio", "gauge",
           "hits / (hits + misses) since start",
           lookups == 0 ? 0.0
                        : static_cast<double>(c.hits) /
                              static_cast<double>(lookups));
    obs::prometheus_header(out, "silicon_cache_shard_entries", "gauge",
                           "Resident entries per cache shard");
    for (std::size_t i = 0; i < c.shard_entries.size(); ++i) {
        std::string name = "silicon_cache_shard_entries{shard=\"";
        name += std::to_string(i);
        name += "\"}";
        obs::prometheus_sample(out, name, count(c.shard_entries[i]));
    }

    metric("silicon_serve_parse_errors_total", "counter",
           "Lines that failed JSON parsing", relaxed(parse_errors_));
    metric("silicon_serve_dedup_hits_total", "counter",
           "In-batch duplicate lines coalesced behind a representative "
           "evaluation",
           relaxed(dedup_hits_));
    metric("silicon_serve_arena_bytes_total", "counter",
           "Arena bytes consumed by request-line parses",
           relaxed(arena_bytes_));
    metric("silicon_serve_parallelism", "gauge",
           "Resolved batch fan-out width",
           count(exec::resolve_parallelism(config_.parallelism)));

    obs::prometheus_header(out, "silicon_serve_rejected_total", "counter",
                           "Lines rejected by admission control, by reason");
    for (int i = 0; i < reject_reason_count; ++i) {
        const auto reason = static_cast<reject_reason>(i);
        std::string name = "silicon_serve_rejected_total{reason=\"";
        name += to_string(reason);
        name += "\"}";
        obs::prometheus_sample(out, name, admission_.rejected(reason));
    }
    metric("silicon_serve_deadline_exceeded_total", "counter",
           "Lines answered deadline_exceeded", relaxed(deadline_exceeded_));
    metric("silicon_serve_inflight_bytes", "gauge",
           "Request bytes currently admitted against the in-flight budget",
           admission_.inflight_bytes());
    metric("silicon_serve_hot_declines_total", "counter",
           "Line-arena releases forced by the arena byte budget",
           relaxed(hot_declines_));
    metric("silicon_serve_cache_shed_entries_total", "counter",
           "Memoization-cache entries shed under overload",
           relaxed(cache_shed_entries_));

    const snapshot_stats snap = snapshot_info();
    metric("silicon_cache_snapshot_writes_total", "counter",
           "Cache snapshots written successfully", snap.writes);
    metric("silicon_cache_snapshot_write_failures_total", "counter",
           "Cache snapshot write attempts that failed (file kept intact)",
           snap.write_failures);
    metric("silicon_cache_snapshot_restores_total", "counter",
           "Cache snapshots restored at boot", snap.restores);
    metric("silicon_cache_snapshot_restore_failures_total", "counter",
           "Snapshot restores that degraded to a cold start (corruption, "
           "version or fingerprint mismatch)",
           snap.restore_failures);
    metric("silicon_cache_snapshot_restored_entries", "gauge",
           "Entries loaded from snapshots", snap.restored_entries);
    metric("silicon_cache_snapshot_last_bytes", "gauge",
           "Size of the last written snapshot", snap.last_bytes);
    metric("silicon_cache_snapshot_last_entries", "gauge",
           "Entries in the last written snapshot", snap.last_entries);
    metric("silicon_cache_snapshot_last_write_seconds", "gauge",
           "Duration of the last snapshot write (serialize + fsync + rename)",
           snap.last_write_seconds);
    metric("silicon_cache_snapshot_last_restore_seconds", "gauge",
           "Duration of the last snapshot restore attempt",
           snap.last_restore_seconds);
    metric("silicon_cache_snapshot_age_seconds", "gauge",
           "Seconds since the last successful snapshot write (-1 = never)",
           snap.age_seconds);

    metric("silicon_partition_pricer_hits_total", "counter",
           "Partition-pricer mask-memo lookups served from the priced table",
           opt::partition_pricer_hits());
    metric("silicon_partition_pricer_entries_total", "counter",
           "Subset masks priced into the memo table",
           opt::partition_pricer_entries());

    // Process-global metrics (exec pool counters/gauges).
    out += obs::metrics_registry::global().to_prometheus();
    return out;
}

std::string engine::handle_line(std::string_view line) {
    std::string out;
    handle_line_into(line, out);
    return out;
}

void engine::handle_line_into(std::string_view line, std::string& out) {
    out.clear();
    obs::flight_recorder& flight = obs::flight_recorder::instance();
    const bool record_flight = flight.enabled() && flight.capacity() != 0;
    // Admission against the in-flight byte budget happens only at the
    // public entry points (here and handle_batch), never per batch
    // line, so a batch is admitted exactly once.
    admission_controller::ticket ticket =
        admission_.admit(line.size(), config_.limits.max_inflight_bytes);
    if (!ticket) {
        on_overload();
        // Shed without parsing, but keep trace correlation alive: the
        // raw-scan echo costs O(4 KiB) on a path that is already
        // answering "go away".
        const std::string_view trace_raw = scan_trace_id(line);
        append_overloaded(trace_raw, out);
        if (record_flight) {
            obs::flight_record rec;
            obs::assign_field(rec.trace, trace_raw);
            obs::assign_field(rec.code, "overloaded");
            rec.anomaly = true;
            flight.append(rec);
            flight.note_anomaly();
        }
        return;
    }
    if (!record_flight) {
        serve_line(line, out, nullptr, nullptr);
        return;
    }
    obs::flight_record rec;
    serve_line(line, out, nullptr, &rec);
    if (rec.code[0] != '\0') {
        flight.append(rec);
        if (rec.anomaly) {
            flight.note_anomaly();
        }
    }
}

void engine::on_overload() {
    if (config_.limits.shed_on_overload) {
        // Reclaim memory exactly when pressure is observed: drop the
        // resident entries of half the cache shards (counted as
        // evictions); capacity is untouched, so the cache refills.
        const std::size_t dropped =
            cache_.shed_shards((config_.cache_shards + 1) / 2);
        cache_shed_entries_.fetch_add(dropped, std::memory_order_relaxed);
    }
}

void engine::serve_line(
    std::string_view line, std::string& out,
    const std::chrono::steady_clock::time_point* batch_deadline,
    obs::flight_record* rec) {
    const obs::trace_span line_span{"serve.handle_line", "serve"};
    const auto start = std::chrono::steady_clock::now();
    out.clear();
    if (config_.limits.max_line_bytes != 0 &&
        line.size() > config_.limits.max_line_bytes) {
        admission_.note_rejection(reject_reason::line_too_large);
        append_line_too_large(config_.limits.max_line_bytes, out);
        if (rec != nullptr) {
            // No endpoint/id/trace: an over-long line's framing is
            // suspect, so nothing scanned out of it is trustworthy.
            obs::assign_field(rec->code, "too_large");
        }
        return;
    }
    line_state& st = tls_line_state();
    if (config_.limits.max_arena_reserved_bytes != 0 &&
        st.arena.bytes_reserved() > config_.limits.max_arena_reserved_bytes) {
        // Graceful degradation under memory pressure: hand the arena's
        // chunks back; this line starts over with a small arena.
        st.arena.release();
        hot_declines_.fetch_add(1, std::memory_order_relaxed);
    }
    if (faults::enabled()) {
        faults::maybe_delay("serve.line");
    }

    // One parse per line: the arena document and the typed request it
    // yields answer hits, misses, stats and every error envelope.
    const json::aview* doc = nullptr;
    const json::aview* id = nullptr;
    const json::aview* trace = nullptr;
    const request& req = st.parsed.req;
    op_code op = op_code::stats;
    bool op_known = false;
    std::shared_ptr<const std::string> hit;
    bool parsed = false;
    bool probed = false;
    bool evaluated = false;
    bool failed = false;
    bool out_of_memory = false;
    std::string err_code;
    std::chrono::steady_clock::time_point t_parsed{};
    std::chrono::steady_clock::time_point t_probed{};
    std::chrono::steady_clock::time_point t_evaluated{};
    bool have_deadline = false;
    std::chrono::steady_clock::time_point deadline_at{};

    try {
        if (faults::enabled() && (faults::should_fail("serve.line") ||
                                  faults::should_fail("serve.arena"))) {
            // Injected allocation failure while handling the line: the
            // catch below answers internal_error — one valid reply per
            // line even when memory is gone.
            throw std::bad_alloc{};
        }
        st.arena.reset();
        {
            const obs::trace_span span{"serve.parse", "serve"};
            doc = &st.parser.parse(line, st.arena);
        }
        {
            // Schema validation + canonical cache-key serialization.
            const obs::trace_span span{"serve.canonicalize", "serve"};
            parse_request_fast(*doc, st.parsed);
        }
        id = st.parsed.id_view;
        trace = st.parsed.trace_view;
        arena_bytes_.fetch_add(st.arena.bytes_allocated(),
                               std::memory_order_relaxed);
        t_parsed = std::chrono::steady_clock::now();
        parsed = true;
        op = req.op;
        op_known = true;

        // Arm the deadline: the request's own budget (from its line
        // start) wins; otherwise the batch-level deadline; otherwise
        // the configured default.  Checked here (so a zero budget
        // deterministically errors even on a warm cache) and at every
        // task boundary inside cancellable endpoints.
        exec::cancel_token deadline;
        const exec::cancel_token* cancel = nullptr;
        if (req.has_deadline || batch_deadline != nullptr ||
            config_.limits.default_deadline_ms != 0) {
            if (req.has_deadline) {
                deadline_at = deadline_from(start, req.deadline_ms);
            } else if (batch_deadline != nullptr) {
                deadline_at = *batch_deadline;
            } else {
                deadline_at =
                    deadline_from(start, config_.limits.default_deadline_ms);
            }
            have_deadline = true;
            deadline.set_deadline(deadline_at);
            cancel = &deadline;
            if (deadline.expired()) {
                throw exec::cancelled_error{};
            }
        }

        if (req.op == op_code::stats) {
            // Stats are a live snapshot: never cached, never golden.
            st.body.clear();
            (void)result_into(req, st.body, cancel);
        } else {
            {
                const obs::trace_span span{"serve.cache", "serve"};
                hit = cache_.get(req.canonical_key);
            }
            t_probed = std::chrono::steady_clock::now();
            probed = true;
            if (hit == nullptr) {
                eval_fault_site();
                {
                    // The endpoint writer serializes into the reused
                    // buffer (no allocation at cache capacity 0 for the
                    // closed-form point ops).
                    const obs::trace_span span{"serve.exec", "serve"};
                    st.body.clear();
                    if (req.op == op_code::sweep) {
                        bind_sweep_target(st.parsed);
                    }
                    (void)result_into(req, st.body, cancel);
                }
                t_evaluated = std::chrono::steady_clock::now();
                evaluated = true;
                // A cancelled evaluation threw above, so deadline errors
                // are never cached.
                if (config_.cache_capacity != 0) {
                    cache_.put(req.canonical_key, st.body);
                }
            }
        }
        const obs::trace_span span{"serve.serialize", "serve"};
        open_envelope(id, trace, true, out);
        out += hit != nullptr ? std::string_view{*hit}
                              : std::string_view{st.body};
        out += '}';
    } catch (const std::exception& e) {
        failed = true;
        if (dynamic_cast<const json::parse_error*>(&e) != nullptr) {
            parse_errors_.fetch_add(1, std::memory_order_relaxed);
            err_code = "parse_error";
        } else {
            if (dynamic_cast<const exec::cancelled_error*>(&e) != nullptr) {
                deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
            }
            out_of_memory = dynamic_cast<const std::bad_alloc*>(&e) != nullptr;
            err_code = error_code_for(e);
        }
        // Best-effort id/op/trace echo off the document, so even schema
        // errors carry the caller's correlation id and trace_id (a line
        // that is not JSON echoes neither).
        if (doc != nullptr && doc->is_object()) {
            id = doc->find("id");
            trace = doc->find("trace_id");
            if (trace != nullptr && !trace->is_string()) {
                trace = nullptr;
            }
            const json::aview* raw_op = doc->find("op");
            if (!op_known && raw_op != nullptr && raw_op->is_string()) {
                if (const auto known = op_from_string(raw_op->string)) {
                    op = *known;
                    op_known = true;
                }
            }
        }
        out.clear();
        open_envelope(id, trace, false, out);
        out += "{\"code\":";
        json::write_string_into(out, err_code);
        out += ",\"message\":";
        json::write_string_into(out, e.what());
        out += "}}";
    }

    const auto t_done = std::chrono::steady_clock::now();
    const std::uint64_t total_ns = ns_between(start, t_done);
    // Stage breakdown (all allocation-free): parse covers
    // parse+canonicalize, cache the probe, exec the miss evaluation,
    // serialize the envelope; 0 for a stage the line never reached.
    const auto t_served = evaluated ? t_evaluated
                          : probed  ? t_probed
                                    : t_parsed;
    const bool serialized = parsed && !failed;
    const std::uint64_t parse_ns = parsed ? ns_between(start, t_parsed) : 0;
    const std::uint64_t cache_ns = probed ? ns_between(t_parsed, t_probed) : 0;
    const std::uint64_t exec_ns =
        evaluated ? ns_between(t_probed, t_evaluated) : 0;
    const std::uint64_t serialize_ns =
        serialized ? ns_between(t_served, t_done) : 0;
    if (op_known) {
        endpoint_metrics& m = metrics_.at(op);
        m.requests.fetch_add(1, std::memory_order_relaxed);
        if (failed) {
            m.errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (hit != nullptr) {
            m.cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
        m.latency.record(total_ns);
        if (parsed) {
            m.stage_parse.record(parse_ns);
        }
        if (probed) {
            m.stage_cache.record(cache_ns);
        }
        if (evaluated) {
            m.stage_exec.record(exec_ns);
        }
        if (serialized) {
            m.stage_serialize.record(serialize_ns);
        }
        if (trace != nullptr) {
            note_tail_exemplar(m, total_ns, trace->string);
        }
    }
    if (rec != nullptr) {
        if (op_known) {
            obs::assign_field(rec->endpoint, to_string(op));
        }
        flight_id_field(rec->id, id);
        if (trace != nullptr) {
            obs::assign_field(rec->trace, trace->string);
        }
        obs::assign_field(rec->code, failed ? std::string_view{err_code}
                                            : std::string_view{"ok"});
        rec->cache_hit = hit != nullptr;
        rec->parse_us = ns_to_us_u32(parse_ns);
        rec->cache_us = ns_to_us_u32(cache_ns);
        rec->exec_us = ns_to_us_u32(exec_ns);
        rec->serialize_us = ns_to_us_u32(serialize_ns);
        rec->total_us = ns_to_us_u32(total_ns);
        if (have_deadline) {
            rec->deadline_slack_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    deadline_at - t_done)
                    .count();
        }
        rec->anomaly = failed && anomalous_code(err_code);
    }
    if (out_of_memory) {
        // An allocation failure (real or injected) gives the arena's
        // chunks back once nothing points into it any more.
        st.arena.release();
    }
}

std::vector<std::string> engine::handle_batch(
    const std::vector<std::string>& lines) {
    const obs::trace_span span{"serve.batch", "serve"};
    std::vector<std::string> responses(lines.size());

    obs::flight_recorder& flight = obs::flight_recorder::instance();
    const bool record_flight = flight.enabled() && flight.capacity() != 0;
    // One record slot per line, filled wherever the line completes and
    // appended *in line order* afterwards — that ordering (plus the
    // deterministic timing mode) is what makes dumps byte-identical at
    // every thread count.  An unfilled slot (code "") is skipped.
    std::vector<obs::flight_record> recs;
    if (record_flight) {
        recs.resize(lines.size());
    }
    const auto flush_records = [&] {
        if (!record_flight) {
            return;
        }
        std::uint64_t anomalies = 0;
        for (obs::flight_record& r : recs) {
            if (r.code[0] == '\0') {
                continue;
            }
            if (r.anomaly) {
                ++anomalies;
            }
            flight.append(r);
        }
        // Triggers fire after every record landed, so an armed dump
        // always contains the batch that tripped it.
        for (std::uint64_t a = 0; a < anomalies; ++a) {
            flight.note_anomaly();
        }
    };

    // Batch-level budgets first: every line still gets exactly one
    // well-formed reply, without parsing a byte of an over-budget batch.
    if (config_.limits.max_batch_lines != 0 &&
        lines.size() > config_.limits.max_batch_lines) {
        admission_.note_rejection(reject_reason::batch_too_large,
                                  lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string_view trace_raw = scan_trace_id(lines[i]);
            append_batch_too_large(config_.limits.max_batch_lines, trace_raw,
                                   responses[i]);
            if (record_flight) {
                obs::assign_field(recs[i].trace, trace_raw);
                obs::assign_field(recs[i].code, "too_large");
            }
        }
        flush_records();
        return responses;
    }
    std::size_t batch_bytes = 0;
    for (const std::string& l : lines) {
        batch_bytes += l.size();
    }
    admission_controller::ticket ticket = admission_.admit(
        batch_bytes, config_.limits.max_inflight_bytes, lines.size());
    if (!ticket) {
        on_overload();
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string_view trace_raw = scan_trace_id(lines[i]);
            append_overloaded(trace_raw, responses[i]);
            if (record_flight) {
                obs::assign_field(recs[i].trace, trace_raw);
                obs::assign_field(recs[i].code, "overloaded");
                recs[i].anomaly = true;
            }
        }
        flush_records();
        return responses;
    }

    // One deadline instant for the whole batch (a request's own
    // deadline_ms still wins per line): lines evaluated late in an
    // overlong batch are cancelled at task boundaries, not stretched.
    const std::chrono::steady_clock::time_point* batch_deadline = nullptr;
    std::chrono::steady_clock::time_point batch_deadline_storage;
    if (config_.limits.default_deadline_ms != 0) {
        batch_deadline_storage = deadline_from(
            std::chrono::steady_clock::now(),
            config_.limits.default_deadline_ms);
        batch_deadline = &batch_deadline_storage;
    }

    const auto rec_at = [&](std::size_t i) -> obs::flight_record* {
        return record_flight ? &recs[i] : nullptr;
    };

    // Serves every line `pick` selects, fanned across the pool.
    const auto serve_lines = [&](auto&& pick) {
        exec::parallel_for(
            lines.size(), config_.parallelism,
            [&](const exec::shard_range& r) {
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    if (pick(i)) {
                        serve_line(lines[i], responses[i], batch_deadline,
                                   rec_at(i));
                    }
                }
            });
    };

    // Intra-batch dedup needs the cache: a twin answers from the entry
    // its representative left behind.
    if (config_.cache_capacity == 0 || lines.size() < 2) {
        serve_lines([](std::size_t) { return true; });
        flush_records();
        return responses;
    }

    // Phase A: canonicalize every line — no metrics or cache side
    // effects.  Lines that fail to parse, and stats, are simply not
    // dedupable and evaluate individually.
    constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
    std::vector<std::string> keys(lines.size());
    std::vector<char> dedupable(lines.size(), 0);
    exec::parallel_for(
        lines.size(), config_.parallelism, [&](const exec::shard_range& r) {
            line_state& st = tls_line_state();
            for (std::size_t i = r.begin; i < r.end; ++i) {
                try {
                    st.arena.reset();
                    const json::aview& doc =
                        st.parser.parse(lines[i], st.arena);
                    parse_request_fast(doc, st.parsed);
                    if (st.parsed.req.op != op_code::stats) {
                        keys[i] = st.parsed.req.canonical_key;
                        dedupable[i] = 1;
                    }
                } catch (...) {
                    // Not dedupable; the real parse error (if any) is
                    // produced when the line evaluates below.
                }
            }
        });

    // The first occurrence of each canonical key is the representative;
    // later twins wait for it and answer from the cache.  Sequential in
    // line order so the choice is deterministic.
    std::vector<std::size_t> rep(lines.size(), npos);
    std::unordered_map<std::string_view, std::size_t> first;
    first.reserve(lines.size());
    std::uint64_t twins = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (dedupable[i] == 0) {
            continue;
        }
        const auto [it, inserted] =
            first.try_emplace(std::string_view{keys[i]}, i);
        if (!inserted) {
            rep[i] = it->second;
            ++twins;
        }
    }
    dedup_hits_.fetch_add(twins, std::memory_order_relaxed);

    // Phase B: evaluate representatives and non-dedupable lines.
    serve_lines([&](std::size_t i) { return rep[i] == npos; });

    // Phase C: twins.  A successful representative left its result in
    // the cache, so these are warm (allocation-free) hits that splice
    // each line's own id; a representative that
    // *errored* cached nothing and each twin re-evaluates individually
    // — error responses are never coalesced.
    serve_lines([&](std::size_t i) { return rep[i] != npos; });
    flush_records();
    return responses;
}

}  // namespace silicon::serve
