#include "replay.hpp"

#include "stats.hpp"

#include "chiplet/batch.hpp"
#include "chiplet/model.hpp"
#include "core/cost_model.hpp"
#include "core/scenario.hpp"
#include "core/table3.hpp"
#include "cost/batch.hpp"
#include "exec/arena.hpp"
#include "exec/thread_pool.hpp"
#include "geometry/gross_die.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/json_arena.hpp"
#include "serve/request_fast.hpp"
#include "serve/snapshot.hpp"
#include "yield/batch.hpp"
#include "yield/models.hpp"
#include "yield/monte_carlo.hpp"
#include "yield/scaled.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <sys/stat.h>
#include <unordered_set>
#include <variant>

namespace perfbench {
namespace {

namespace serve = silicon::serve;
namespace json = silicon::serve::json;
using silicon::centimeters;
using silicon::dollars;
using silicon::microns;
using silicon::millimeters;
using silicon::probability;
using silicon::square_centimeters;

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

struct span_rec {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t request;  ///< spans of one request line share this
};

class span_log {
public:
    bool enabled = false;
    std::vector<span_rec> spans;
    std::uint32_t current = 0;  ///< innermost open span id (0 = none)
    std::uint32_t request = 0;
};

/// Records one span from construction to destruction when the log is
/// enabled; costs one branch otherwise.
class scoped_span {
public:
    scoped_span(span_log& log, const char* name) : log_{log} {
        if (!log_.enabled) {
            return;
        }
        index_ = log_.spans.size();
        const auto id = static_cast<std::uint32_t>(index_ + 1);
        log_.spans.push_back({name, now_ns(), 0, id, log_.current,
                              log_.request});
        log_.current = id;
    }
    ~scoped_span() {
        if (!log_.enabled) {
            return;
        }
        span_rec& s = log_.spans[index_];
        s.end = now_ns();
        log_.current = s.parent;
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_log& log_;
    std::size_t index_ = 0;
};

/// Duration samples (ns) per span name, and self time per name: the
/// span's duration minus the part its children cover.
struct span_summary {
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, double> self_ns;
};

span_summary summarize(const span_log& log) {
    span_summary out;
    std::vector<double> child_ns(log.spans.size() + 1, 0.0);
    for (const span_rec& s : log.spans) {
        if (s.parent != 0) {
            child_ns[s.parent] += static_cast<double>(s.end - s.start);
        }
    }
    for (const span_rec& s : log.spans) {
        const double d = static_cast<double>(s.end - s.start);
        out.durations[s.name].push_back(d);
        out.self_ns[s.name] += d - child_ns[s.id];
    }
    return out;
}

void write_chrome_trace(const span_log& log, const std::string& path,
                        std::size_t max_spans) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return;
    }
    std::fputs("{\"traceEvents\":[\n", f);
    const std::size_t n = std::min(max_spans, log.spans.size());
    const std::int64_t t0 = n > 0 ? log.spans[0].start : 0;
    for (std::size_t i = 0; i < n; ++i) {
        const span_rec& s = log.spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                     "\"parent\":%u,\"request\":%u}}\n",
                     i == 0 ? "" : ",", s.name,
                     static_cast<double>(s.start - t0) * 1e-3,
                     static_cast<double>(s.end - s.start) * 1e-3, s.id,
                     s.parent, s.request);
    }
    std::fprintf(f, "],\"spans_recorded\":%zu}\n", log.spans.size());
    std::fclose(f);
}

// ---------------------------------------------------------------------------
// scalar model calls (typed request -> library), as the engine makes them
// ---------------------------------------------------------------------------

silicon::geometry::gross_die_method method_of(const std::string& name) {
    using silicon::geometry::gross_die_method;
    for (const gross_die_method m :
         {gross_die_method::maly_rows, gross_die_method::maly_rows_best_orient,
          gross_die_method::area_ratio, gross_die_method::circumference,
          gross_die_method::ferris_prabhu, gross_die_method::exact}) {
        if (silicon::geometry::to_string(m) == name) {
            return m;
        }
    }
    throw std::runtime_error("unknown gross-die method " + name);
}

silicon::core::process_spec process_of(const serve::process_params& p) {
    silicon::core::yield_spec y{probability{1.0}};
    switch (p.yield.model) {
        case serve::yield_spec_params::kind::reference:
            y = silicon::yield::reference_die_yield{
                probability{p.yield.y0}, square_centimeters{p.yield.a0_cm2}};
            break;
        case serve::yield_spec_params::kind::scaled:
            y = silicon::yield::scaled_poisson_model{p.yield.d, p.yield.p};
            break;
        case serve::yield_spec_params::kind::fixed:
            y = probability{p.yield.fixed};
            break;
    }
    return silicon::core::process_spec{
        silicon::cost::wafer_cost_model{dollars{p.c0_usd}, p.x,
                                        microns{p.generation_step_um}},
        silicon::geometry::wafer{centimeters{p.wafer_radius_cm},
                                 centimeters{p.edge_exclusion_cm}},
        std::move(y), method_of(p.gross_die_method)};
}

double eval_cost_tr(const serve::cost_tr_request& q) {
    const silicon::core::cost_model model{process_of(q.process)};
    silicon::core::product_spec product;
    product.name = q.product.name;
    product.transistors = q.product.transistors;
    product.design_density = q.product.design_density;
    product.feature_size = microns{q.product.feature_size_um};
    product.die_aspect_ratio = q.product.die_aspect_ratio;
    silicon::core::economics_spec economics;
    economics.overhead = dollars{q.economics.overhead_usd};
    economics.volume_wafers = q.economics.volume_wafers;
    return model.evaluate(product, economics).cost_per_transistor.value();
}

double eval_yield(const serve::yield_request& q) {
    namespace y = silicon::yield;
    if (q.model == "scaled_poisson") {
        return y::scaled_poisson_model{q.d, q.p}
            .yield(square_centimeters{q.die_area_cm2}, microns{q.lambda_um})
            .value();
    }
    if (q.model == "reference") {
        return y::reference_die_yield{probability{q.y0},
                                      square_centimeters{q.a0_cm2}}
            .yield(square_centimeters{q.die_area_cm2})
            .value();
    }
    const double faults = q.expected_faults >= 0.0
                              ? q.expected_faults
                              : q.die_area_cm2 * q.defects_per_cm2;
    if (q.model == "poisson") {
        return y::poisson_model{}.yield(faults).value();
    }
    if (q.model == "murphy") {
        return y::murphy_model{}.yield(faults).value();
    }
    if (q.model == "seeds") {
        return y::seeds_model{}.yield(faults).value();
    }
    if (q.model == "bose_einstein") {
        return y::bose_einstein_model{q.critical_steps}.yield(faults).value();
    }
    return y::negative_binomial_model{q.alpha}.yield(faults).value();
}

silicon::chiplet::chiplet_spec chiplet_spec_of(const serve::chiplet_request& q) {
    silicon::chiplet::chiplet_spec s;
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
    s.substrate = q.substrate == "rdl" ? silicon::chiplet::substrate_kind::rdl
                  : q.substrate == "interposer"
                      ? silicon::chiplet::substrate_kind::interposer
                      : silicon::chiplet::substrate_kind::organic;
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

double eval_mc(const serve::mc_yield_request& q, unsigned threads) {
    silicon::yield::wire_array_layout layout;
    layout.line_width = q.line_width_um;
    layout.line_spacing = q.line_spacing_um;
    layout.line_length = q.line_length_um;
    layout.line_count = q.line_count;
    silicon::yield::monte_carlo_config config;
    config.dies = static_cast<std::size_t>(q.dies);
    config.defects_per_um2 = q.defects_per_um2;
    config.extra_material_fraction = q.extra_material_fraction;
    config.seed = q.seed;
    config.parallelism = threads;
    return silicon::yield::simulate_layout_yield(
               layout,
               silicon::yield::defect_size_distribution{
                   q.defect_r0_um, q.defect_p, q.defect_q},
               config)
        .yield;
}

std::vector<double> linear_grid(double from, double to, int count) {
    std::vector<double> xs(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        xs[static_cast<std::size_t>(i)] =
            count == 1 ? from
                       : from + (to - from) * i / static_cast<double>(count - 1);
    }
    return xs;
}

/// The yield-model family on a 4096-lane SoA batch; `area` is swept.
void yield_kernel(const serve::yield_request& q, const std::vector<double>& area,
                  std::vector<double>& out) {
    namespace b = silicon::yield::batch;
    const std::size_t n = area.size();
    out.resize(n);
    if (q.model == "scaled_poisson") {
        const std::vector<double> lam(n, q.lambda_um), d(n, q.d), p(n, q.p);
        b::scaled_poisson_yield(area.data(), lam.data(), d.data(), p.data(),
                                out.data(), n);
        return;
    }
    if (q.model == "reference") {
        const std::vector<double> y0(n, q.y0), a0(n, q.a0_cm2);
        b::reference_yield(area.data(), y0.data(), a0.data(), out.data(), n);
        return;
    }
    std::vector<double> faults(n);
    for (std::size_t i = 0; i < n; ++i) {
        faults[i] = area[i] * q.defects_per_cm2;
    }
    if (q.model == "poisson") {
        b::poisson_yield(faults.data(), out.data(), n);
    } else if (q.model == "murphy") {
        b::murphy_yield(faults.data(), out.data(), n);
    } else if (q.model == "seeds") {
        b::seeds_yield(faults.data(), out.data(), n);
    } else if (q.model == "bose_einstein") {
        b::bose_einstein_yield(faults.data(), q.critical_steps, out.data(), n);
    } else {
        const std::vector<double> alpha(n, q.alpha);
        b::negative_binomial_yield(faults.data(), alpha.data(), out.data(), n);
    }
}

void scenario_kernel(bool second, double c0, double x, double radius,
                     double density, double y0,
                     const std::vector<double>& lambda,
                     std::vector<double>& out) {
    const std::size_t n = lambda.size();
    const std::vector<double> c0s(n, c0), xs(n, x), rs(n, radius),
        ds(n, density), y0s(n, y0);
    silicon::cost::batch::scenario_columns cols;
    cols.lambda_um = lambda.data();
    cols.c0_usd = c0s.data();
    cols.x = xs.data();
    cols.wafer_radius_cm = rs.data();
    cols.design_density = ds.data();
    cols.y0 = y0s.data();
    out.resize(n);
    if (second) {
        silicon::cost::batch::scenario2_cost_per_transistor(cols, out.data(), n);
    } else {
        silicon::cost::batch::scenario1_cost_per_transistor(cols, out.data(), n);
    }
}

// ---------------------------------------------------------------------------
// the replay
// ---------------------------------------------------------------------------

/// Lines of one workload the replay walks: the load stream, and for
/// explore also the probe stream (which carries its point queries).
std::vector<std::string> replay_lines(const generator& gen,
                                      std::uint64_t stream) {
    std::vector<std::string> lines;
    const bool explore = gen.kind() == workload::explore;
    const std::size_t n = explore ? 24 : 20000;
    for (std::size_t i = 0; i < n; ++i) {
        lines.push_back(gen.line(stream, i));
    }
    if (explore) {
        for (std::size_t i = 0; i < 4000; ++i) {
            lines.push_back(gen.line(stream_probe, i + stream * 100000));
        }
    }
    return lines;
}

struct pipeline {
    span_log& log;
    unsigned threads;
    serve::memo_cache cache{65536, 16};
    serve::engine evaluator;
    silicon::exec::arena arena;
    json::arena_parser parser;
    serve::fast_parse_state fast;
    std::vector<double> scratch_in;
    std::vector<double> scratch_out;
    std::vector<std::size_t> reply_bytes;

    pipeline(span_log& l, unsigned t)
        : log{l}, threads{t}, evaluator{serve::engine_config{t, 0}} {}

    /// The scalar model library (or kernel) call for a parsed request.
    void model(const serve::request& req) {
        using serve::op_code;
        volatile double sink = 0.0;
        switch (req.op) {
            case op_code::cost_tr: {
                scoped_span s{log, "core.eval"};
                sink = eval_cost_tr(std::get<serve::cost_tr_request>(req.payload));
                break;
            }
            case op_code::scenario1: {
                const auto& q = std::get<serve::scenario1_request>(req.payload);
                scoped_span s{log, "core.eval"};
                silicon::core::scenario1 sc;
                sc.wafer_cost = silicon::cost::wafer_cost_model{dollars{q.c0_usd}, q.x};
                sc.wafer = silicon::geometry::wafer{centimeters{q.wafer_radius_cm}};
                sc.design_density = q.design_density;
                sink = sc.cost_per_transistor(microns{q.lambda_um}).value();
                break;
            }
            case op_code::scenario2: {
                const auto& q = std::get<serve::scenario2_request>(req.payload);
                scoped_span s{log, "core.eval"};
                silicon::core::scenario2 sc;
                sc.wafer_cost = silicon::cost::wafer_cost_model{dollars{q.c0_usd}, q.x};
                sc.wafer = silicon::geometry::wafer{centimeters{q.wafer_radius_cm}};
                sc.design_density = q.design_density;
                sc.yield = silicon::yield::reference_die_yield{probability{q.y0}};
                sink = sc.cost_per_transistor(microns{q.lambda_um}).value();
                break;
            }
            case op_code::table3: {
                scoped_span s{log, "core.eval"};
                sink = silicon::core::memory_logic_separation();
                break;
            }
            case op_code::gross_die: {
                const auto& q = std::get<serve::gross_die_request>(req.payload);
                scoped_span s{log, "geometry.gross_die"};
                sink = static_cast<double>(silicon::geometry::gross_dies(
                    silicon::geometry::wafer{centimeters{q.wafer_radius_cm},
                                             centimeters{q.edge_exclusion_cm}},
                    silicon::geometry::die{millimeters{q.die_width_mm},
                                           millimeters{q.die_height_mm}},
                    method_of(q.method), millimeters{q.scribe_mm}));
                break;
            }
            case op_code::yield: {
                scoped_span s{log, "yield.eval"};
                sink = eval_yield(std::get<serve::yield_request>(req.payload));
                break;
            }
            case op_code::chiplet: {
                const auto& q = std::get<serve::chiplet_request>(req.payload);
                scoped_span s{log, "chiplet.eval"};
                sink = silicon::chiplet::evaluate_chiplet(chiplet_spec_of(q))
                           .cost_per_good_system_usd;
                break;
            }
            case op_code::mc_yield: {
                scoped_span s{log, "yield.mc"};
                sink = eval_mc(std::get<serve::mc_yield_request>(req.payload),
                               threads);
                break;
            }
            case op_code::sweep:
                sweep_kernel(std::get<serve::sweep_request>(req.payload));
                break;
            case op_code::partition_explore: {
                const auto& q =
                    std::get<serve::partition_explore_request>(req.payload);
                const silicon::chiplet::chiplet_spec base =
                    chiplet_spec_of(q.base);
                scratch_in = linear_grid(q.area_from_mm2, q.area_to_mm2, q.count);
                scratch_out.resize(scratch_in.size());
                scoped_span s{log, "chiplet.batch"};
                for (const int splits : {1, 2, 4, 8}) {
                    silicon::chiplet::batch::cost_per_good_system(
                        base, splits, scratch_in.data(), scratch_out.data(),
                        scratch_in.size());
                }
                break;
            }
            case op_code::stats:
                break;
        }
        (void)sink;
    }

    void sweep_kernel(const serve::sweep_request& q) {
        const serve::request& t = *q.target;
        scratch_in = linear_grid(q.from, q.to, q.count);
        if (t.op == serve::op_code::yield) {
            scoped_span s{log, "yield.batch"};
            yield_kernel(std::get<serve::yield_request>(t.payload), scratch_in,
                         scratch_out);
        } else if (t.op == serve::op_code::scenario1) {
            const auto& p = std::get<serve::scenario1_request>(t.payload);
            scoped_span s{log, "cost.batch"};
            scenario_kernel(false, p.c0_usd, p.x, p.wafer_radius_cm,
                            p.design_density, 0.7, scratch_in, scratch_out);
        } else if (t.op == serve::op_code::scenario2) {
            const auto& p = std::get<serve::scenario2_request>(t.payload);
            scoped_span s{log, "cost.batch"};
            scenario_kernel(true, p.c0_usd, p.x, p.wafer_radius_cm,
                            p.design_density, p.y0, scratch_in, scratch_out);
        } else if (t.op == serve::op_code::cost_tr) {
            // The typed per-lane path: one scalar evaluation per lane.
            serve::cost_tr_request lane =
                std::get<serve::cost_tr_request>(t.payload);
            scoped_span s{log, "core.eval_lanes"};
            volatile double sink = 0.0;
            for (const double x : scratch_in) {
                lane.product.transistors = x;
                sink = eval_cost_tr(lane);
            }
            (void)sink;
        }
    }

    void run(const std::string& line, std::uint32_t request_no) {
        log.request = request_no;
        scoped_span root{log, "replay.line"};
        {
            scoped_span s{log, "serve.request.fast_parse"};
            arena.reset();
            const json::aview& doc = parser.parse(line, arena);
            serve::parse_request_fast(doc, fast);
        }
        std::shared_ptr<const std::string> hit;
        {
            scoped_span s{log, "serve.cache.get"};
            hit = cache.get(fast.req.canonical_key);
        }
        if (hit != nullptr) {
            return;
        }
        serve::request req;
        {
            scoped_span s{log, "serve.request.slow_parse"};
            req = serve::parse_request(json::parse(line));
        }
        model(req);
        json::value result;
        {
            scoped_span s{log, "serve.engine.evaluate"};
            result = evaluator.evaluate(req);
        }
        std::string bytes;
        {
            scoped_span s{log, "serve.json.serialize"};
            bytes = json::dump(result);
        }
        reply_bytes.push_back(bytes.size());
        {
            scoped_span s{log, "serve.cache.put"};
            cache.put(req.canonical_key, std::move(bytes));
        }
    }
};

double median_of(std::map<std::string, std::vector<double>>& d,
                 const char* name) {
    const auto it = d.find(name);
    return it == d.end() ? 0.0 : median(it->second);
}

double sum_of(const std::map<std::string, std::vector<double>>& d,
              const char* name) {
    const auto it = d.find(name);
    double total = 0.0;
    if (it != d.end()) {
        for (const double v : it->second) {
            total += v;
        }
    }
    return total;
}

bool answered_ok(const std::string& reply) {
    return reply.rfind("{\"ok\":true", 0) == 0;
}

}  // namespace

std::vector<layer_value> run_replay(const generator& gen,
                                    const replay_config& cfg) {
    std::vector<layer_value> out;
    const auto emit = [&](const char* name, double v, const char* unit) {
        out.push_back({name, v, unit});
    };
    const bool explore = gen.kind() == workload::explore;
    const std::vector<std::string> lines = replay_lines(gen, stream_load0);

    // 1. The per-line pipeline, untraced before and after the traced
    //    pass (fresh caches each time); the overhead is taken against
    //    the mean of the two untraced passes, so warm-up favours neither.
    span_log off;
    const auto untraced_pass = [&] {
        pipeline p{off, cfg.threads};
        const double t0 = now_s();
        for (std::size_t i = 0; i < lines.size(); ++i) {
            p.run(lines[i], static_cast<std::uint32_t>(i));
        }
        return now_s() - t0;
    };
    double untraced_s = untraced_pass();
    span_log log;
    log.enabled = true;
    log.spans.reserve(lines.size() * 10 + 1024);
    double traced_s = 0.0;
    std::vector<std::size_t> reply_bytes;
    {
        pipeline p{log, cfg.threads};
        const double t0 = now_s();
        for (std::size_t i = 0; i < lines.size(); ++i) {
            p.run(lines[i], static_cast<std::uint32_t>(i));
        }
        traced_s = now_s() - t0;
        reply_bytes = std::move(p.reply_bytes);
    }
    untraced_s = (untraced_s + untraced_pass()) / 2.0;

    // 2. The engine's own entry points, configured as silicond.
    serve::engine_config ecfg;
    ecfg.parallelism = cfg.threads;
    serve::engine eng{ecfg};
    std::vector<double> line_miss_ns;
    std::vector<double> line_hit_ns;
    std::unordered_set<std::string> seen;
    std::string reply;
    if (gen.kind() == workload::point_hot) {
        // As after the snapshot restore: the whole working set is warm.
        for (const std::string& l : gen.working_set()) {
            eng.handle_line_into(l, reply);
        }
    }
    for (int pass = 0; pass < 2; ++pass) {
        for (const std::string& l : lines) {
            const bool first = pass == 0 && seen.insert(l).second &&
                               gen.kind() != workload::point_hot;
            scoped_span s{log, "serve.engine.handle_line"};
            const std::int64_t t0 = now_ns();
            eng.handle_line_into(l, reply);
            const auto ns = static_cast<double>(now_ns() - t0);
            if (!answered_ok(reply)) {
                throw std::runtime_error("replay: not ok: " + reply.substr(0, 200));
            }
            (first ? line_miss_ns : line_hit_ns).push_back(ns);
        }
    }
    if (gen.kind() == workload::point_hot) {
        // Misses: first sight of each line on a fresh engine.
        serve::engine cold{ecfg};
        for (std::size_t i = 0; i < 4000 && i < lines.size(); ++i) {
            const std::int64_t t0 = now_ns();
            cold.handle_line_into(lines[i], reply);
            line_miss_ns.push_back(static_cast<double>(now_ns() - t0));
        }
    }
    double big_line_ns = 0.0;  // explore: engine time of the large lines
    if (explore) {
        serve::engine fresh{ecfg};
        for (std::size_t i = 0; i < 24; ++i) {
            const std::int64_t t0 = now_ns();
            fresh.handle_line_into(lines[i], reply);
            big_line_ns += static_cast<double>(now_ns() - t0);
        }
    }

    // 3. handle_batch on the batch size seen on the wire (fresh lines
    //    from another stream; point_hot's are all cache hits).  An
    //    explore client keeps one large request outstanding, so each
    //    large line is a batch of its own.
    const std::size_t wire =
        explore ? 1
                : std::max<std::size_t>(
                      1, static_cast<std::size_t>(cfg.wire_lines_per_batch + 0.5));
    const std::vector<std::string> batch_lines = replay_lines(gen, 1);
    std::vector<double> batch_us;
    {
        const std::size_t last = explore ? 24 : batch_lines.size();
        std::vector<std::string> batch;
        for (std::size_t i = 0; i < last; i += wire) {
            batch.assign(batch_lines.begin() + static_cast<std::ptrdiff_t>(i),
                         batch_lines.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(last, i + wire)));
            scoped_span s{log, "serve.engine.handle_batch"};
            const std::int64_t t0 = now_ns();
            const std::vector<std::string> replies = eng.handle_batch(batch);
            batch_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
            for (const std::string& r : replies) {
                if (!answered_ok(r)) {
                    throw std::runtime_error("replay batch: not ok: " +
                                             r.substr(0, 200));
                }
            }
        }
    }

    // 4. exec: parallel_for overhead and the batch speedup at the
    //    configured width against 1.
    std::vector<double> pf_us;
    for (int i = 0; i < 2000; ++i) {
        scoped_span s{log, "exec.parallel_for"};
        const std::int64_t t0 = now_ns();
        silicon::exec::parallel_for(64, cfg.threads,
                                    [](const silicon::exec::shard_range&) {});
        pf_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    const auto batch_seconds = [&](unsigned threads) {
        serve::engine_config c;
        c.parallelism = threads;
        c.cache_capacity = 0;
        serve::engine e{c};
        const std::size_t n = explore ? 8 : 1024;
        const std::vector<std::string> batch(
            batch_lines.begin(),
            batch_lines.begin() + static_cast<std::ptrdiff_t>(n));
        const double t0 = now_s();
        const std::vector<std::string> replies = e.handle_batch(batch);
        return now_s() - t0;
    };
    batch_seconds(1);  // warm the library's lazy tables
    const double t_one = batch_seconds(1);
    const double t_cfg = batch_seconds(cfg.threads);

    // 5. Kernels on 4096-lane SoA batches drawn from the seed.
    splitmix64 rng = rng_for(gen.seed(), 20, 0);
    std::vector<double> area(4096), lambda(4096), kout;
    for (std::size_t i = 0; i < area.size(); ++i) {
        area[i] = rng.range(0.1, 3.0);
        lambda[i] = rng.range(0.3, 1.5);
    }
    const auto ns_per_lane = [&](const char* name, auto&& body,
                                 std::size_t lanes) {
        std::vector<double> per;
        for (int rep = 0; rep < 15; ++rep) {
            scoped_span s{log, name};
            const std::int64_t t0 = now_ns();
            body();
            per.push_back(static_cast<double>(now_ns() - t0) /
                          static_cast<double>(lanes));
        }
        return median(per);
    };
    const double yield_ns = ns_per_lane(
        "yield.batch",
        [&] {
            for (const char* m : {"poisson", "murphy", "seeds", "bose_einstein",
                                  "neg_binomial", "scaled_poisson",
                                  "reference"}) {
                serve::yield_request q;
                q.model = m;
                yield_kernel(q, area, kout);
            }
        },
        area.size() * 7);
    const double cost_ns = ns_per_lane(
        "cost.batch",
        [&] {
            scenario_kernel(false, 500.0, 1.2, 7.5, 30.0, 0.7, lambda, kout);
            scenario_kernel(true, 500.0, 1.8, 7.5, 200.0, 0.7, lambda, kout);
        },
        lambda.size() * 2);
    silicon::chiplet::chiplet_spec base;
    std::vector<double> totals = linear_grid(40.0, 1000.0, 256);
    std::vector<double> cout(totals.size());
    const double chiplet_ns = ns_per_lane(
        "chiplet.batch",
        [&] {
            for (const int splits : {1, 2, 4, 8}) {
                silicon::chiplet::batch::cost_per_good_system(
                    base, splits, totals.data(), cout.data(), totals.size());
            }
        },
        totals.size() * 4);

    // 6. Monte-Carlo yield (the explore mc_yield request shape).
    std::vector<double> mc_ms;
    for (int i = 0; i < 3; ++i) {
        serve::mc_yield_request q;
        q.dies = 20000;
        q.defects_per_um2 = rng.range(0.8e-4, 1.2e-4);
        q.seed = rng.next() >> 12;
        scoped_span s{log, "yield.mc"};
        const std::int64_t t0 = now_ns();
        volatile double y = eval_mc(q, cfg.threads);
        (void)y;
        mc_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }

    // 7. Snapshot restore of the engine's cache as the replay left it.
    const std::string snap = cfg.scratch_dir + "/replay.snap";
    const serve::snapshot::write_result written = eng.snapshot_write(snap);
    double restore_s = 0.0;
    {
        serve::memo_cache restored{65536, 16};
        scoped_span s{log, "serve.snapshot.restore"};
        const double t0 = now_s();
        const serve::snapshot::restore_result r = serve::snapshot::restore_file(
            restored, serve::snapshot::config_fingerprint(false), snap);
        restore_s = now_s() - t0;
        if (r.outcome != serve::snapshot::restore_outcome::restored) {
            throw std::runtime_error("replay: snapshot restore failed: " +
                                     r.reason);
        }
    }
    std::remove(snap.c_str());

    span_summary sum = summarize(log);
    write_chrome_trace(log, cfg.trace_path, 50000);

    std::vector<double> bytes_d(reply_bytes.begin(), reply_bytes.end());
    double total_bytes = 0.0;
    for (const double b : bytes_d) {
        total_bytes += b;
    }
    const double kernel_ns = sum_of(sum.durations, "yield.batch") +
                             sum_of(sum.durations, "cost.batch") +
                             sum_of(sum.durations, "chiplet.batch");

    emit("serve.request.fast_parse_ns",
         median_of(sum.durations, "serve.request.fast_parse"), "ns");
    emit("serve.request.slow_parse_ns",
         median_of(sum.durations, "serve.request.slow_parse"), "ns");
    emit("serve.cache.get_ns", median_of(sum.durations, "serve.cache.get"), "ns");
    emit("serve.cache.put_ns", median_of(sum.durations, "serve.cache.put"), "ns");
    emit("serve.engine.line_us_hit", median(line_hit_ns) * 1e-3, "us");
    emit("serve.engine.line_us_miss", median(line_miss_ns) * 1e-3, "us");
    emit("serve.engine.batch_us_p50", median(batch_us), "us");
    // Kernel spans of the large lines against the engine's time for them.
    emit("serve.engine.kernel_share",
         explore && big_line_ns > 0.0 ? kernel_ns / big_line_ns : 0.0, "ratio");
    emit("silicond.reactor_block_p99_ms", percentile(batch_us, 99.0) * 1e-3,
         "ms");
    emit("serve.json.reply_bytes_p50", median(bytes_d), "B");
    emit("serve.json.serialize_ns_per_byte",
         total_bytes > 0.0 ? sum_of(sum.durations, "serve.json.serialize") /
                                 total_bytes
                           : 0.0,
         "ns/B");
    emit("serve.snapshot.restore_s", restore_s, "s");
    emit("serve.snapshot.bytes", static_cast<double>(written.bytes), "B");
    emit("core.eval_us", median_of(sum.durations, "core.eval") * 1e-3, "us");
    emit("geometry.gross_die_us",
         median_of(sum.durations, "geometry.gross_die") * 1e-3, "us");
    emit("yield.eval_us", median_of(sum.durations, "yield.eval") * 1e-3, "us");
    emit("chiplet.eval_us", median_of(sum.durations, "chiplet.eval") * 1e-3,
         "us");
    emit("yield.mc_ms", median(mc_ms), "ms");
    emit("yield.batch.ns_per_lane", yield_ns, "ns");
    emit("cost.batch.ns_per_lane", cost_ns, "ns");
    emit("chiplet.batch.ns_per_lane", chiplet_ns, "ns");
    emit("exec.parallel_for_overhead_us", median(pf_us), "us");
    emit("exec.speedup", t_cfg > 0.0 ? t_one / t_cfg : 0.0, "x");
    emit("trace.overhead_pct",
         untraced_s > 0.0 ? (traced_s - untraced_s) / untraced_s * 100.0 : 0.0,
         "%");
    emit("trace.spans", static_cast<double>(log.spans.size()), "count");
    const double line_total = sum_of(sum.durations, "replay.line");
    emit("trace.line_self_share",
         line_total > 0.0 ? sum.self_ns["replay.line"] / line_total : 0.0,
         "ratio");
    return out;
}

}  // namespace perfbench
