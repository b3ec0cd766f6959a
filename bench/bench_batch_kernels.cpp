// bench_batch_kernels.cpp — throughput of the SoA batch kernels
// (yield/batch.hpp, cost/batch.hpp) against per-point paths, plus the
// bit-exactness check that makes the speedup meaningful.  The exact
// kernels are loops over the scalar models, so their rows time that
// loop; the *_fast rows time the vector tier.
//
// Two scalar baselines are measured for every kernel:
//
//   engine per-point  - a naive per-point sweep path: per grid
//                       point, clone the target JSON doc,
//                       poke the swept member, re-canonicalize through
//                       parse_request, write the result with
//                       engine::evaluate_into, and re-parse it to
//                       extract the primary metric.  This is the gated
//                       comparison (>= 4x).
//   library scalar    - the scalar model API called per lane (model
//                       construction + unit-typed evaluation).  Not
//                       gated; reported for context, and used as the
//                       bit-exactness reference.
//
// The dispatched fast kernels (yield/batch.hpp `*_fast`, the fast_math
// sweep path) are measured alongside: lanes/s, speedup over the scalar
// library, and the max ULP drift against the row's accuracy reference.
// The library and fast rates are timed in alternating windows and the
// speedup is the median of the per-pair ratios, so host noise shared by
// a pair cancels instead of deciding the >= 2x check.
// Most rows reference the scalar kernel (both paths feed identical
// argument bits into one final transcendental, so drift is the backend
// rounding difference, <= 4 ULP).  Murphy references a long-double
// truth instead: its scalar form (1-exp(-l))/l loses ~2/l ULP to
// cancellation as l->0, so the cancellation-free fast form measured
// against it would be charged for the *scalar* path's error.
// Scaled-poisson records its drift unGATED: exp(-u) amplifies pow
// rounding by u = A*D/lambda^p, which reaches ~230 on this grid, so a
// flat ULP bound is meaningless there (the conditioned bound is pinned
// in tests/yield/test_batch_ulp.cpp).
//
// Results land in BENCH_kernels.json (machine readable, git-tracked).
// SILICON_BENCH_TINY=1 shrinks the workload and skips the speedup gate
// so CI smoke runs stay cheap and unflaky.

#include "core/scenario.hpp"
#include "core/units.hpp"
#include "cost/batch.hpp"
#include "cost/wafer_cost.hpp"
#include "geometry/wafer.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "simd/dispatch.hpp"
#include "yield/batch.hpp"
#include "yield/models.hpp"
#include "yield/scaled.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace core = silicon::core;
namespace cost = silicon::cost;
namespace geometry = silicon::geometry;
namespace serve = silicon::serve;
namespace json = silicon::serve::json;
namespace yield = silicon::yield;
using silicon::centimeters;
using silicon::dollars;
using silicon::microns;
using silicon::probability;
using silicon::square_centimeters;

namespace {

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// Time `work(lanes)` repeatedly until `min_seconds` elapses; returns
/// lanes per second.
double rate_lanes_per_s(std::size_t lanes, double min_seconds,
                        const std::function<void()>& work) {
    using clock = std::chrono::steady_clock;
    std::size_t reps = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    do {
        work();
        ++reps;
        elapsed = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < min_seconds);
    return static_cast<double>(lanes) * static_cast<double>(reps) / elapsed;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Rates of `a` and `b` timed in `pairs` alternating windows (the order
/// flips every pair): the median rate of each, and the median of the
/// per-pair ratios rate(b) / rate(a).
struct paired_rates {
    double a = 0.0;
    double b = 0.0;
    double ratio = 0.0;
};

paired_rates alternating_rates(std::size_t lanes, double window, int pairs,
                               const std::function<void()>& a,
                               const std::function<void()>& b) {
    std::vector<double> ra;
    std::vector<double> rb;
    std::vector<double> ratios;
    for (int i = 0; i < pairs; ++i) {
        double x = 0.0;
        double y = 0.0;
        if (i % 2 == 0) {
            x = rate_lanes_per_s(lanes, window, a);
            y = rate_lanes_per_s(lanes, window, b);
        } else {
            y = rate_lanes_per_s(lanes, window, b);
            x = rate_lanes_per_s(lanes, window, a);
        }
        ra.push_back(x);
        rb.push_back(y);
        ratios.push_back(y / x);
    }
    return {median(ra), median(rb), median(ratios)};
}

/// Total-order key: adjacent representable doubles differ by 1, across
/// the signed-zero boundary too (same mapping as tests/simd).
std::uint64_t total_order_key(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return (u >> 63) != 0 ? ~u : (u | 0x8000000000000000ull);
}

std::uint64_t ulp_distance(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) {
        return (std::isnan(a) && std::isnan(b)) ? 0
                                                : ~std::uint64_t{0};
    }
    const std::uint64_t ka = total_order_key(a);
    const std::uint64_t kb = total_order_key(b);
    return ka > kb ? ka - kb : kb - ka;
}

/// One kernel under test: the SoA call, the per-lane library call, and
/// the serve target line + swept parameter for the engine baseline.
struct kernel_case {
    std::string name;
    std::function<void(const std::vector<double>& xs,
                       std::vector<double>& out)>
        kernel;
    std::function<double(double)> library_scalar;
    std::string target_line;  ///< serve request evaluated per point
    std::string param;        ///< numeric field swept over xs
    /// Dispatched fast-path call (same column bindings as `kernel`).
    std::function<void(const std::vector<double>& xs,
                       std::vector<double>& out)>
        fast_kernel;
    /// Accuracy reference for fast_max_ulp.  Unset -> the scalar
    /// kernel's output is the reference (valid when both paths feed
    /// identical argument bits into one final transcendental).
    std::function<double(double)> fast_truth;
    /// Whether the validator holds fast_max_ulp to the flat bound.
    bool fast_ulp_gated = true;
    /// Whether the validator holds fast_speedup_vs_library to the 2x
    /// floor on vector hosts.  Off only for scaled_poisson: its lane
    /// is two chained transcendentals (pow then exp) whose library
    /// baseline already pipelines well, so the vector win is real but
    /// smaller (~1.7x measured) and not part of the acceptance set.
    bool fast_speedup_gated = true;
};

std::vector<kernel_case> make_cases() {
    std::vector<kernel_case> cases;

    {
        kernel_case c;
        c.name = "scenario1";
        c.kernel = [](const std::vector<double>& xs,
                      std::vector<double>& out) {
            const std::vector<double> c0(xs.size(), 500.0);
            const std::vector<double> x(xs.size(), 1.2);
            const std::vector<double> r(xs.size(), 7.5);
            const std::vector<double> dd(xs.size(), 30.0);
            cost::batch::scenario_columns cols;
            cols.lambda_um = xs.data();
            cols.c0_usd = c0.data();
            cols.x = x.data();
            cols.wafer_radius_cm = r.data();
            cols.design_density = dd.data();
            cost::batch::scenario1_cost_per_transistor(cols, out.data(),
                                                       xs.size());
        };
        c.fast_kernel = [](const std::vector<double>& xs,
                           std::vector<double>& out) {
            const std::vector<double> c0(xs.size(), 500.0);
            const std::vector<double> x(xs.size(), 1.2);
            const std::vector<double> r(xs.size(), 7.5);
            const std::vector<double> dd(xs.size(), 30.0);
            cost::batch::scenario_columns cols;
            cols.lambda_um = xs.data();
            cols.c0_usd = c0.data();
            cols.x = x.data();
            cols.wafer_radius_cm = r.data();
            cols.design_density = dd.data();
            cost::batch::scenario1_cost_per_transistor_fast(
                cols, out.data(), xs.size());
        };
        c.library_scalar = [](double lambda) {
            core::scenario1 s;
            s.wafer_cost = cost::wafer_cost_model{dollars{500.0}, 1.2};
            s.wafer = geometry::wafer{centimeters{7.5}};
            s.design_density = 30.0;
            return s.cost_per_transistor(microns{lambda}).value();
        };
        c.target_line = R"({"op":"scenario1"})";
        c.param = "lambda_um";
        cases.push_back(std::move(c));
    }
    {
        kernel_case c;
        c.name = "scenario2";
        c.kernel = [](const std::vector<double>& xs,
                      std::vector<double>& out) {
            const std::vector<double> c0(xs.size(), 500.0);
            const std::vector<double> x(xs.size(), 1.8);
            const std::vector<double> r(xs.size(), 7.5);
            const std::vector<double> dd(xs.size(), 200.0);
            const std::vector<double> y0(xs.size(), 0.7);
            cost::batch::scenario_columns cols;
            cols.lambda_um = xs.data();
            cols.c0_usd = c0.data();
            cols.x = x.data();
            cols.wafer_radius_cm = r.data();
            cols.design_density = dd.data();
            cols.y0 = y0.data();
            cost::batch::scenario2_cost_per_transistor(cols, out.data(),
                                                       xs.size());
        };
        c.fast_kernel = [](const std::vector<double>& xs,
                           std::vector<double>& out) {
            const std::vector<double> c0(xs.size(), 500.0);
            const std::vector<double> x(xs.size(), 1.8);
            const std::vector<double> r(xs.size(), 7.5);
            const std::vector<double> dd(xs.size(), 200.0);
            const std::vector<double> y0(xs.size(), 0.7);
            cost::batch::scenario_columns cols;
            cols.lambda_um = xs.data();
            cols.c0_usd = c0.data();
            cols.x = x.data();
            cols.wafer_radius_cm = r.data();
            cols.design_density = dd.data();
            cols.y0 = y0.data();
            cost::batch::scenario2_cost_per_transistor_fast(
                cols, out.data(), xs.size());
        };
        c.library_scalar = [](double lambda) {
            core::scenario2 s;
            s.wafer_cost = cost::wafer_cost_model{dollars{500.0}, 1.8};
            s.wafer = geometry::wafer{centimeters{7.5}};
            s.design_density = 200.0;
            s.yield = yield::reference_die_yield{probability{0.7}};
            return s.cost_per_transistor(microns{lambda}).value();
        };
        c.target_line = R"({"op":"scenario2","x":1.8})";
        c.param = "lambda_um";
        cases.push_back(std::move(c));
    }
    {
        kernel_case c;
        c.name = "poisson_yield";
        c.kernel = [](const std::vector<double>& xs,
                      std::vector<double>& out) {
            yield::batch::poisson_yield(xs.data(), out.data(), xs.size());
        };
        c.fast_kernel = [](const std::vector<double>& xs,
                           std::vector<double>& out) {
            yield::batch::poisson_yield_fast(xs.data(), out.data(),
                                             xs.size());
        };
        c.library_scalar = [](double f) {
            const yield::poisson_model model;
            return model.yield(f).value();
        };
        c.target_line = R"({"op":"yield","model":"poisson"})";
        c.param = "expected_faults";
        cases.push_back(std::move(c));
    }
    {
        kernel_case c;
        c.name = "murphy_yield";
        c.kernel = [](const std::vector<double>& xs,
                      std::vector<double>& out) {
            yield::batch::murphy_yield(xs.data(), out.data(), xs.size());
        };
        c.fast_kernel = [](const std::vector<double>& xs,
                           std::vector<double>& out) {
            yield::batch::murphy_yield_fast(xs.data(), out.data(),
                                            xs.size());
        };
        // The fast form ((-expm1(-l))/l)^2 is better conditioned than
        // the scalar (1-exp(-l))/l, so accuracy is measured against a
        // long-double truth, not the scalar kernel (see file header).
        c.fast_truth = [](double l) {
            const long double t = std::expm1(static_cast<long double>(-l)) /
                                  static_cast<long double>(-l);
            return static_cast<double>(t * t);
        };
        c.library_scalar = [](double f) {
            const yield::murphy_model model;
            return model.yield(f).value();
        };
        c.target_line = R"({"op":"yield","model":"murphy"})";
        c.param = "expected_faults";
        cases.push_back(std::move(c));
    }
    {
        kernel_case c;
        c.name = "negative_binomial_yield";
        c.kernel = [](const std::vector<double>& xs,
                      std::vector<double>& out) {
            const std::vector<double> alpha(xs.size(), 2.5);
            yield::batch::negative_binomial_yield(
                xs.data(), alpha.data(), out.data(), xs.size());
        };
        c.fast_kernel = [](const std::vector<double>& xs,
                           std::vector<double>& out) {
            const std::vector<double> alpha(xs.size(), 2.5);
            yield::batch::negative_binomial_yield_fast(
                xs.data(), alpha.data(), out.data(), xs.size());
        };
        c.library_scalar = [](double f) {
            const yield::negative_binomial_model model{2.5};
            return model.yield(f).value();
        };
        c.target_line = R"({"op":"yield","model":"neg_binomial","alpha":2.5})";
        c.param = "expected_faults";
        cases.push_back(std::move(c));
    }
    {
        kernel_case c;
        c.name = "scaled_poisson_yield";
        c.kernel = [](const std::vector<double>& xs,
                      std::vector<double>& out) {
            const std::vector<double> a(xs.size(), 1.0);
            const std::vector<double> d(xs.size(), 1.72);
            const std::vector<double> p(xs.size(), 4.07);
            yield::batch::scaled_poisson_yield(a.data(), xs.data(),
                                               d.data(), p.data(),
                                               out.data(), xs.size());
        };
        c.fast_kernel = [](const std::vector<double>& xs,
                           std::vector<double>& out) {
            const std::vector<double> a(xs.size(), 1.0);
            const std::vector<double> d(xs.size(), 1.72);
            const std::vector<double> p(xs.size(), 4.07);
            yield::batch::scaled_poisson_yield_fast(
                a.data(), xs.data(), d.data(), p.data(), out.data(),
                xs.size());
        };
        // exp(-u) amplifies pow rounding by u = A*D/lambda^p (~230 at
        // lambda 0.3 on this grid): recorded, not flat-ULP-gated.
        c.fast_ulp_gated = false;
        // Two chained transcendentals against a well-pipelined library
        // baseline: the vector win is smaller and not acceptance-gated.
        c.fast_speedup_gated = false;
        c.library_scalar = [](double lambda) {
            const yield::scaled_poisson_model model{1.72, 4.07};
            return model.yield(square_centimeters{1.0}, microns{lambda})
                .value();
        };
        c.target_line = R"({"op":"yield","model":"scaled_poisson"})";
        c.param = "lambda_um";
        cases.push_back(std::move(c));
    }
    return cases;
}

/// Grid of valid lanes for the swept parameter (all cases accept
/// values in [0.3, 1.5]).
std::vector<double> make_grid(std::size_t n) {
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = 0.3 + 1.2 * static_cast<double>(i) /
                          static_cast<double>(n > 1 ? n - 1 : 1);
    }
    return xs;
}

struct case_result {
    std::string name;
    std::size_t lanes = 0;
    double kernel_rate = 0.0;
    double library_rate = 0.0;
    double engine_rate = 0.0;
    bool bit_exact = false;
    double fast_rate = 0.0;
    double fast_speedup = 0.0;  ///< median of paired fast/library ratios
    std::uint64_t fast_max_ulp = 0;
    bool fast_ulp_gated = true;
    bool fast_speedup_gated = true;
};

}  // namespace

int main() {
    const bool tiny = tiny_mode();
    const std::size_t kernel_lanes = tiny ? 4096 : std::size_t{1} << 19;
    const std::size_t engine_lanes = tiny ? 128 : 8192;
    const double min_seconds = tiny ? 0.01 : 0.2;
    const int speedup_pairs = tiny ? 1 : 7;
    constexpr double required_speedup = 4.0;

    serve::engine_config config;
    config.parallelism = 1;
    config.cache_capacity = 0;  // honest cold per-point evaluation
    serve::engine engine{config};

    std::vector<case_result> results;
    bool all_exact = true;

    for (const kernel_case& c : make_cases()) {
        case_result r;
        r.name = c.name;
        r.lanes = kernel_lanes;

        // Bit-exactness first: the speedup is only meaningful if the
        // kernel reproduces the scalar library bits.
        {
            const std::vector<double> xs = make_grid(2048);
            std::vector<double> kernel_out(xs.size());
            c.kernel(xs, kernel_out);
            r.bit_exact = true;
            for (std::size_t i = 0; i < xs.size(); ++i) {
                const double expected = c.library_scalar(xs[i]);
                if (std::memcmp(&expected, &kernel_out[i],
                                sizeof expected) != 0) {
                    r.bit_exact = false;
                    std::printf("FAIL: %s lane %zu differs\n",
                                c.name.c_str(), i);
                    break;
                }
            }
            all_exact = all_exact && r.bit_exact;
        }

        // Fast-path accuracy: max ULP drift over the dense grid against
        // the row's reference (scalar kernel, or long-double truth for
        // the rows where the scalar formulation is the less accurate
        // one — see the file header).
        r.fast_ulp_gated = c.fast_ulp_gated;
        r.fast_speedup_gated = c.fast_speedup_gated;
        {
            const std::vector<double> xs = make_grid(2048);
            std::vector<double> fast_out(xs.size());
            c.fast_kernel(xs, fast_out);
            std::vector<double> ref(xs.size());
            if (c.fast_truth) {
                for (std::size_t i = 0; i < xs.size(); ++i) {
                    ref[i] = c.fast_truth(xs[i]);
                }
            } else {
                c.kernel(xs, ref);
            }
            for (std::size_t i = 0; i < xs.size(); ++i) {
                r.fast_max_ulp = std::max(
                    r.fast_max_ulp, ulp_distance(fast_out[i], ref[i]));
            }
        }

        const std::vector<double> xs = make_grid(kernel_lanes);
        std::vector<double> out(xs.size());
        r.kernel_rate = rate_lanes_per_s(kernel_lanes, min_seconds,
                                         [&] { c.kernel(xs, out); });
        const paired_rates library_vs_fast = alternating_rates(
            kernel_lanes, min_seconds / 2.0, speedup_pairs,
            [&] {
                for (std::size_t i = 0; i < xs.size(); ++i) {
                    out[i] = c.library_scalar(xs[i]);
                }
            },
            [&] { c.fast_kernel(xs, out); });
        r.library_rate = library_vs_fast.a;
        r.fast_rate = library_vs_fast.b;
        r.fast_speedup = library_vs_fast.ratio;

        // The per-point path a naive sweep would take, step for step:
        // JSON clone -> member poke -> parse_request (canonicalization
        // included) -> evaluate_into -> re-parse -> metric extraction.
        const json::value target_doc = json::parse(c.target_line);
        const std::vector<double> exs = make_grid(engine_lanes);
        std::vector<double> eout(exs.size());
        r.engine_rate = rate_lanes_per_s(engine_lanes, min_seconds, [&] {
            for (std::size_t i = 0; i < exs.size(); ++i) {
                json::value doc = target_doc;
                doc.as_object().set(c.param, json::value{exs[i]});
                const serve::request point = serve::parse_request(doc);
                std::string result;
                engine.evaluate_into(point, result);
                const json::value parsed = json::parse(result);
                eout[i] = parsed.as_object()
                              .find(serve::primary_metric(point.op))
                              ->as_number();
            }
        });

        std::printf(
            "%-24s kernel %12.0f lanes/s | library %12.0f (%5.1fx) | "
            "engine per-point %10.0f (%5.1fx) | bit-exact %s | "
            "fast %12.0f (%5.1fx vs library, max %llu ULP%s)\n",
            c.name.c_str(), r.kernel_rate, r.library_rate,
            r.kernel_rate / r.library_rate, r.engine_rate,
            r.kernel_rate / r.engine_rate, r.bit_exact ? "yes" : "NO",
            r.fast_rate, r.fast_speedup,
            static_cast<unsigned long long>(r.fast_max_ulp),
            r.fast_ulp_gated ? "" : ", ungated");
        results.push_back(std::move(r));
    }

    // Machine-readable results.
    json::object doc;
    doc.set("bench", json::value{std::string{"bench_batch_kernels"}});
    doc.set("tiny", json::value{tiny});
    doc.set("simd_target",
            json::value{std::string{
                silicon::simd::to_string(silicon::simd::active_target())}});
    doc.set("required_speedup_vs_engine", json::value{required_speedup});
    json::array rows;
    bool gate_pass = true;
    for (const case_result& r : results) {
        json::object row;
        row.set("name", json::value{r.name});
        row.set("lanes", json::value{static_cast<double>(r.lanes)});
        row.set("kernel_lanes_per_s", json::value{r.kernel_rate});
        row.set("library_scalar_lanes_per_s", json::value{r.library_rate});
        row.set("engine_perpoint_lanes_per_s", json::value{r.engine_rate});
        row.set("speedup_vs_library",
                json::value{r.kernel_rate / r.library_rate});
        row.set("speedup_vs_engine",
                json::value{r.kernel_rate / r.engine_rate});
        row.set("bit_exact", json::value{r.bit_exact});
        row.set("fast_lanes_per_s", json::value{r.fast_rate});
        row.set("fast_speedup_vs_library", json::value{r.fast_speedup});
        row.set("fast_max_ulp",
                json::value{static_cast<double>(r.fast_max_ulp)});
        row.set("fast_ulp_gated", json::value{r.fast_ulp_gated});
        row.set("fast_speedup_gated", json::value{r.fast_speedup_gated});
        rows.push_back(json::value{std::move(row)});
        if (r.kernel_rate < required_speedup * r.engine_rate) {
            gate_pass = false;
        }
    }
    doc.set("kernels", json::value{std::move(rows)});
    json::object gate;
    gate.set("skipped", json::value{tiny});
    gate.set("pass", json::value{tiny || (gate_pass && all_exact)});
    doc.set("gate", json::value{std::move(gate)});

    const std::string path = "BENCH_kernels.json";
    std::ofstream file{path, std::ios::binary | std::ios::trunc};
    file << json::dump(json::value{std::move(doc)}) << "\n";
    file.close();
    std::printf("[json] wrote %s\n", path.c_str());

    if (!all_exact) {
        std::printf("FAIL: kernel output not bit-exact\n");
        return 1;
    }
    if (tiny) {
        std::printf("OK: tiny mode, speedup gate skipped\n");
        return 0;
    }
    if (!gate_pass) {
        std::printf("FAIL: kernel < %.0fx engine per-point rate\n",
                    required_speedup);
        return 1;
    }
    std::printf("OK: every kernel >= %.0fx the per-point path it replaced\n",
                required_speedup);
    return 0;
}
