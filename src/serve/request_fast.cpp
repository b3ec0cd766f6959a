#include "serve/request_fast.hpp"

#include "exec/arena.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

namespace silicon::serve {

namespace {

using json::aview;

[[noreturn]] void bad_param(std::string message) {
    throw request_error("bad_param", message);
}

bool is_int32(double v) {
    return v == std::floor(v) && std::abs(v) <= 2147483647.0;
}

bool is_uint53(double v) {
    return v == std::floor(v) && v >= 0.0 && v <= 9007199254740992.0;
}

// ---------------------------------------------------------------------------
// Field checks.  A row carries at most one.  The parser runs it right after
// reading the row (an int_range marked `deferred` after the block's last
// row), and the sweep-lane setter applies an integer row's range, so a
// lane is null exactly when its point request fails validation.
// ---------------------------------------------------------------------------

struct no_check {};

/// A name registry: a typo'd model/method name fails the request before
/// anything is evaluated (or cached inside a sweep).  The message is
/// "<label> '<value>' (<name> | <name> ...)".  An enum row's enumerators
/// are the registry indices.
struct one_of {
    std::span<const std::string_view> names;
    std::string_view label;

    [[nodiscard]] std::size_t index(std::string_view v) const {
        return static_cast<std::size_t>(
            std::find(names.begin(), names.end(), v) - names.begin());
    }

    [[noreturn]] void fail(std::string_view v) const {
        std::string m{label};
        m += " '";
        m += v;
        m += "' (";
        for (std::size_t i = 0; i < names.size(); ++i) {
            m += i == 0 ? "" : " | ";
            m += names[i];
        }
        m += ')';
        bad_param(std::move(m));
    }
};

struct int_range {
    int lo;
    int hi;
    std::string_view message;
    bool deferred = false;  ///< checked after the block's last row

    [[nodiscard]] bool accepts(int v) const { return v >= lo && v <= hi; }
};

/// A text field accepted by a predicate, with one fixed message.
struct text_rule {
    bool (*ok)(std::string_view);
    std::string_view message;
};

/// On the second member of a pair: both members finite and positive.
struct positive_pair {
    double partition_explore_request::*first;
    std::string_view message;
};

bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

bool linear_or_log(std::string_view s) { return s == "linear" || s == "log"; }

/// A strictly ascending comma-separated list of at most 8 split counts in
/// [1, 16] (no leading zeros) that includes 1.
bool valid_splits(std::string_view s) {
    int entries = 0;
    int prev = 0;
    bool has_one = false;
    std::size_t i = 0;
    while (true) {
        if (i >= s.size() || s[i] < '1' || s[i] > '9') {
            return false;
        }
        int value = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            value = value * 10 + (s[i] - '0');
            if (value > 16) {
                return false;
            }
            ++i;
        }
        if (value <= prev || ++entries > 8) {
            return false;
        }
        has_one = has_one || value == 1;
        prev = value;
        if (i == s.size()) {
            return has_one;
        }
        if (s[i] != ',') {
            return false;
        }
        ++i;
    }
}

template <class S, class M>
void verify(no_check, const S&, const M&) {}

template <class S>
void verify(const one_of& c, const S&, const std::string& v) {
    if (c.index(v) == c.names.size()) {
        c.fail(v);
    }
}

template <class S>
void verify(const int_range& c, const S&, int v) {
    if (!c.accepts(v)) {
        bad_param(std::string{c.message});
    }
}

template <class S>
void verify(const text_rule& c, const S&, const std::string& v) {
    if (!c.ok(v)) {
        bad_param(std::string{c.message});
    }
}

void verify(const positive_pair& c, const partition_explore_request& s,
            double second) {
    if (!positive_finite(s.*c.first) || !positive_finite(second)) {
        bad_param(std::string{c.message});
    }
}

template <class Check>
constexpr bool deferred(const Check& check) {
    if constexpr (std::is_same_v<Check, int_range>) {
        return check.deferred;
    } else {
        return false;
    }
}

template <class Check>
constexpr bool accepts(const Check& check, int v) {
    if constexpr (std::is_same_v<Check, int_range>) {
        return check.accepts(v);
    } else {
        return true;
    }
}

// ---------------------------------------------------------------------------
// The schema: one row per field, in read order
// ---------------------------------------------------------------------------

/// One field of block S: wire name, member and check.  The member's type
/// is the field's kind: double (number), int (int32), std::uint64_t
/// (non-negative integer <= 2^53), std::string (text), an enum (text
/// from the check's registry) or a block with a schema of its own (a
/// nested JSON object).
template <class S, class M, class Check = no_check>
struct row {
    std::string_view name;
    M S::*member;
    Check check{};

    M& of(S& s) const { return s.*member; }
    const M& of(const S& s) const { return s.*member; }
};

/// A row of block B read flat among the fields of S through S's member
/// `via` (partition_explore's `base` chiplet configuration).
template <class S, class B, class M, class Check>
struct flat_row {
    std::string_view name;
    B S::*via;
    M B::*member;
    Check check{};

    M& of(S& s) const { return s.*via.*member; }
    const M& of(const S& s) const { return s.*via.*member; }
};

template <class S, class B, class... R>
constexpr auto flatten(B S::*via, const std::tuple<R...>& rows) {
    return std::apply(
        [via](const auto&... r) {
            return std::tuple{flat_row{r.name, via, r.member, r.check}...};
        },
        rows);
}

/// `rows`: the fields of S in read order.  `context`: the error-message
/// prefix of a nested block.
template <class S>
struct schema;

/// Indexed by yield_spec_params::kind.
constexpr std::array<std::string_view, 3> yield_spec_models{
    "reference", "scaled", "fixed"};
constexpr std::array<std::string_view, 6> gross_die_methods{
    "maly_rows",     "maly_rows_best_orient", "area_ratio",
    "circumference", "ferris_prabhu",         "exact"};
constexpr std::array<std::string_view, 7> yield_models{
    "poisson",      "murphy",         "seeds",    "bose_einstein",
    "neg_binomial", "scaled_poisson", "reference"};
constexpr std::array<std::string_view, 3> substrates{"organic", "rdl",
                                                     "interposer"};

template <>
struct schema<yield_spec_params> {
    using Y = yield_spec_params;
    static constexpr std::string_view context = "process.yield";
    static constexpr auto rows = std::tuple{
        row{"model", &Y::model,
            one_of{yield_spec_models, "process.yield.model: unknown model"}},
        row{"y0", &Y::y0},
        row{"a0_cm2", &Y::a0_cm2},
        row{"d", &Y::d},
        row{"p", &Y::p},
        row{"fixed", &Y::fixed},
    };
};

template <>
struct schema<process_params> {
    using P = process_params;
    static constexpr std::string_view context = "process";
    static constexpr auto rows = std::tuple{
        row{"c0_usd", &P::c0_usd},
        row{"x", &P::x},
        row{"generation_step_um", &P::generation_step_um},
        row{"wafer_radius_cm", &P::wafer_radius_cm},
        row{"edge_exclusion_cm", &P::edge_exclusion_cm},
        row{"gross_die_method", &P::gross_die_method,
            one_of{gross_die_methods,
                   "process.gross_die_method: unknown gross-die method"}},
        row{"yield", &P::yield},
    };
};

template <>
struct schema<product_params> {
    using P = product_params;
    static constexpr std::string_view context = "product";
    static constexpr auto rows = std::tuple{
        row{"name", &P::name},
        row{"transistors", &P::transistors},
        row{"design_density", &P::design_density},
        row{"feature_size_um", &P::feature_size_um},
        row{"die_aspect_ratio", &P::die_aspect_ratio},
    };
};

template <>
struct schema<economics_params> {
    using E = economics_params;
    static constexpr std::string_view context = "economics";
    static constexpr auto rows = std::tuple{
        row{"overhead_usd", &E::overhead_usd},
        row{"volume_wafers", &E::volume_wafers},
    };
};

template <>
struct schema<cost_tr_request> {
    using Q = cost_tr_request;
    static constexpr auto rows = std::tuple{
        row{"process", &Q::process},
        row{"product", &Q::product},
        row{"economics", &Q::economics},
    };
};

template <>
struct schema<gross_die_request> {
    using Q = gross_die_request;
    static constexpr auto rows = std::tuple{
        row{"wafer_radius_cm", &Q::wafer_radius_cm},
        row{"edge_exclusion_cm", &Q::edge_exclusion_cm},
        row{"die_width_mm", &Q::die_width_mm},
        row{"die_height_mm", &Q::die_height_mm},
        row{"method", &Q::method,
            one_of{gross_die_methods, "method: unknown gross-die method"}},
        row{"scribe_mm", &Q::scribe_mm},
    };
};

template <>
struct schema<yield_request> {
    using Q = yield_request;
    static constexpr auto rows = std::tuple{
        row{"model", &Q::model,
            one_of{yield_models, "yield.model: unknown model"}},
        row{"expected_faults", &Q::expected_faults},
        row{"die_area_cm2", &Q::die_area_cm2},
        row{"defects_per_cm2", &Q::defects_per_cm2},
        row{"critical_steps", &Q::critical_steps},
        row{"alpha", &Q::alpha},
        row{"d", &Q::d},
        row{"p", &Q::p},
        row{"lambda_um", &Q::lambda_um},
        row{"y0", &Q::y0},
        row{"a0_cm2", &Q::a0_cm2},
    };
};

template <>
struct schema<scenario1_request> {
    using Q = scenario1_request;
    static constexpr auto rows = std::tuple{
        row{"lambda_um", &Q::lambda_um},
        row{"c0_usd", &Q::c0_usd},
        row{"x", &Q::x},
        row{"wafer_radius_cm", &Q::wafer_radius_cm},
        row{"design_density", &Q::design_density},
    };
};

template <>
struct schema<scenario2_request> {
    using Q = scenario2_request;
    static constexpr auto rows = std::tuple{
        row{"lambda_um", &Q::lambda_um},
        row{"c0_usd", &Q::c0_usd},
        row{"x", &Q::x},
        row{"wafer_radius_cm", &Q::wafer_radius_cm},
        row{"design_density", &Q::design_density},
        row{"y0", &Q::y0},
    };
};

template <>
struct schema<table3_request> {
    static constexpr auto rows = std::tuple{
        row{"row", &table3_request::row,
            int_range{0, 17, "table3: row must be 0 (all) or 1-17"}},
    };
};

template <>
struct schema<mc_yield_request> {
    using Q = mc_yield_request;
    static constexpr auto rows = std::tuple{
        row{"line_width_um", &Q::line_width_um},
        row{"line_spacing_um", &Q::line_spacing_um},
        row{"line_length_um", &Q::line_length_um},
        row{"line_count", &Q::line_count},
        row{"defect_r0_um", &Q::defect_r0_um},
        row{"defect_p", &Q::defect_p},
        row{"defect_q", &Q::defect_q},
        row{"dies", &Q::dies,
            int_range{1, 100000000, "mc_yield: dies must be in [1, 1e8]",
                      /*deferred=*/true}},
        row{"defects_per_um2", &Q::defects_per_um2},
        row{"extra_material_fraction", &Q::extra_material_fraction},
        row{"seed", &Q::seed},
    };
};

template <>
struct schema<stats_request> {
    static constexpr auto rows = std::tuple{};
};

/// The chiplet configuration: every chiplet field but `chiplets`, shared
/// by `chiplet` and `partition_explore`.
constexpr auto chiplet_config_rows = [] {
    using C = chiplet_request;
    return std::tuple{
        row{"logic_area_mm2", &C::logic_area_mm2},
        row{"memory_area_mm2", &C::memory_area_mm2},
        row{"io_area_mm2", &C::io_area_mm2},
        row{"d2d_area_mm2", &C::d2d_area_mm2},
        row{"lambda_um", &C::lambda_um},
        row{"c0_usd", &C::c0_usd},
        row{"x", &C::x},
        row{"generation_step_um", &C::generation_step_um},
        row{"wafer_radius_cm", &C::wafer_radius_cm},
        row{"edge_exclusion_cm", &C::edge_exclusion_cm},
        row{"defects_per_cm2", &C::defects_per_cm2},
        row{"memory_defect_factor", &C::memory_defect_factor},
        row{"io_defect_factor", &C::io_defect_factor},
        row{"clustering_alpha", &C::clustering_alpha},
        row{"test_coverage", &C::test_coverage},
        row{"tester_rate_per_hour", &C::tester_rate_per_hour},
        row{"test_seconds_fixed", &C::test_seconds_fixed},
        row{"test_seconds_per_cm2", &C::test_seconds_per_cm2},
        row{"substrate", &C::substrate,
            one_of{substrates, "substrate: unknown substrate"}},
        row{"substrate_cost_per_cm2", &C::substrate_cost_per_cm2},
        row{"rdl_cost_per_cm2", &C::rdl_cost_per_cm2},
        row{"rdl_defects_per_cm2", &C::rdl_defects_per_cm2},
        row{"interposer_cost_per_cm2", &C::interposer_cost_per_cm2},
        row{"interposer_defects_per_cm2", &C::interposer_defects_per_cm2},
        row{"package_area_factor", &C::package_area_factor},
        row{"bond_yield", &C::bond_yield},
        row{"bonding_cost_per_chiplet", &C::bonding_cost_per_chiplet},
    };
}();

template <>
struct schema<chiplet_request> {
    static constexpr auto rows = std::tuple_cat(
        std::tuple{row{"chiplets", &chiplet_request::chiplets,
                       int_range{1, 16,
                                 "chiplet: chiplets must be in [1, 16]"}}},
        chiplet_config_rows);
};

template <>
struct schema<partition_explore_request> {
    using Q = partition_explore_request;
    static constexpr auto rows = std::tuple_cat(
        flatten(&Q::base, chiplet_config_rows),
        std::tuple{
            row{"splits", &Q::splits,
                text_rule{valid_splits,
                          "partition_explore: splits must be a strictly "
                          "ascending comma-separated list of split counts "
                          "in [1, 16] including 1 (e.g. '1,2,4')"}},
            row{"area_from_mm2", &Q::area_from_mm2},
            row{"area_to_mm2", &Q::area_to_mm2,
                positive_pair{&Q::area_from_mm2,
                              "partition_explore: area_from_mm2/area_to_mm2 "
                              "must be finite and positive"}},
            row{"count", &Q::count,
                int_range{1, 65536,
                          "partition_explore: count must be in [1, 65536]"}},
            row{"scale", &Q::scale,
                text_rule{linear_or_log,
                          "partition_explore: scale must be 'linear' or "
                          "'log'"}},
        });
};

template <class M>
constexpr bool is_block = requires { schema<M>::rows; };

template <class M>
constexpr bool is_number = std::is_same_v<M, double> ||
                           std::is_same_v<M, int> ||
                           std::is_same_v<M, std::uint64_t>;

/// Calls `f(row)` for each row of block S, in read order.
template <class S, class F>
void for_each_row(F&& f) {
    std::apply([&f](const auto&... r) { (f(r), ...); }, schema<S>::rows);
}

// ---------------------------------------------------------------------------
// Walker 1: the parser (validating field access over an arena view)
// ---------------------------------------------------------------------------

class fast_reader {
  public:
    fast_reader(const aview& o, std::string_view context)
        : o_{o}, context_{context} {}

    [[nodiscard]] double number(std::string_view key, double fallback) {
        const aview* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number()) {
            fail_type(key, "a number");
        }
        return v->number;
    }

    [[nodiscard]] int integer(std::string_view key, int fallback) {
        const aview* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number() || !is_int32(v->number)) {
            fail_type(key, "an integer");
        }
        return static_cast<int>(v->number);
    }

    [[nodiscard]] std::uint64_t uinteger(std::string_view key,
                                         std::uint64_t fallback) {
        const aview* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number() || !is_uint53(v->number)) {
            fail_type(key, "a non-negative integer (<= 2^53)");
        }
        return static_cast<std::uint64_t>(v->number);
    }

    [[nodiscard]] std::string_view text(std::string_view key,
                                        std::string_view fallback) {
        const aview* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_string()) {
            fail_type(key, "a string");
        }
        return v->string;
    }

    [[nodiscard]] const aview* raw(std::string_view key) { return get(key); }

    void forbid_unknown() const {
        for (std::uint32_t i = 0; i < o_.count; ++i) {
            const std::string_view key = o_.members[i].key;
            bool known = false;
            for (std::size_t j = 0; j < consumed_count_; ++j) {
                if (consumed_[j] == key) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                throw request_error("unknown_field",
                                    std::string{context_} +
                                        ": unknown field '" +
                                        std::string{key} + "'");
            }
        }
    }

  private:
    const aview* get(std::string_view key) {
        if (consumed_count_ >= consumed_.size()) {
            // Unreachable: every block consumes a fixed key list.
            throw std::logic_error("fast_reader: too many fields");
        }
        consumed_[consumed_count_++] = key;
        return o_.find(key);
    }

    [[noreturn]] void fail_type(std::string_view key,
                                const char* wanted) const {
        bad_param(std::string{context_} + ": field '" + std::string{key} +
                  "' must be " + wanted);
    }

    const aview& o_;
    std::string_view context_;
    // Sized for the widest block: partition_explore consumes
    // op + id + deadline_ms + trace_id + 27 base fields +
    // splits/area/count/scale.
    std::array<std::string_view, 40> consumed_{};
    std::size_t consumed_count_ = 0;
};

const aview& require_object_fast(const aview& v, std::string_view context) {
    if (!v.is_object()) {
        bad_param(std::string{context} + " must be a JSON object");
    }
    return v;
}

template <class S>
void read_block(fast_reader& r, S& s);

template <class S, class Row>
void read_row(fast_reader& r, const Row& row, S& s) {
    auto& m = row.of(s);
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (std::is_enum_v<M>) {
        const std::string_view name =
            r.text(row.name, row.check.names[static_cast<std::size_t>(m)]);
        const std::size_t i = row.check.index(name);
        if (i == row.check.names.size()) {
            row.check.fail(name);
        }
        m = static_cast<M>(i);
    } else if constexpr (is_block<M>) {
        if (const aview* v = r.raw(row.name)) {
            constexpr std::string_view context = schema<M>::context;
            fast_reader sub{require_object_fast(*v, context), context};
            read_block(sub, m);
            sub.forbid_unknown();
        }
    } else {
        if constexpr (std::is_same_v<M, double>) {
            m = r.number(row.name, m);
        } else if constexpr (std::is_same_v<M, int>) {
            m = r.integer(row.name, m);
        } else if constexpr (std::is_same_v<M, std::uint64_t>) {
            m = r.uinteger(row.name, m);
        } else {
            m.assign(r.text(row.name, m));  // capacity-preserving
        }
        if (!deferred(row.check)) {
            verify(row.check, s, m);
        }
    }
}

template <class S, class Row>
void verify_deferred(const Row& row, const S& s) {
    if constexpr (std::is_same_v<decltype(row.check), int_range>) {
        if (row.check.deferred) {
            verify(row.check, s, row.of(s));
        }
    }
}

/// Reads the rows of S in order (members absent from the object keep the
/// defaults `s` holds) and runs each check where the schema places it.
template <class S>
void read_block(fast_reader& r, S& s) {
    std::apply(
        [&](const auto&... row) {
            (read_row(r, row, s), ...);
            (verify_deferred(row, s), ...);
        },
        schema<S>::rows);
}

/// Reuses the payload alternative when the op repeats (preserving string
/// capacity) and resets it to schema defaults either way.
template <class T>
T& ensure_payload(request& r) {
    if (T* p = std::get_if<T>(&r.payload)) {
        *p = T{};  // capacity-preserving: all default strings are SSO
        return *p;
    }
    return r.payload.template emplace<T>();
}

/// Calls `f(std::type_identity<T>{})` with T the payload type of `op`.
template <class F>
void with_payload_type(op_code op, const F& f) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((static_cast<std::size_t>(op) == I
              ? f(std::type_identity<
                  std::variant_alternative_t<I, request_payload>>{})
              : void()),
         ...);
    }(std::make_index_sequence<std::variant_size_v<request_payload>>{});
}

// ---------------------------------------------------------------------------
// Walker 2: the canonical key
// ---------------------------------------------------------------------------

/// The variant index of payload S, or variant_npos for a nested block.
template <class S>
constexpr std::size_t payload_index() {
    return []<std::size_t... I>(std::index_sequence<I...>) {
        std::size_t found = std::variant_npos;
        ((found = std::is_same_v<S, std::variant_alternative_t<
                                        I, request_payload>>
                      ? I
                      : found),
         ...);
        return found;
    }(std::make_index_sequence<std::variant_size_v<request_payload>>{});
}

/// The member names of S's canonical object: its rows, then "op" for an
/// endpoint payload.
template <class S>
constexpr auto key_members() {
    return std::apply(
        [](const auto&... r) {
            if constexpr (payload_index<S>() == std::variant_npos) {
                return std::array<std::string_view, sizeof...(r)>{r.name...};
            } else {
                return std::array<std::string_view, sizeof...(r) + 1>{
                    r.name..., "op"};
            }
        },
        schema<S>::rows);
}

/// The canonical key of block S lists its members in bytewise name order
/// (json::canonical's order).  `row[k]` is the row written k-th (the
/// row count for "op"), and `text[at[k], at[k + 1])` the bytes before
/// its value: `{"name":` or `,"name":` — for "op", `"op":"<wire name>"`.
template <std::size_t N, std::size_t Bytes>
struct key_plan {
    std::array<std::size_t, N> row{};
    std::array<std::size_t, N + 1> at{};
    std::array<char, Bytes> text{};
};

template <class S>
constexpr std::string_view op_wire_name() {
    if constexpr (payload_index<S>() == std::variant_npos) {
        return {};
    } else {
        return op_names[payload_index<S>()];
    }
}

template <class S>
constexpr auto make_key_plan() {
    constexpr auto names = key_members<S>();
    constexpr std::string_view op = op_wire_name<S>();
    constexpr std::size_t bytes = [] {
        constexpr std::string_view wire = op_wire_name<S>();
        std::size_t n = wire.empty() ? 0 : wire.size() + 2;  // "<wire>"
        for (const std::string_view name : key_members<S>()) {
            n += name.size() + 4;  // {"name": or ,"name":
        }
        return n;
    }();
    key_plan<names.size(), bytes> plan;
    for (std::size_t i = 0; i < names.size(); ++i) {
        plan.row[i] = i;
    }
    std::sort(plan.row.begin(), plan.row.end(),
              [&](std::size_t a, std::size_t b) { return names[a] < names[b]; });
    std::size_t n = 0;
    const auto put = [&](std::string_view text) {
        for (const char c : text) {
            plan.text[n++] = c;
        }
    };
    for (std::size_t k = 0; k < names.size(); ++k) {
        plan.at[k] = n;
        put(k == 0 ? "{\"" : ",\"");
        put(names[plan.row[k]]);
        put("\":");
        if (!op.empty() && plan.row[k] == names.size() - 1) {
            put("\"");
            put(op);
            put("\"");
        }
    }
    plan.at[names.size()] = n;
    return plan;
}

template <class S>
constexpr auto key_plan_of = make_key_plan<S>();

template <class S>
void emit_key(const S& s, std::string& out);

template <class M, class Check>
void emit_value(const M& m, const Check& check, std::string& out) {
    if constexpr (std::is_same_v<M, double>) {
        json::format_number_into(m, out);
    } else if constexpr (is_number<M>) {
        json::format_number_into(static_cast<double>(m), out);
    } else if constexpr (std::is_same_v<M, std::string>) {
        json::write_string_into(out, m);
    } else if constexpr (std::is_enum_v<M>) {
        json::write_string_into(out,
                                check.names[static_cast<std::size_t>(m)]);
    } else {
        emit_key(m, out);
    }
}

template <class S, std::size_t K>
void emit_member(const S& s, std::string& out) {
    constexpr auto& plan = key_plan_of<S>;
    out.append(plan.text.data() + plan.at[K], plan.at[K + 1] - plan.at[K]);
    constexpr std::size_t i = plan.row[K];
    if constexpr (i < std::tuple_size_v<decltype(schema<S>::rows)>) {
        const auto& row = std::get<i>(schema<S>::rows);
        emit_value(row.of(s), row.check, out);
    }
}

template <class S>
void emit_key(const S& s, std::string& out) {
    [&]<std::size_t... K>(std::index_sequence<K...>) {
        (emit_member<S, K>(s, out), ...);
    }(std::make_index_sequence<key_plan_of<S>.row.size()>{});
    out += '}';
}

/// `target_key` is the already-canonical target serialization (spliced
/// verbatim — canonical is idempotent under re-sorting).
void emit_sweep(const sweep_request& q, std::string_view target_key,
                    std::string& out) {
    out += "{\"count\":";
    json::format_number_into(static_cast<double>(q.count), out);
    out += ",\"from\":";
    json::format_number_into(q.from, out);
    out += ",\"op\":\"sweep\",\"param\":";
    json::write_string_into(out, q.param);
    out += ",\"scale\":";
    json::write_string_into(out, q.scale);
    out += ",\"target\":";
    out += target_key;
    out += ",\"to\":";
    json::format_number_into(q.to, out);
    out += '}';
}

// ---------------------------------------------------------------------------
// Walker 3: dotted sweep-parameter paths
// ---------------------------------------------------------------------------

/// Calls `f(row, member)` for the leaf field of `s` at dotted `path` and
/// returns its result; false when no leaf field is there.
template <class S, class F>
bool at_path(S& s, std::string_view path, const F& f) {
    const std::size_t dot = path.find('.');
    const std::string_view head = path.substr(0, dot);
    bool result = false;
    for_each_row<std::remove_const_t<S>>([&](const auto& row) {
        if (row.name != head) {
            return;
        }
        auto& m = row.of(s);
        if constexpr (is_block<std::remove_cvref_t<decltype(m)>>) {
            result = dot != std::string_view::npos &&
                     at_path(m, path.substr(dot + 1), f);
        } else {
            result = dot == std::string_view::npos && f(row, m);
        }
    });
    return result;
}

template <class R, class F>
bool payload_at_path(R& r, std::string_view path, const F& f) {
    return std::visit(
        [&](auto& q) {
            using T = std::remove_cvref_t<decltype(q)>;
            if constexpr (std::is_same_v<T, sweep_request>) {
                return false;
            } else {
                return at_path(q, path, f);
            }
        },
        r.payload);
}

// ---------------------------------------------------------------------------
// Walker 4: request_to_json
// ---------------------------------------------------------------------------

template <class S>
void fields_to_json(const S& s, json::object& o);

template <class M, class Check>
json::value json_of(const M& m, const Check& check) {
    if constexpr (std::is_same_v<M, std::uint64_t>) {
        return json::value{static_cast<double>(m)};
    } else if constexpr (is_number<M> || std::is_same_v<M, std::string>) {
        return json::value{m};
    } else if constexpr (std::is_enum_v<M>) {
        return json::value{
            std::string{check.names[static_cast<std::size_t>(m)]}};
    } else {
        json::object o;
        fields_to_json(m, o);
        return json::value{std::move(o)};
    }
}

template <class S>
void fields_to_json(const S& s, json::object& o) {
    for_each_row<S>([&](const auto& row) {
        o.set(std::string{row.name}, json_of(row.of(s), row.check));
    });
}

// ---------------------------------------------------------------------------
// Top-level parse
// ---------------------------------------------------------------------------

void read_sweep(fast_reader& r, request& req, fast_parse_state& st);

/// Parses a request document into `out` and appends its canonical key
/// into `key_out` (cleared first).  `top` is the caller's state at the
/// top level (it receives the id/trace views and the sweep target) and
/// null for a sweep target.
void parse_request_fast_inner(const aview& doc, request& out,
                              std::string& key_out, fast_parse_state* top) {
    if (!doc.is_object()) {
        throw request_error("bad_request", "request must be a JSON object");
    }
    fast_reader r{doc, "request"};

    const aview* op_member = r.raw("op");
    if (op_member == nullptr || !op_member->is_string()) {
        throw request_error("bad_request", "request: 'op' must be a string");
    }
    const std::optional<op_code> op = op_from_string(op_member->string);
    if (!op.has_value()) {
        throw request_error("unknown_op", "request: unknown op '" +
                                              std::string{op_member->string} +
                                              "'");
    }

    out.op = *op;
    out.has_id = false;
    if (const aview* id = r.raw("id")) {
        out.has_id = true;
        if (top != nullptr) {
            top->id_view = id;
        }
    }
    out.has_deadline = false;
    out.deadline_ms = 0;
    if (r.raw("deadline_ms") != nullptr) {
        // Envelope-level like `id`: validated here, excluded from the
        // canonical key so deadlines never split the memoization cache.
        out.deadline_ms = r.uinteger("deadline_ms", 0);
        out.has_deadline = true;
    }
    out.has_trace = false;
    if (const aview* trace = r.raw("trace_id")) {
        if (!trace->is_string()) {
            throw request_error("bad_param",
                                "request: field 'trace_id' must be a string");
        }
        // `request::trace_id` stays untouched (assigning could allocate);
        // the echo reads the arena-backed view instead.
        out.has_trace = true;
        if (top != nullptr) {
            top->trace_view = trace;
        }
    }

    key_out.clear();
    if (*op == op_code::sweep) {
        // A sweep nested as a sweep target is always rejected by the
        // outer sweep, but its own errors surface first; that rare shape
        // parses through scratch of its own.
        std::unique_ptr<fast_parse_state> nested;
        fast_parse_state* st = top;
        if (st == nullptr) {
            nested = std::make_unique<fast_parse_state>();
            st = nested.get();
        }
        read_sweep(r, out, *st);
        r.forbid_unknown();
        emit_sweep(std::get<sweep_request>(out.payload), st->target_key,
                       key_out);
        return;
    }
    with_payload_type(*op, [&]<class T>(std::type_identity<T>) {
        if constexpr (!std::is_same_v<T, sweep_request>) {
            T& payload = ensure_payload<T>(out);
            read_block(r, payload);
            r.forbid_unknown();
            emit_key(payload, key_out);
        }
    });
}

void read_sweep(fast_reader& r, request& req, fast_parse_state& st) {
    sweep_request& out = ensure_payload<sweep_request>(req);

    const aview* target = r.raw("target");
    if (target == nullptr) {
        throw request_error("bad_param", "sweep: 'target' is required");
    }
    require_object_fast(*target, "sweep.target");
    if (target->find("id") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry an 'id'");
    }
    if (target->find("deadline_ms") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry a 'deadline_ms'");
    }
    if (target->find("trace_id") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry a 'trace_id'");
    }

    parse_request_fast_inner(*target, st.target_req, st.target_key,
                             /*top=*/nullptr);
    if (st.target_req.op == op_code::sweep ||
        st.target_req.op == op_code::stats ||
        primary_metric(st.target_req.op) == nullptr) {
        throw request_error(
            "bad_param",
            "sweep: target op '" +
                std::string{to_string(st.target_req.op)} +
                "' has no sweepable scalar metric");
    }

    const aview* param = r.raw("param");
    if (param == nullptr || !param->is_string()) {
        throw request_error("bad_param",
                            "sweep: 'param' must be a string path");
    }
    out.param.assign(param->string);

    if (!numeric_param_exists(st.target_req, out.param)) {
        throw request_error("bad_param",
                            "sweep: param '" + out.param +
                                "' does not address a numeric parameter of "
                                "the target");
    }

    const aview* from = r.raw("from");
    const aview* to_v = r.raw("to");
    if (from == nullptr || !from->is_number() || to_v == nullptr ||
        !to_v->is_number()) {
        throw request_error("bad_param",
                            "sweep: 'from' and 'to' must be numbers");
    }
    out.from = from->number;
    out.to = to_v->number;
    if (!std::isfinite(out.from) || !std::isfinite(out.to)) {
        throw request_error("bad_param",
                            "sweep: 'from'/'to' must be finite");
    }

    out.count = r.integer("count", out.count);
    if (out.count < 1 || out.count > 65536) {
        throw request_error("bad_param",
                            "sweep: count must be in [1, 65536]");
    }
    out.scale.assign(r.text("scale", out.scale));
    if (!linear_or_log(out.scale)) {
        throw request_error("bad_param",
                            "sweep: scale must be 'linear' or 'log'");
    }
    if (out.scale == "log" && (!(out.from > 0.0) || !(out.to > 0.0))) {
        throw request_error(
            "bad_param", "sweep: log scale requires positive 'from'/'to'");
    }
}

}  // namespace

void parse_request_fast(const json::aview& doc, fast_parse_state& st) {
    st.id_view = nullptr;
    st.trace_view = nullptr;
    parse_request_fast_inner(doc, st.req, st.req.canonical_key, &st);
}

void bind_sweep_target(fast_parse_state& st) {
    auto target = std::make_shared<request>(st.target_req);
    target->canonical_key = st.target_key;
    std::get<sweep_request>(st.req.payload).target = std::move(target);
}

request parse_request(const json::value& doc) {
    // One schema walker: the DOM is re-read as arena views (its dump is
    // the JSON text it was parsed from, numbers round-trip exactly).
    const std::string text = json::dump(doc);
    exec::arena arena;
    json::arena_parser parser;
    fast_parse_state st;
    parse_request_fast(parser.parse(text, arena), st);
    if (st.req.op == op_code::sweep) {
        bind_sweep_target(st);
    }
    request out = std::move(st.req);
    if (out.has_id) {
        out.id = *doc.as_object().find("id");
    }
    if (out.has_trace) {
        out.trace_id = st.trace_view->string;
    }
    return out;
}

void canonical_key_into(const request& r, std::string& out) {
    std::visit(
        [&out](const auto& q) {
            using T = std::decay_t<decltype(q)>;
            if constexpr (std::is_same_v<T, sweep_request>) {
                std::string target_key;
                canonical_key_into(*q.target, target_key);
                emit_sweep(q, target_key, out);
            } else {
                emit_key(q, out);
            }
        },
        r.payload);
}

json::value request_to_json(const request& r) {
    json::object o;
    o.set("op", std::string{to_string(r.op)});
    std::visit(
        [&o](const auto& q) {
            using T = std::decay_t<decltype(q)>;
            if constexpr (std::is_same_v<T, sweep_request>) {
                o.set("target", request_to_json(*q.target));
                o.set("param", q.param);
                o.set("from", q.from);
                o.set("to", q.to);
                o.set("count", q.count);
                o.set("scale", q.scale);
            } else {
                fields_to_json(q, o);
            }
        },
        r.payload);
    return json::value{std::move(o)};
}

bool numeric_param_exists(const request& r, std::string_view path) {
    return payload_at_path(r, path, [](const auto&, const auto& m) {
        return is_number<std::remove_cvref_t<decltype(m)>>;
    });
}

double* numeric_param_ptr(request& r, std::string_view path) {
    double* slot = nullptr;
    (void)payload_at_path(r, path, [&slot](const auto&, auto& m) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(m)>,
                                     double>) {
            slot = &m;
        }
        return slot != nullptr;
    });
    return slot;
}

double set_numeric_param(request& r, std::string_view path, double x) {
    double value = std::numeric_limits<double>::quiet_NaN();
    if (!std::isfinite(x)) {
        return value;  // JSON cannot carry it: no such point request
    }
    (void)payload_at_path(r, path, [&](const auto& row, auto& m) {
        using M = std::remove_cvref_t<decltype(m)>;
        if constexpr (std::is_same_v<M, double>) {
            m = x;
            value = x;
        } else if constexpr (std::is_same_v<M, int>) {
            if (is_int32(x) && accepts(row.check, static_cast<int>(x))) {
                m = static_cast<int>(x);
                value = m;
            }
        } else if constexpr (std::is_same_v<M, std::uint64_t>) {
            if (is_uint53(x)) {
                m = static_cast<std::uint64_t>(x);
                value = static_cast<double>(m);
            }
        }
        return true;
    });
    return value;
}

}  // namespace silicon::serve
