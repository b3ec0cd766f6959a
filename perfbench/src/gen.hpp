// gen.hpp — deterministic request generation for the silicond benchmark.
//
// Every request line is a pure function of (workload, seed, stream,
// index): the client and the byte-exact check regenerate the same line
// independently, so no corpus is stored.  Streams split one seed into
// independent substreams (load connection 0, 1, the probe stream, ...).
//
// Workloads:
//   point_hot   point queries drawn uniformly from a fixed working set of
//               exactly `hot_keys` distinct canonical keys;
//   point_cold  the same endpoint mix with every continuous parameter
//               drawn fresh per request, so no key repeats;
//   explore     large sweep / partition_explore / mc_yield requests with
//               jittered endpoints, so no lane hits the cache.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: the generator behind every random draw here.
struct splitmix64 {
    std::uint64_t state;

    std::uint64_t next() noexcept {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1).
    double uniform() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
    double range(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }
    std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
};

/// Independent generator for one (seed, stream, index) triple.
[[nodiscard]] splitmix64 rng_for(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t index) noexcept;

enum class workload { point_hot, point_cold, explore };

[[nodiscard]] std::optional<workload> workload_from(std::string_view name);
[[nodiscard]] std::string_view to_string(workload w);

/// Distinct keys in the point_hot working set.
inline constexpr std::size_t hot_keys = 32768;

/// Stream ids (substreams of one seed).
inline constexpr std::uint64_t stream_load0 = 0;
inline constexpr std::uint64_t stream_probe = 8;
inline constexpr std::uint64_t stream_warm = 9;
inline constexpr std::uint64_t stream_hot_set = 10;

/// The point_hot working set for `seed`: `hot_keys` lines whose
/// canonical keys are pairwise distinct.
[[nodiscard]] std::vector<std::string> hot_working_set(std::uint64_t seed);

/// One fresh point query (the point_cold mix; never a table3 line, since
/// table3 has no continuous parameter to draw).
[[nodiscard]] std::string cold_point_line(splitmix64& rng);

/// Kinds of explore request: scenario1, scenario2 and yield-model
/// sweeps (4096 lanes), cost_tr sweeps (1024 lanes), partition_explore
/// (splits 1,2,4,8 x 256 areas) and mc_yield (20,000 dies).
inline constexpr std::uint64_t explore_kinds = 6;

/// One large explore request of kind `kind % explore_kinds`.
[[nodiscard]] std::string explore_line(splitmix64& rng, std::uint64_t kind);

/// Request lines of one workload, regenerable by index.
class generator {
public:
    generator(workload w, std::uint64_t seed);

    /// Line `index` of `stream`.  For point_hot it is a working-set
    /// entry; the probe stream always draws point_hot-style lines,
    /// `stream_hot_set` walks the working set in order and
    /// `stream_warm` always draws point_cold lines.
    [[nodiscard]] std::string line(std::uint64_t stream,
                                   std::uint64_t index) const;

    [[nodiscard]] const std::vector<std::string>& working_set() const {
        return hot_;
    }
    [[nodiscard]] workload kind() const noexcept { return kind_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

private:
    workload kind_;
    std::uint64_t seed_;
    std::vector<std::string> hot_;  ///< the point_hot working set
};

/// Lanes a request line evaluates: sweep points, partition_explore
/// cells (splits x count), 1 for every other endpoint.  0 for a line
/// that does not parse.
[[nodiscard]] std::uint64_t count_lanes(std::string_view line);

/// Canonical cache key of a request line ("" when it does not parse).
[[nodiscard]] std::string canonical_key(std::string_view line);

}  // namespace perfbench
