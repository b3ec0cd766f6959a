// Unit tests of the benchmark's own code: generator determinism, the
// working-set and no-repeat properties, the tail-percentile rule and
// lane counting.  Run: .bench_build/perfbench_tests (exit 0 = pass).
#include "gen.hpp"
#include "stats.hpp"

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        std::printf("FAIL %s\n", what);
        ++failures;
    } else {
        std::printf("ok   %s\n", what);
    }
}

using namespace perfbench;

std::vector<std::string> first_lines(workload w, std::uint64_t seed,
                                     std::uint64_t stream, std::size_t n) {
    const generator gen{w, seed};
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(gen.line(stream, i));
    }
    return out;
}

void generator_is_deterministic() {
    for (const workload w :
         {workload::point_hot, workload::point_cold, workload::explore}) {
        const auto a = first_lines(w, 7, stream_load0, 300);
        const auto b = first_lines(w, 7, stream_load0, 300);
        const auto c = first_lines(w, 8, stream_load0, 300);
        check(a == b, "same seed gives the same lines");
        check(a != c, "another seed gives other lines");
    }
    const auto s0 = first_lines(workload::point_cold, 7, 0, 100);
    const auto s1 = first_lines(workload::point_cold, 7, 1, 100);
    check(s0 != s1, "streams of one seed differ");
}

void hot_set_has_exact_distinct_keys() {
    const std::vector<std::string> set = hot_working_set(7);
    std::unordered_set<std::string> keys;
    bool all_parse = true;
    for (const std::string& line : set) {
        const std::string key = canonical_key(line);
        all_parse = all_parse && !key.empty();
        keys.insert(key);
    }
    check(set.size() == hot_keys, "working set has 32768 lines");
    check(all_parse, "every working-set line parses");
    check(keys.size() == hot_keys, "working set has 32768 distinct keys");

    const generator gen{workload::point_hot, 7};
    const std::unordered_set<std::string> members(set.begin(), set.end());
    bool inside = true;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        inside = inside && members.count(gen.line(stream_load0, i)) == 1;
        inside = inside && members.count(gen.line(stream_probe, i)) == 1;
    }
    check(inside, "point_hot and probe lines come from the working set");
}

void cold_keys_never_repeat() {
    const generator gen{workload::point_cold, 7};
    std::unordered_set<std::string> keys;
    std::size_t lines = 0;
    bool all_parse = true;
    for (const std::uint64_t stream : {stream_load0, std::uint64_t{1},
                                       std::uint64_t{2}, stream_warm}) {
        for (std::uint64_t i = 0; i < 20000; ++i) {
            const std::string key = canonical_key(gen.line(stream, i));
            all_parse = all_parse && !key.empty();
            keys.insert(key);
            ++lines;
        }
    }
    check(all_parse, "every point_cold line parses");
    check(keys.size() == lines, "point_cold keys never repeat");
}

void tail_percentile_rule() {
    check(tail_percentile(9) == 0.0, "9 samples support no percentile");
    check(tail_percentile(20) == 50.0, "20 samples: p50");
    check(tail_percentile(99) == 50.0, "99 samples: p50 (p90 has 9.9)");
    check(tail_percentile(100) == 90.0, "100 samples: p90");
    check(tail_percentile(999) == 90.0, "999 samples: p90");
    check(tail_percentile(1000) == 99.0, "1000 samples: p99");
    check(tail_percentile(10000) == 99.9, "10000 samples: p99.9");
    check(tail_percentile(123456) == 99.99, "123456 samples: p99.99");
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) {
        v.push_back(i);
    }
    check(percentile(v, 99.0) == 990.0, "nearest-rank p99 of 1..1000");
    check(percentile(v, 50.0) == 500.0, "nearest-rank p50 of 1..1000");
}

void lanes_are_counted() {
    check(count_lanes(R"({"op":"scenario1","lambda_um":0.5})") == 1,
          "a point query is one lane");
    check(count_lanes(R"({"op":"mc_yield","dies":20000})") == 1,
          "mc_yield is one lane");
    check(count_lanes(R"({"op":"sweep","param":"lambda_um","from":0.5,)"
                      R"("to":1.5,"count":4096,"target":{"op":"scenario2"}})") ==
              4096,
          "a 4096-point sweep is 4096 lanes");
    check(count_lanes(R"({"op":"partition_explore","splits":"1,2,4,8",)"
                      R"("count":256})") == 1024,
          "partition_explore 1,2,4,8 x 256 is 1024 lanes");
    check(count_lanes("{not json") == 0, "a bad line counts no lanes");
    const generator gen{workload::explore, 3};
    bool sizes = true;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t n = count_lanes(gen.line(stream_load0, i));
        sizes = sizes && (n == 4096 || n == 1024 || n == 1);
    }
    check(sizes, "explore lines are 4096, 1024 or 1 lanes");
}

}  // namespace

int main() {
    generator_is_deterministic();
    hot_set_has_exact_distinct_keys();
    cold_keys_never_repeat();
    tail_percentile_rule();
    lanes_are_counted();
    std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}
