#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>

namespace perfbench {

bool supports_percentile(std::size_t n, double pct) {
    // Samples strictly beyond the nearest-rank position.
    const double beyond = static_cast<double>(n) * (1.0 - pct / 100.0);
    return n > 0 && beyond + 1e-9 >= static_cast<double>(tail_samples_beyond);
}

double tail_percentile(std::size_t n) {
    double best = 0.0;
    for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999}) {
        if (supports_percentile(n, pct)) {
            best = pct;
        }
    }
    return best;
}

double percentile(std::vector<double>& v, double pct) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
    const std::size_t at =
        rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v[at];
}

double median(std::vector<double>& v) { return percentile(v, 50.0); }

std::int64_t now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

}  // namespace perfbench
