// replay.hpp — the traced in-process replay behind the per-layer metrics.
//
// The replay regenerates a workload's request lines (same seed as the
// timed run) and drives each layer's public functions directly from the
// benchmark's own code, recording one span per call:
//
//   serve.request   parse_request_fast / parse_request
//   serve.cache     memo_cache::get / put
//   model library   core, geometry, yield, chiplet scalar functions,
//                   yield Monte-Carlo
//   kernels         yield::batch, cost::batch, chiplet::batch
//   exec            exec::parallel_for
//   serve.engine    engine::handle_line_into / handle_batch
//   serve.json      json::dump of the result document
//   serve.snapshot  snapshot::restore_file
//
// Spans live in memory and are written as Chrome trace-event JSON when
// the replay ends.  The same per-line pipeline also runs once untraced;
// the difference in wall time is the reported tracing overhead.
#pragma once

#include "gen.hpp"

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct layer_value {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct replay_config {
    unsigned threads = 1;          ///< engine parallelism (as silicond)
    double wire_lines_per_batch = 1.0;  ///< batch size seen on the wire
    std::string trace_path;        ///< Chrome trace JSON output
    std::string scratch_dir;       ///< snapshot files
};

/// Runs the replay for `gen`'s workload and returns its per-layer
/// metrics (name, value, unit).  Throws std::runtime_error when a
/// replayed line does not answer ok.
[[nodiscard]] std::vector<layer_value> run_replay(const generator& gen,
                                                  const replay_config& cfg);

}  // namespace perfbench
