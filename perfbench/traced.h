#pragma once

#include "harness.h"

namespace perfbench {

// The traced run: replays the workload's inputs in-process against the
// library, with spans around the calls into each layer (server, engine,
// core, matrix, graph, storage), and prints the per-layer metrics.
int RunTraced(const Options& opt, const Workload& w);

}  // namespace perfbench
