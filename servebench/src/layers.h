// In-process per-layer probes of the serving benchmark's traced run. Each
// probe times calls into one layer's public functions on the same
// checkpoint and inputs the end-to-end run serves, with the same 2-thread
// engine budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "traffic.h"

namespace servebench {

struct GemmShape {
  long m = 0, k = 0, l = 0;
};

/// Runs every probe and returns one JSON document:
///   "mismatches"  — probes whose engine / executor / large-tile output
///                   differed from the op-walk reference (empty when correct)
///   "probes"      — scalar timings and counters by metric name
///   "conv_shapes" — conv GEMM shapes of the batch-4 tile graph by FLOPs
///   "passes"      — per-request records plus Scheduler/Server stats of the
///                   in-process traffic passes: sched_tile (4 closed tile
///                   clients on Scheduler::try_submit), net_tile (the same
///                   through an in-process net::Server), sched_mixed (the
///                   mixed_open schedule on the scheduler) and net_workload
///                   (@p w's traffic through an in-process net::Server).
/// With span = min(@p seconds, 20), sched_tile and net_tile run span / 4
/// each, net_workload span / 2, and the mixed replay the full span.
std::string run_layers(const Inputs& in, const std::string& checkpoint,
                       Workload w, double seconds, uint64_t seed,
                       const std::vector<GemmShape>& gemm_shapes);

}  // namespace servebench
