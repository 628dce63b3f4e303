// The traced mode: the benchmark's layer stack built from the layers'
// public constructors, with a timing decorator at each seam.
#ifndef YCSBT_PERF_TRACE_H_
#define YCSBT_PERF_TRACE_H_

#include "bench.h"

namespace ycsbt {
namespace perf {

/// Loads, runs and validates `spec` through the traced stack and fills
/// `out` with the per-layer metrics.
Status RunTraced(const WorkloadSpec& spec, const Args& args, RunOutcome* out);

}  // namespace perf
}  // namespace ycsbt

#endif  // YCSBT_PERF_TRACE_H_
