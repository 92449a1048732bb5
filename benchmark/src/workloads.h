// The four workloads of the end-to-end benchmark. Each takes its seed; the
// program receives only the inputs generated from it.

#ifndef BENCHMARK_SRC_WORKLOADS_H_
#define BENCHMARK_SRC_WORKLOADS_H_

#include <memory>

#include "harness.h"

namespace bench {

std::unique_ptr<Workload> MakeEchoWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeBulkWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeStoreWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeChurnWorkload(uint64_t seed);

}  // namespace bench

#endif  // BENCHMARK_SRC_WORKLOADS_H_
