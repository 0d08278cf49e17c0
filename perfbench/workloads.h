// The benchmark's four workloads, built through the library's public workload
// factories (Make*Simulation). Each takes the benchmark seed and the
// deposition variant (kFullOpt for every measured run; kBaseline for the
// traced run's paper reference) and returns an Initialize()d simulation on the
// caller's context.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/simulation.h"
#include "src/hw/machine_config.h"

namespace perfbench {

struct Workload {
  std::string name;
  // One-line parameter summary printed with every run.
  std::string params;
  // Unmeasured steps after setup (first-region thread start-up, cold modeled
  // caches), then the measured window. Both are fixed, so every modeled
  // number is a delta over the same steps on every run.
  int warmup_steps = 0;
  int window_steps = 0;
  // In-window checkpoint save -> restore round trip every this many steps
  // (0 = none).
  int checkpoint_interval = 0;
  // Host OpenMP threads the measured reps run with.
  int host_threads = 1;
  // Output checks specific to the workload.
  bool check_gauss = false;
  // The traced run compares modeled cycles with a kBaseline run (paper
  // Figs 8-9 reference rows).
  bool paper_reference = false;
  // Per-layer metrics of layers only this workload runs. The traced run
  // prints them and writes them to the trace file; the result line carries
  // only the metrics every workload reports.
  std::vector<std::string> layer_metrics;
  mpic::MachineConfig machine;
  std::unique_ptr<mpic::Simulation> (*make)(mpic::HwContext& hw, uint64_t seed,
                                            mpic::DepositVariant variant) = nullptr;
};

// All workloads in a fixed order.
const std::vector<Workload>& Workloads();

// The named workload, or null.
const Workload* FindWorkload(const std::string& name);

// True when `metric` is in some workload's layer_metrics.
bool IsWorkloadSpecific(const std::string& metric);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
