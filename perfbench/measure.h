// One measured repetition of a workload ("rep"): build the simulation, run the
// unmeasured warmup, run the fixed measured window, then run the output
// checks. Every modeled number is a difference of ledger and layer counters
// across the window; every check runs after the window's closing snapshot and
// charges nothing to the simulation's context.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/diagnostics.h"
#include "src/core/simulation.h"
#include "src/hw/cost_ledger.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Output checks: each one attempted counts once; failures keep a message.
struct Checks {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void Add(bool ok, const std::string& what);
  void Merge(const Checks& other);
};

// Ledger and layer counters at one instant.
struct Snapshot {
  std::array<double, mpic::kNumPhases> phases{};
  double total_cycles = 0.0;
  mpic::LedgerCounters counters;
  int64_t pushes = 0;
  int64_t global_sorts = 0;
  uint64_t comm_bytes = 0;
  uint64_t comm_messages = 0;
  uint64_t comm_migrated = 0;
};

struct RepResult {
  double setup_s = 0.0;
  // Host seconds of each window step, and of each in-window checkpoint save
  // and restore.
  std::vector<double> step_s;
  // Host seconds of each window step plus the checkpoint round trip after it.
  std::vector<double> step_window_s;
  std::vector<double> save_s;
  std::vector<double> restore_s;

  uint64_t checkpoint_bytes = 0;
  int window_steps = 0;
  double freq_ghz = 1.0;
  Snapshot before;
  Snapshot after;
  mpic::RunReport report;  // window report (kernel throughput, efficiency)
  // Sums over the window's steps.
  int64_t gpma_rebuilds = 0;
  int64_t moved = 0;
  int64_t crossed = 0;
  int64_t collision_pairs = 0;
  uint64_t digest = 0;  // SimulationDigest at the end of the window
  // The rep's output checks.
  Checks checks;

  int64_t pushes() const { return after.pushes - before.pushes; }
  double modeled_s() const;
  // Host seconds of the window: steps plus checkpoint round trips.
  double window_host_s() const;
};

// Called on the rep's live simulation after its checks (the traced run's
// layer probes).
using AfterRep = std::function<void(mpic::Simulation&)>;
// Called after each warmup and window step, outside every timer and ledger
// read (the end-to-end run's factory-only setup samples).
using BetweenSteps = std::function<void()>;

RepResult RunRep(const Workload& w, uint64_t seed, mpic::DepositVariant variant,
                 SpanRecorder& trace, const AfterRep& after = {},
                 const BetweenSteps& between = {});

// Window metrics read off the ledger and layer counters: deterministic for a
// given workload, seed and build.
std::vector<Metric> ModeledMetrics(const RepResult& r);

// Host seconds and modeled cycles/counters of each layer probe on `sim`:
// sort (ScanTile + DeliverMovers, then GlobalSort), deposit (J zeroed,
// BeginStep -> StageAndDepositTile -> colored ReduceTile), push
// (GatherFieldsTile + PushTileBoris) and solver (UpdateB / UpdateE / UpdateB).
// Leaves the simulation unfit to step again.
struct ProbeResult {
  std::string name;
  double host_s = 0.0;
  double cycles = 0.0;
  mpic::LedgerCounters counters;  // counter deltas
};
std::vector<ProbeResult> RunProbes(mpic::Simulation& sim, SpanRecorder& trace);

double Median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
