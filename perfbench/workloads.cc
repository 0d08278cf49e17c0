#include "workloads.h"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/core/workloads.h"
#include "src/runtime/health.h"

namespace perfbench {
namespace {

using mpic::CurrentScheme;
using mpic::DepositVariant;
using mpic::HwContext;
using mpic::MachineConfig;
using mpic::Simulation;

// Host threads for the multi-core workload: a fixed count, capped by the
// processors the host offers.
int ClusterHostThreads() {
#ifdef _OPENMP
  return std::min(4, std::max(1, omp_get_num_procs()));
#else
  return 1;
#endif
}

std::unique_ptr<Simulation> MakeUniform(HwContext& hw, uint64_t seed,
                                        DepositVariant variant) {
  mpic::UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 16;
  p.tile = 8;
  p.ppc_x = 8;
  p.ppc_y = 4;
  p.ppc_z = 4;
  p.order = 1;
  p.scheme = CurrentScheme::kDirect;
  p.variant = variant;
  p.seed = seed;
  return mpic::MakeUniformSimulation(hw, p);
}

std::unique_ptr<Simulation> MakeLwfa(HwContext& hw, uint64_t seed,
                                     DepositVariant variant) {
  mpic::LwfaWorkloadParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 64;
  p.tile = 8;
  p.tile_z = 16;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.a0 = 4.0;
  p.scheme = CurrentScheme::kDirect;
  p.variant = variant;
  p.seed = seed;
  return mpic::MakeLwfaSimulation(hw, p);
}

std::unique_ptr<Simulation> MakeBunched(HwContext& hw, uint64_t seed,
                                        DepositVariant variant) {
  mpic::BunchedBeamParams p;
  p.nx = p.ny = p.nz = 16;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 6;
  p.order = 1;
  p.scheme = CurrentScheme::kEsirkepov;
  p.variant = variant;
  p.seed = seed;
  return mpic::MakeBunchedBeamSimulation(hw, p);
}

std::unique_ptr<Simulation> MakeRelax(HwContext& hw, uint64_t seed,
                                      DepositVariant variant) {
  mpic::CollisionalRelaxationParams p;
  p.nx = p.ny = p.nz = 16;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.intra_species = true;
  p.inter_species = true;
  p.variant = variant;
  p.seed = seed;
  // The collision stream is an input too: derive it from the seed.
  p.collision_seed = 0xC0111DE5ull ^ (seed * 0x9E3779B97F4A7C15ull);
  auto sim = mpic::MakeCollisionalRelaxationSimulation(hw, p);
  sim->EnableHealth(mpic::HealthConfig{});
  return sim;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "uniform_ppc128";
    w.params =
        "UniformWorkloadParams 16^3 cells, tile 8, PPC 128 [8,4,4], CIC direct, "
        "kFullOpt, Lx2 1 core, 1 host thread";
    w.warmup_steps = 1;
    w.window_steps = 2;
    w.host_threads = 1;
    w.paper_reference = true;
    w.layer_metrics = {"push.gathers_per_push", "fidelity.wall_speedup_vs_baseline",
                       "fidelity.kernel_speedup_vs_baseline"};
    w.machine = MachineConfig::Lx2();
    w.make = &MakeUniform;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "lwfa_ppc8";
    w.params =
        "LwfaWorkloadParams 8x8x64 cells, tile 8x8x16, PPC 8 [2,2,2], a0 4, "
        "moving window, CIC direct, kFullOpt, Lx2 1 core, 1 host thread";
    w.warmup_steps = 4;
    w.window_steps = 30;
    w.host_threads = 1;
    w.paper_reference = true;
    w.layer_metrics = {"push.gathers_per_push", "sort.global_sorts",
                       "fidelity.wall_speedup_vs_baseline",
                       "fidelity.kernel_speedup_vs_baseline"};
    w.machine = MachineConfig::Lx2();
    w.make = &MakeLwfa;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "bunched_cluster";
    w.params =
        "BunchedBeamParams 16^3 cells, tile 4, peak PPC 216 [6,6,6], Esirkepov "
        "CIC, kFullOpt, Lx2MultiCoreNuma(4,2) with 2 ranks (kCostSteal, "
        "sticky), fixed host threads";
    w.warmup_steps = 3;
    w.window_steps = 10;
    w.host_threads = ClusterHostThreads();
    w.check_gauss = true;
    w.layer_metrics = {"sort.gpma_rebuilds_per_step",
                       "core.comm_share",
                       "core.comm_bytes_per_step",
                       "core.comm_messages_per_step",
                       "core.migrated_per_step",
                       "hw.remote_line_share",
                       "hw.tasks_stolen_per_step",
                       "hw.tasks_stolen_remote_per_step",
                       "hw.steal_cycles_per_step",
                       "hw.host_parallel_speedup"};
    w.machine = MachineConfig::Lx2MultiCoreNuma(4, 2);
    w.machine.num_ranks = 2;
    w.make = &MakeBunched;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "relax_resilient";
    w.params =
        "CollisionalRelaxationParams 16^3 cells, tile 4, PPC 8 [2,2,2], hot + "
        "cold species, Takizuka-Abe intra+inter, HealthConfig{} sentinels, "
        "in-memory checkpoint round trip every 4 steps, kFullOpt, Lx2 1 core, "
        "1 host thread";
    w.warmup_steps = 1;
    w.window_steps = 8;
    w.checkpoint_interval = 4;
    w.host_threads = 1;
    w.layer_metrics = {"push.gathers_per_push",      "collide.cycles_per_pair",
                       "collide.pairs_per_step",     "runtime.health_cycles_share",
                       "runtime.checkpoint_bytes",   "runtime.checkpoint_save_s",
                       "runtime.checkpoint_restore_s"};
    w.machine = MachineConfig::Lx2();
    w.make = &MakeRelax;
    out.push_back(w);
  }
  return out;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = BuildWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

bool IsWorkloadSpecific(const std::string& metric) {
  for (const Workload& w : Workloads()) {
    if (std::find(w.layer_metrics.begin(), w.layer_metrics.end(), metric) !=
        w.layer_metrics.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
