#include "measure.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "src/deposit/esirkepov.h"
#include "src/push/boris_pusher.h"
#include "src/push/field_gather.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/digest.h"
#include "src/solver/maxwell_solver.h"

namespace perfbench {
namespace {

using mpic::Phase;
using mpic::Simulation;

// Relative Gauss-residual change the Esirkepov scheme must stay under across
// the window: floating-point rounding level (as in bench_abl_esirkepov).
constexpr double kGaussTolerance = 1e-8;

mpic::LedgerCounters CounterDelta(const mpic::LedgerCounters& a,
                                  const mpic::LedgerCounters& b) {
  mpic::LedgerCounters d;
  d.scalar_ops = b.scalar_ops - a.scalar_ops;
  d.scalar_mem = b.scalar_mem - a.scalar_mem;
  d.vpu_ops = b.vpu_ops - a.vpu_ops;
  d.vpu_mem = b.vpu_mem - a.vpu_mem;
  d.gathers = b.gathers - a.gathers;
  d.scatters = b.scatters - a.scatters;
  d.mopas = b.mopas - a.mopas;
  d.mopa_valid_slots = b.mopa_valid_slots - a.mopa_valid_slots;
  d.atomics = b.atomics - a.atomics;
  d.tasks_stolen = b.tasks_stolen - a.tasks_stolen;
  d.tasks_stolen_remote = b.tasks_stolen_remote - a.tasks_stolen_remote;
  d.steal_cycles = b.steal_cycles - a.steal_cycles;
  d.l1_hits = b.l1_hits - a.l1_hits;
  d.l1_misses = b.l1_misses - a.l1_misses;
  d.l2_hits = b.l2_hits - a.l2_hits;
  d.l2_misses = b.l2_misses - a.l2_misses;
  d.remote_lines = b.remote_lines - a.remote_lines;
  d.remote_cycles = b.remote_cycles - a.remote_cycles;
  return d;
}

Snapshot Take(Simulation& sim) {
  Snapshot s;
  const mpic::CostLedger& ledger = sim.hw().ledger();
  s.phases = ledger.phase_cycles();
  s.total_cycles = ledger.TotalCycles();
  s.counters = ledger.counters();
  s.pushes = sim.particles_pushed();
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    s.global_sorts += sim.block(sid).engine.total_global_sorts();
  }
  if (const mpic::RankComm* comm = sim.rank_comm()) {
    for (const mpic::RankCommStats& r : comm->stats()) {
      s.comm_bytes += r.bytes_sent;
      s.comm_messages += r.messages;
      s.comm_migrated += r.migrated_particles;
    }
  }
  return s;
}

// Nodal charge density of every species, deposited on a separate context so
// the check charges nothing to the simulation's ledger or modeled caches.
mpic::FieldArray ChargeDensity(const Simulation& sim) {
  mpic::HwContext side;
  const mpic::GridGeometry& g = sim.fields().geom;
  mpic::FieldArray rho(g.nx, g.ny, g.nz, 2);
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const mpic::SpeciesBlock& b = sim.block(sid);
    mpic::DepositParams dp;
    dp.geom = b.tiles.geom();
    dp.charge = b.species.charge;
    for (int t = 0; t < b.tiles.num_tiles(); ++t) {
      switch (b.engine.config().order) {
        case 1:
          mpic::DepositCharge<1>(side, b.tiles.tile(t), dp, rho);
          break;
        case 2:
          mpic::DepositCharge<2>(side, b.tiles.tile(t), dp, rho);
          break;
        default:
          mpic::DepositCharge<3>(side, b.tiles.tile(t), dp, rho);
          break;
      }
    }
  }
  rho.FoldGuardsPeriodic();
  return rho;
}

mpic::FieldArray GaussResidual(const Simulation& sim, const mpic::FieldArray& rho) {
  const mpic::GridGeometry& g = sim.fields().geom;
  mpic::FieldArray res(g.nx, g.ny, g.nz, 2);
  mpic::GaussResidualField(sim.fields(), rho, &res);
  return res;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace

void Checks::Add(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Checks::Merge(const Checks& other) {
  attempted += other.attempted;
  failed += other.failed;
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
}

double RepResult::modeled_s() const {
  return (after.total_cycles - before.total_cycles) / (freq_ghz * 1e9);
}

double RepResult::window_host_s() const {
  double s = 0.0;
  for (double v : step_window_s) s += v;
  return s;
}

RepResult RunRep(const Workload& w, uint64_t seed, mpic::DepositVariant variant,
                 SpanRecorder& trace, const AfterRep& after,
                 const BetweenSteps& between) {
  RepResult r;
  r.window_steps = w.window_steps;
  r.freq_ghz = w.machine.freq_ghz;
  mpic::HwContext hw(w.machine);
  SpanScope rep_span(trace, "rep", &hw.ledger());
  std::unique_ptr<Simulation> sim;
  {
    SpanScope span(trace, "setup");
    const double t0 = NowSeconds();
    sim = w.make(hw, seed, variant);
    r.setup_s = NowSeconds() - t0;
  }
  {
    SpanScope span(trace, "warmup", &hw.ledger());
    for (int k = 0; k < w.warmup_steps; ++k) {
      sim->Step();
      if (between) between();
    }
  }

  const int nspecies = sim->num_species();
  std::vector<int64_t> live(static_cast<size_t>(nspecies));
  for (int sid = 0; sid < nspecies; ++sid) {
    live[static_cast<size_t>(sid)] = sim->block(sid).tiles.TotalLive();
  }
  std::optional<mpic::FieldArray> residual0;
  double gauss_scale = 0.0;
  if (w.check_gauss) {
    const mpic::FieldArray rho0 = ChargeDensity(*sim);
    residual0 = GaussResidual(*sim, rho0);
    gauss_scale = mpic::GaussResidualScale(rho0);
  }

  // ---- Measured window ----------------------------------------------------
  r.before = Take(*sim);
  const mpic::PhaseCycles report_before = mpic::SnapshotCycles(hw.ledger());
  bool census_ok = true;
  bool health_ok = true;
  // Modeled cycles charged inside the window's steps and checkpoint round
  // trips, read around each call. Their sum must equal the window's ledger
  // delta: the stats reads and digests between the calls charge nothing.
  double charged_cycles = 0.0;
  std::vector<std::pair<bool, std::string>> round_trips;
  for (int k = 1; k <= w.window_steps; ++k) {
    {
      SpanScope span(trace, "step", &hw.ledger());
      const double c0 = hw.ledger().TotalCycles();
      const double t0 = NowSeconds();
      sim->Step();
      r.step_s.push_back(NowSeconds() - t0);
      charged_cycles += hw.ledger().TotalCycles() - c0;
    }
    double step_window_s = r.step_s.back();
    // Layer bookkeeping: plain reads of the step's stats, no ledger charge.
    const mpic::EngineStepStats& es = sim->last_step_stats();
    r.gpma_rebuilds += es.gpma_rebuilds;
    r.moved += es.moved_particles;
    r.crossed += es.crossed_tiles;
    const mpic::SimStepStats& ss = sim->last_sim_stats();
    r.collision_pairs += ss.collisions.pairs;
    for (int sid = 0; sid < nspecies; ++sid) {
      const mpic::SpeciesStepStats& sp = ss.species[static_cast<size_t>(sid)];
      int64_t& prev = live[static_cast<size_t>(sid)];
      census_ok = census_ok && prev + sp.injected - sp.dropped == sp.live;
      prev = sp.live;
    }
    health_ok = health_ok && !ss.health.tripped();

    if (w.checkpoint_interval > 0 && k % w.checkpoint_interval == 0) {
      // Save -> restore in place, model-synced on both sides and charged to
      // the context. The digests bracketing it are checks: untimed, and they
      // charge nothing.
      const uint64_t digest_before = mpic::SimulationDigest(*sim);
      std::vector<uint8_t> image;
      mpic::CheckpointWriteOptions wo;
      wo.model_sync = true;
      wo.charge = &hw;
      mpic::CheckpointReadOptions ro;
      ro.model_sync = true;
      ro.charge = &hw;
      mpic::CheckpointStatus saved;
      mpic::CheckpointStatus restored;
      const double c0 = hw.ledger().TotalCycles();
      {
        SpanScope span(trace, "checkpoint.save", &hw.ledger());
        const double t0 = NowSeconds();
        saved = mpic::SaveCheckpoint(*sim, &image, wo);
        r.save_s.push_back(NowSeconds() - t0);
      }
      {
        SpanScope span(trace, "checkpoint.restore", &hw.ledger());
        const double t0 = NowSeconds();
        restored = mpic::RestoreCheckpoint(sim.get(), image, ro);
        r.restore_s.push_back(NowSeconds() - t0);
      }
      charged_cycles += hw.ledger().TotalCycles() - c0;
      step_window_s += r.save_s.back() + r.restore_s.back();
      r.checkpoint_bytes = image.size();
      const bool same = mpic::SimulationDigest(*sim) == digest_before;
      round_trips.emplace_back(
          saved.ok && restored.ok && same,
          "checkpoint round trip at window step " + std::to_string(k) +
              (saved.ok ? "" : ": save failed: " + saved.error) +
              (restored.ok ? "" : ": restore failed: " + restored.error) +
              (same ? "" : ": digest changed"));
    }
    r.step_window_s.push_back(step_window_s);
    if (between) between();
  }
  r.after = Take(*sim);
  r.report = mpic::MakeRunReport(hw, report_before, r.pushes(),
                                 sim->block(0).engine.config().order);

  // ---- Output checks (after the closing snapshot) --------------------------
  {
    SpanScope span(trace, "verify");
    r.digest = mpic::SimulationDigest(*sim);
    const double fe = mpic::FieldEnergy(sim->fields());
    const double ke = mpic::TotalKineticEnergy(*sim);
    r.checks.Add(std::isfinite(fe) && std::isfinite(ke),
                 "field or kinetic energy is not finite");
    r.checks.Add(census_ok,
                 "particle census broke (prev live + injected - dropped != live)");
    if (sim->health_monitor() != nullptr) {
      r.checks.Add(health_ok, "a health sentinel tripped in the window");
    }
    for (const auto& rt : round_trips) {
      r.checks.Add(rt.first, rt.second);
    }
    if (w.check_gauss) {
      const mpic::FieldArray residual1 = GaussResidual(*sim, ChargeDensity(*sim));
      const double change =
          mpic::MaxResidualChange(residual1, *residual0, gauss_scale);
      r.checks.Add(std::isfinite(change) && change < kGaussTolerance,
                   "Esirkepov Gauss residual left rounding level: " +
                       std::to_string(change));
    }
    const double window_cycles = r.after.total_cycles - r.before.total_cycles;
    r.checks.Add(std::fabs(charged_cycles - window_cycles) <=
                     1e-9 * std::max(1.0, window_cycles),
                 "modeled cycles were charged in the window outside its steps "
                 "and checkpoint round trips");
  }
  if (after) {
    after(*sim);
  }
  return r;
}

std::vector<Metric> ModeledMetrics(const RepResult& r) {
  const double pushes = static_cast<double>(r.pushes());
  const double steps = static_cast<double>(r.window_steps);
  const auto phase = [&](Phase p) {
    const size_t i = static_cast<size_t>(p);
    return r.after.phases[i] - r.before.phases[i];
  };
  const double total = r.after.total_cycles - r.before.total_cycles;
  const mpic::LedgerCounters c = CounterDelta(r.before.counters, r.after.counters);
  const double l1 = static_cast<double>(c.l1_hits + c.l1_misses);
  const double l2 = static_cast<double>(c.l2_hits + c.l2_misses);
  return {
      {"modeled_pushes_per_s", "pushes/s", Ratio(pushes, r.modeled_s())},
      {"deposit.preproc_cycles_per_push", "cycles/push",
       Ratio(phase(Phase::kPreproc), pushes)},
      {"deposit.compute_cycles_per_push", "cycles/push",
       Ratio(phase(Phase::kCompute), pushes)},
      {"deposit.reduce_cycles_per_push", "cycles/push",
       Ratio(phase(Phase::kReduce), pushes)},
      {"deposit.kernel_pushes_per_s", "pushes/s", r.report.particles_per_second},
      {"deposit.peak_efficiency", "ratio", r.report.peak_efficiency},
      {"deposit.mopa_occupancy", "ratio",
       Ratio(static_cast<double>(c.mopa_valid_slots),
             64.0 * static_cast<double>(c.mopas))},
      {"deposit.mopas_per_push", "mopas/push",
       Ratio(static_cast<double>(c.mopas), pushes)},
      {"push.gather_cycles_per_push", "cycles/push",
       Ratio(phase(Phase::kGather), pushes)},
      {"push.push_cycles_per_push", "cycles/push",
       Ratio(phase(Phase::kPush), pushes)},
      {"push.gathers_per_push", "gathers/push",
       Ratio(static_cast<double>(c.gathers), pushes)},
      {"sort.cycles_per_push", "cycles/push", Ratio(phase(Phase::kSort), pushes)},
      {"sort.global_sorts", "count",
       static_cast<double>(r.after.global_sorts - r.before.global_sorts)},
      {"sort.gpma_rebuilds_per_step", "rebuilds/step",
       Ratio(static_cast<double>(r.gpma_rebuilds), steps)},
      {"sort.moved_per_step", "particles/step",
       Ratio(static_cast<double>(r.moved), steps)},
      {"sort.crossed_tiles_per_step", "particles/step",
       Ratio(static_cast<double>(r.crossed), steps)},
      {"solver.cycles_per_step", "cycles/step", Ratio(phase(Phase::kSolver), steps)},
      {"collide.cycles_per_pair", "cycles/pair",
       Ratio(phase(Phase::kCollide), static_cast<double>(r.collision_pairs))},
      {"collide.pairs_per_step", "pairs/step",
       Ratio(static_cast<double>(r.collision_pairs), steps)},
      {"runtime.health_cycles_share", "ratio", Ratio(phase(Phase::kHealth), total)},
      {"runtime.checkpoint_bytes", "bytes", static_cast<double>(r.checkpoint_bytes)},
      {"core.comm_share", "ratio", Ratio(phase(Phase::kComm), total)},
      {"core.comm_bytes_per_step", "bytes/step",
       Ratio(static_cast<double>(r.after.comm_bytes - r.before.comm_bytes), steps)},
      {"core.comm_messages_per_step", "messages/step",
       Ratio(static_cast<double>(r.after.comm_messages - r.before.comm_messages),
             steps)},
      {"core.migrated_per_step", "particles/step",
       Ratio(static_cast<double>(r.after.comm_migrated - r.before.comm_migrated),
             steps)},
      {"core.other_cycles_per_step", "cycles/step", Ratio(phase(Phase::kOther), steps)},
      {"hw.l1_miss_ratio", "ratio", Ratio(static_cast<double>(c.l1_misses), l1)},
      {"hw.l2_miss_ratio", "ratio", Ratio(static_cast<double>(c.l2_misses), l2)},
      {"hw.remote_line_share", "ratio",
       Ratio(static_cast<double>(c.remote_lines), static_cast<double>(c.l2_misses))},
      {"hw.tasks_stolen_per_step", "tasks/step",
       Ratio(static_cast<double>(c.tasks_stolen), steps)},
      {"hw.tasks_stolen_remote_per_step", "tasks/step",
       Ratio(static_cast<double>(c.tasks_stolen_remote), steps)},
      {"hw.steal_cycles_per_step", "cycles/step", Ratio(c.steal_cycles, steps)},
      {"hw.modeled_accesses_per_push", "accesses/push", Ratio(l1, pushes)},
  };
}

std::vector<ProbeResult> RunProbes(Simulation& sim, SpanRecorder& trace) {
  mpic::HwContext& hw = sim.hw();
  std::vector<ProbeResult> out;
  const auto probe = [&](const std::string& name, const std::function<void()>& body) {
    ProbeResult p;
    p.name = name;
    const double c0 = hw.ledger().TotalCycles();
    const mpic::LedgerCounters k0 = hw.ledger().counters();
    {
      SpanScope span(trace, name, &hw.ledger());
      const double t0 = NowSeconds();
      body();
      p.host_s = NowSeconds() - t0;
    }
    p.cycles = hw.ledger().TotalCycles() - c0;
    p.counters = CounterDelta(k0, hw.ledger().counters());
    out.push_back(p);
  };
  // Sort layer: the incremental scan and ordered mover delivery over every
  // tile, then the full per-tile counting sort. The scan first re-bins
  // particles a moving-window shift left in a neighbouring tile, which the
  // counting sort requires.
  probe("sort.probe", [&] {
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      mpic::SpeciesBlock& b = sim.block(sid);
      mpic::EngineStepStats stats;
      mpic::TileScanPartial partial;
      b.engine.BeginStep(b.tiles, sim.dt());
      for (int t = 0; t < b.tiles.num_tiles(); ++t) {
        b.engine.ScanTile(hw, b.tiles, t, &partial);
      }
      b.engine.AccumulateScan(partial, &stats);
      b.engine.DeliverMovers(b.tiles, &stats);
      b.engine.GlobalSort(b.tiles);
    }
  });
  // Deposition, following the engine's documented per-step protocol.
  probe("deposit.probe", [&] {
    sim.fields().ZeroCurrents();
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      mpic::SpeciesBlock& b = sim.block(sid);
      b.engine.BeginStep(b.tiles, sim.dt());
      b.engine.RefreshTileRegistrations(b.tiles);
      for (int t = 0; t < b.tiles.num_tiles(); ++t) {
        b.engine.StageAndDepositTile(hw, b.tiles, sim.fields(), b.species.charge, t);
      }
      for (const std::vector<int>& color : b.engine.reduce_coloring()) {
        for (int t : color) {
          b.engine.ReduceTile(hw, b.tiles, sim.fields(), t);
        }
      }
    }
  });
  // Gather + push move particles without the boundary stage, so it runs after
  // every probe that indexes cells by position.
  probe("push.probe", [&] {
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      mpic::SpeciesBlock& b = sim.block(sid);
      mpic::PushParams pp;
      pp.dt = sim.dt();
      pp.charge = b.species.charge;
      pp.mass = b.species.mass;
      const int order = b.engine.config().order;
      for (int t = 0; t < b.tiles.num_tiles(); ++t) {
        mpic::ParticleTile& tile = b.tiles.tile(t);
        if (tile.num_live() == 0) {
          continue;
        }
        mpic::GatherScratch& gs = b.gather_scratch[static_cast<size_t>(t)];
        gs.Resize(tile.soa().size());
        if (order == 1) {
          mpic::GatherFieldsTile<1>(hw, tile, sim.fields(), gs);
        } else if (order == 2) {
          mpic::GatherFieldsTile<2>(hw, tile, sim.fields(), gs);
        } else {
          mpic::GatherFieldsTile<3>(hw, tile, sim.fields(), gs);
        }
        mpic::PushTileBoris(hw, tile, gs, pp);
      }
    }
  });
  probe("solver.probe", [&] {
    const mpic::MaxwellSolver solver(sim.config().solver, sim.fields().geom);
    solver.UpdateB(hw, sim.fields(), 0.5 * sim.dt());
    solver.UpdateE(hw, sim.fields(), sim.dt(), sim.staggered_j());
    solver.UpdateB(hw, sim.fields(), 0.5 * sim.dt());
  });
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

}  // namespace perfbench
