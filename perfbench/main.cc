// perfbench binary: runs one benchmark workload in this process and prints its
// metrics. run.py builds it and wraps its last output line into the
// benchmark's result line.
//
//   perfbench_bin --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Untraced run: repeats (setup, warmup, measured window, output checks) on a
// fresh simulation until the next repetition would overrun --seconds (at least
// twice), with factory-only calls spread over the run, then reports the
// end-to-end metrics: modeled pushes/s over the window (deterministic), host
// pushes/s over the window with each step at its fastest repetition, setup
// seconds (the fastest factory call of the run), and the
// process's peak RSS. Traced run: the same, then one more repetition with
// spans recorded and layer probes on its live simulation, plus a 1-thread
// repetition (multi-threaded workloads) and a kBaseline one (paper
// workloads); it reports the per-layer metrics and writes the spans to DIR.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinReps = 2;
constexpr int kMaxReps = 64;
// Factory-only setup samples, taken between the steps of every repetition
// after the first, so they spread over the whole run: after a sample of d
// seconds the next one waits at least d / kSetupShare and at least
// `seconds` / kMaxSetupSamples, so sampling takes at most about kSetupShare of
// the run. Memory contention from other processes on a shared host comes in
// phases of seconds and only ever slows a call down, so setup_s is the
// fastest sample; at least kMinSetupSamples are taken.
constexpr int kMinSetupSamples = 9;
constexpr int kMaxSetupSamples = 64;
constexpr double kSetupShare = 0.15;

class SetupSampler {
 public:
  SetupSampler(const Workload& w, uint64_t seed, double seconds)
      : w_(w), seed_(seed), min_gap_s_(seconds / kMaxSetupSamples) {}

  void MaybeSample() {
    if (samples_.size() < static_cast<size_t>(kMaxSetupSamples) &&
        NowSeconds() >= next_s_) {
      Sample();
    }
  }
  void Sample() {
    mpic::HwContext hw(w_.machine);
    const double t0 = NowSeconds();
    const auto sim = w_.make(hw, seed_, mpic::DepositVariant::kFullOpt);
    const double t1 = NowSeconds();
    samples_.push_back(t1 - t0);
    next_s_ = t1 + std::max((t1 - t0) / kSetupShare, min_gap_s_);
  }
  std::vector<double>& samples() { return samples_; }

 private:
  const Workload& w_;
  uint64_t seed_;
  double min_gap_s_;
  double next_s_ = 0.0;
  std::vector<double> samples_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      o->trace = val == "1";
      if (val != "0" && val != "1") return false;
    } else if (key == "--out") {
      o->out_dir = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds >= 0.0;
}

void SetHostThreads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
  // Start the thread team here, outside every timed region.
#pragma omp parallel
  {
    volatile int id = omp_get_thread_num();
    (void)id;
  }
#else
  (void)threads;
#endif
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool SameModeled(const std::vector<Metric>& a, const std::vector<Metric>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-identical: a modeled number must repeat exactly.
    if (a[i].value != b[i].value) return false;
  }
  return true;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct PaperAnchor {
  const char* wall;
  const char* kernel;
};

PaperAnchor AnchorFor(const std::string& workload) {
  if (workload == "uniform_ppc128") {
    return {"Fig 8: ~1.2x wall at PPC 128 on hardware (the model gives ~2.45x)",
            "Table 1: CIC deposition kernel 2.98x over Baseline at PPC 128"};
  }
  return {"Fig 9: up to 2.62x at high density; the lead shrinks or inverts "
          "below PPC ~8",
          "Fig 9 publishes no kernel figure at PPC 8"};
}

void WriteTrace(const Options& o, const SpanRecorder& rec,
                const std::vector<ProbeResult>& probes,
                const std::vector<Metric>& layer, double t_origin) {
  if (o.out_dir.empty()) return;
  const std::string path =
      o.out_dir + "/trace-" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
  std::ofstream f(path, std::ios::trunc);
  const std::map<std::string, SpanSummary> summary = rec.Summarize();
  const std::vector<double> self = rec.SelfSeconds();
  f << "{\"workload\":" << Quote(o.workload) << ",\"seed\":" << o.seed
    << ",\"spans\":[";
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    f << (i ? "," : "") << "{\"name\":" << Quote(s.name)
      << ",\"start_s\":" << Num(s.start - t_origin)
      << ",\"end_s\":" << Num(s.end - t_origin) << ",\"parent\":" << s.parent
      << ",\"run_id\":" << s.run_id
      << ",\"self_s\":" << Num(self[i]);
    if (s.has_cycles) {
      f << ",\"total_cycles\":" << Num(s.total_cycles) << ",\"phase_cycles\":{";
      for (int p = 0; p < mpic::kNumPhases; ++p) {
        f << (p ? "," : "") << Quote(mpic::PhaseName(static_cast<mpic::Phase>(p)))
          << ":" << Num(s.phase_cycles[static_cast<size_t>(p)]);
      }
      f << "}";
    }
    f << "}";
  }
  f << "],\"summary\":{";
  bool first = true;
  for (const auto& [name, sum] : summary) {
    f << (first ? "" : ",") << Quote(name) << ":{\"count\":" << sum.count
      << ",\"total_s\":" << Num(sum.total_s) << ",\"self_s\":" << Num(sum.self_s)
      << "}";
    first = false;
  }
  f << "},\"probes\":{";
  for (size_t i = 0; i < probes.size(); ++i) {
    const ProbeResult& p = probes[i];
    const mpic::LedgerCounters& c = p.counters;
    f << (i ? "," : "") << Quote(p.name) << ":{\"host_s\":" << Num(p.host_s)
      << ",\"cycles\":" << Num(p.cycles) << ",\"mopas\":" << c.mopas
      << ",\"gathers\":" << c.gathers << ",\"scatters\":" << c.scatters
      << ",\"vpu_ops\":" << c.vpu_ops << ",\"l1_accesses\":"
      << c.l1_hits + c.l1_misses << ",\"l1_misses\":" << c.l1_misses
      << ",\"l2_misses\":" << c.l2_misses << "}";
  }
  f << "},\"per_layer\":{";
  for (size_t i = 0; i < layer.size(); ++i) {
    f << (i ? "," : "") << Quote(layer[i].name) << ":{\"value\":"
      << Num(layer[i].value) << ",\"unit\":" << Quote(layer[i].unit) << "}";
  }
  f << "}}\n";
  if (!f) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

// The untraced repetitions and the end-to-end metrics they give.
struct EndToEndRun {
  std::vector<RepResult> reps;
  std::vector<Metric> modeled;  // ModeledMetrics of the first repetition
  std::vector<Metric> metrics;
  // Printed but not in the result line: see perfbench/README.md.
  double host_pushes_per_s = 0.0;
  std::vector<double> windows;  // host window seconds per repetition
  std::vector<double> steps;    // host seconds per window step, pooled
};

EndToEndRun MeasureEndToEnd(const Workload& w, const Options& o, Checks* checks) {
  EndToEndRun run;
  SpanRecorder off(false, 0);
  SetupSampler sampler(w, o.seed, o.seconds);
  const double t_start = NowSeconds();
  double last_rep_s = 0.0;
  double rss_mib = 0.0;
  while (run.reps.size() < static_cast<size_t>(kMinReps) ||
         (run.reps.size() < static_cast<size_t>(kMaxReps) &&
          NowSeconds() - t_start + last_rep_s <= o.seconds)) {
    const double t0 = NowSeconds();
    // The first repetition runs alone, so the peak RSS read after it is one
    // simulation's.
    const BetweenSteps between = [&] {
      if (!run.reps.empty()) sampler.MaybeSample();
    };
    run.reps.push_back(RunRep(w, o.seed, mpic::DepositVariant::kFullOpt, off, {}, between));
    last_rep_s = NowSeconds() - t0;
    if (run.reps.size() == 1) {
      // Later repetitions only re-use freed memory; reading the peak here keeps
      // allocator fragmentation across repetitions out of the number.
      rss_mib = PeakRssMiB();
    }
    const RepResult& r = run.reps.back();
    sampler.samples().push_back(r.setup_s);
    checks->Merge(r.checks);
    std::printf("rep %zu: setup %.4f s, window %.4f host s, %.6g modeled s, "
                "%lld pushes, digest %s\n",
                run.reps.size(), r.setup_s, r.window_host_s(), r.modeled_s(),
                static_cast<long long>(r.pushes()), Hex(r.digest).c_str());
  }
  while (sampler.samples().size() < static_cast<size_t>(kMinSetupSamples)) {
    sampler.Sample();
  }
  const std::vector<double>& setups = sampler.samples();
  run.modeled = ModeledMetrics(run.reps[0]);
  for (size_t i = 1; i < run.reps.size(); ++i) {
    checks->Add(run.reps[i].digest == run.reps[0].digest,
                "rep " + std::to_string(i + 1) + " digest differs from rep 1");
    checks->Add(SameModeled(ModeledMetrics(run.reps[i]), run.modeled),
                "rep " + std::to_string(i + 1) +
                    " modeled metrics differ from rep 1");
  }
  // Every repetition does the same work step by step (checked above), so the
  // window's host time is the sum over its steps of each step's fastest
  // repetition: memory contention from other processes only ever slows a
  // step down, and comes in phases of seconds.
  std::vector<double> fastest = run.reps[0].step_window_s;
  for (const RepResult& r : run.reps) {
    for (size_t k = 0; k < fastest.size() && k < r.step_window_s.size(); ++k) {
      fastest[k] = std::min(fastest[k], r.step_window_s[k]);
    }
    run.windows.push_back(r.window_host_s());
    run.steps.insert(run.steps.end(), r.step_s.begin(), r.step_s.end());
  }
  double window_s = 0.0;
  for (double v : fastest) window_s += v;
  run.host_pushes_per_s = static_cast<double>(run.reps[0].pushes()) / window_s;
  const double setup_s = *std::min_element(setups.begin(), setups.end());
  run.metrics = {
      {"modeled_pushes_per_s", "pushes/s", run.modeled[0].value},
      {"setup_s", "s", setup_s},
      {"host_peak_rss_mb", "MiB", rss_mib},
  };
  std::printf("setup: %zu factory calls over the run, min %.4f s, median %.4f s\n",
              setups.size(), setup_s, Median(setups));
  return run;
}

// The traced run: one traced repetition with layer probes, the 1-thread
// repetition of a multi-threaded workload, the kBaseline repetition of a paper
// workload. Returns the per-layer metrics every workload reports (the result
// line's metrics), prints those and the workload's own layer metrics, and
// writes all of them with the spans to the trace file.
std::vector<Metric> MeasureLayers(const Workload& w, const Options& o, int threads,
                                  const EndToEndRun& run, Checks* checks,
                                  double t_origin) {
  const RepResult& first = run.reps[0];
  const auto same_as_first = [&](const RepResult& r) {
    return r.digest == first.digest && SameModeled(ModeledMetrics(r), run.modeled);
  };
  SpanRecorder rec(true, 1);
  std::vector<ProbeResult> probes;
  const RepResult traced =
      RunRep(w, o.seed, mpic::DepositVariant::kFullOpt, rec,
             [&](mpic::Simulation& sim) { probes = RunProbes(sim, rec); });
  checks->Merge(traced.checks);
  checks->Add(same_as_first(traced),
              "the traced repetition differs from the untraced ones");

  SpanRecorder off(false, 0);
  double parallel_speedup = 1.0;
  if (threads > 1) {
    SetHostThreads(1);
    const RepResult one = RunRep(w, o.seed, mpic::DepositVariant::kFullOpt, off);
    SetHostThreads(threads);
    checks->Merge(one.checks);
    checks->Add(same_as_first(one), "the 1-thread repetition differs from the " +
                                        std::to_string(threads) + "-thread ones");
    parallel_speedup = one.window_host_s() / Median(run.windows);
  }

  double wall_speedup = 0.0;
  double kernel_speedup = 0.0;
  if (w.paper_reference) {
    const RepResult base = RunRep(w, o.seed, mpic::DepositVariant::kBaseline, off);
    checks->Merge(base.checks);
    wall_speedup = base.modeled_s() / first.modeled_s();
    kernel_speedup = base.report.deposition_seconds / first.report.deposition_seconds;
  }

  std::vector<Metric> all(run.modeled.begin() + 1, run.modeled.end());
  const auto probe_s = [&](const char* name) {
    for (const ProbeResult& p : probes) {
      if (p.name == name) return p.host_s;
    }
    return 0.0;
  };
  const double l1_accesses = static_cast<double>(
      (first.after.counters.l1_hits - first.before.counters.l1_hits) +
      (first.after.counters.l1_misses - first.before.counters.l1_misses));
  const std::vector<Metric> host = {
      {"deposit.probe_host_s", "s", probe_s("deposit.probe")},
      {"push.probe_host_s", "s", probe_s("push.probe")},
      {"sort.probe_host_s", "s", probe_s("sort.probe")},
      {"solver.probe_host_s", "s", probe_s("solver.probe")},
      {"runtime.checkpoint_save_s", "s", Median(traced.save_s)},
      {"runtime.checkpoint_restore_s", "s", Median(traced.restore_s)},
      {"core.step_host_ms_p50", "ms", 1e3 * Percentile(run.steps, 0.5)},
      {"core.step_host_ms_p90", "ms", 1e3 * Percentile(run.steps, 0.9)},
      {"hw.host_ns_per_modeled_access", "ns/access",
       l1_accesses > 0.0 ? 1e9 * Median(run.windows) / l1_accesses : 0.0},
      {"hw.host_parallel_speedup", "x", parallel_speedup},
      {"fidelity.wall_speedup_vs_baseline", "x", wall_speedup},
      {"fidelity.kernel_speedup_vs_baseline", "x", kernel_speedup},
      {"trace.step_overhead_ratio", "ratio",
       Median(traced.step_s) / Median(run.steps)},
  };
  all.insert(all.end(), host.begin(), host.end());
  std::vector<Metric> common;
  std::vector<Metric> own;
  for (const Metric& m : all) {
    if (!IsWorkloadSpecific(m.name)) {
      common.push_back(m);
    } else if (std::find(w.layer_metrics.begin(), w.layer_metrics.end(), m.name) !=
               w.layer_metrics.end()) {
      own.push_back(m);
    }
  }

  PrintTable("per-layer metrics (traced run)", common);
  PrintTable("per-layer metrics of this workload's own layers (traced run)", own);
  if (w.paper_reference) {
    const PaperAnchor a = AnchorFor(w.name);
    std::printf("paper reference (modeled LX2 vs kBaseline, same seed; the "
                "model is not validated against hardware; never gated):\n"
                "  wall   %.4gx   anchor: %s\n  kernel %.4gx   anchor: %s\n",
                wall_speedup, a.wall, kernel_speedup, a.kernel);
  }
  std::printf("span self time (traced repetition, %zu spans):\n",
              rec.spans().size());
  for (const auto& [name, sum] : rec.Summarize()) {
    std::printf("  %-20s count %4d  total %10.6f s  self %10.6f s\n",
                name.c_str(), sum.count, sum.total_s, sum.self_s);
  }
  std::vector<Metric> reported = common;
  reported.insert(reported.end(), own.begin(), own.end());
  WriteTrace(o, rec, probes, reported, t_origin);
  return common;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + Quote(metrics[i].name) + ":{\"value\":" +
           Num(metrics[i].value) + ",\"unit\":" + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const double t_origin = NowSeconds();
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_bin --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const int threads = w->host_threads;
  SetHostThreads(threads);
  std::printf("workload %s seed %llu: %s; warmup %d + window %d steps; %d host "
              "thread(s)\n",
              w->name.c_str(), static_cast<unsigned long long>(o.seed),
              w->params.c_str(), w->warmup_steps, w->window_steps, threads);

  Checks checks;
  const EndToEndRun run = MeasureEndToEnd(*w, o, &checks);
  const std::vector<Metric> layer =
      o.trace ? MeasureLayers(*w, o, threads, run, &checks, t_origin)
              : std::vector<Metric>{};

  PrintTable("end-to-end metrics", run.metrics);
  std::printf("  %-38s %18.6g  pushes/s (not gated)\n", "host_pushes_per_s",
              run.host_pushes_per_s);
  std::printf("  %-38s %18.6g  ratio (%d of %d output checks failed)\n",
              "failed_ratio",
              static_cast<double>(checks.failed) / static_cast<double>(checks.attempted),
              checks.failed, checks.attempted);
  std::printf("host step time: median %.4f s over %zu steps in %zu reps\n",
              Median(run.steps), run.steps.size(), run.reps.size());
  for (const std::string& f : checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  // Last line: machine-readable summary for run.py.
  std::string modeled = "{";
  for (size_t i = 0; i < run.modeled.size(); ++i) {
    modeled += (i ? "," : "") + Quote(run.modeled[i].name) + ":" +
               Num(run.modeled[i].value);
  }
  std::printf("{\"workload\":%s,\"seed\":%llu,\"attempted\":%d,\"failed\":%d,"
              "\"digest\":%s,\"metrics\":%s,\"modeled\":%s}}\n",
              Quote(w->name).c_str(), static_cast<unsigned long long>(o.seed),
              checks.attempted, checks.failed, Quote(Hex(run.reps[0].digest)).c_str(),
              MetricsJson(o.trace ? layer : run.metrics).c_str(), modeled.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
