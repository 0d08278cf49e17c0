// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call into a simulator layer (the workload factory, a step, a
// checkpoint save or restore, a layer probe, the output checks). Each records
// its name, host start/end on a steady clock, the enclosing span, the run it
// belongs to, and optionally the modeled cycles the main ledger was charged
// while it was open, per phase. Spans stay in memory and are written out once,
// when the benchmark ends. A disabled recorder records nothing.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "src/hw/cost_ledger.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the recorder's span list, -1 for a root
  int run_id = 0;
  // Modeled cycles charged to the main ledger while the span was open, per
  // phase, plus their total; present only when a ledger was attached.
  bool has_cycles = false;
  std::array<double, mpic::kNumPhases> phase_cycles{};
  double total_cycles = 0.0;
};

// Self time of one span name: its total duration minus the part of that
// interval its child spans cover.
struct SpanSummary {
  int count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, int run_id) : enabled_(enabled), run_id_(run_id) {}

  bool enabled() const { return enabled_; }

  // Opens a span nested in the innermost open one; returns its index, or -1
  // when disabled. `ledger` (optional) is snapshotted at open and close.
  int Begin(const std::string& name, const mpic::CostLedger* ledger = nullptr);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time of each span, indexed like spans().
  std::vector<double> SelfSeconds() const;
  std::map<std::string, SpanSummary> Summarize() const;

 private:
  bool enabled_;
  int run_id_;
  std::vector<Span> spans_;
  struct OpenSpan {
    int id;
    const mpic::CostLedger* ledger;
    std::array<double, mpic::kNumPhases> phase_cycles;
    double total_cycles;
  };
  std::vector<OpenSpan> open_;
};

// Scoped span: Begin on construction, End on destruction.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const std::string& name,
            const mpic::CostLedger* ledger = nullptr)
      : rec_(rec), id_(rec.Begin(name, ledger)) {}
  ~SpanScope() { rec_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
