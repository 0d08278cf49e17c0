#include "trace.h"

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, const mpic::CostLedger* ledger) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back().id;
  s.run_id = run_id_;
  s.has_cycles = ledger != nullptr;
  const int id = static_cast<int>(spans_.size());
  OpenSpan open{id, ledger, {}, 0.0};
  if (ledger != nullptr) {
    open.phase_cycles = ledger->phase_cycles();
    open.total_cycles = ledger->TotalCycles();
  }
  open_.push_back(open);
  // Take the clock last so the bookkeeping above stays outside the span.
  s.start = NowSeconds();
  spans_.push_back(std::move(s));
  return id;
}

void SpanRecorder::End(int id) {
  if (id < 0) {
    return;
  }
  const double end = NowSeconds();
  const OpenSpan& open = open_.back();
  Span& s = spans_[static_cast<size_t>(id)];
  s.end = end;
  if (open.ledger != nullptr) {
    const auto& after = open.ledger->phase_cycles();
    for (size_t p = 0; p < after.size(); ++p) {
      s.phase_cycles[p] = after[p] - open.phase_cycles[p];
    }
    s.total_cycles = open.ledger->TotalCycles() - open.total_cycles;
  }
  open_.pop_back();
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end - s.start;
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    }
  }
  return self;
}

std::map<std::string, SpanSummary> SpanRecorder::Summarize() const {
  const std::vector<double> self = SelfSeconds();
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.total_s += s.end - s.start;
    sum.self_s += self[i];
  }
  return out;
}

}  // namespace perfbench
