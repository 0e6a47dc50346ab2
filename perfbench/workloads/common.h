// Shared pieces of the end-to-end benchmark binary: arguments, clocks, the
// in-memory span tracer, the raw-measurement report, and the bit-exact
// QueryResult comparison every correctness check uses.
//
// The binary only measures; perfbench/run.py turns the raw report (last
// stdout line, one JSON object) into the benchmark's metrics.

#ifndef PERFBENCH_WORKLOADS_COMMON_H_
#define PERFBENCH_WORKLOADS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sketch/fm_sketch.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// churn_sweep workers; 0 = min(4, hardware threads).
  uint32_t threads = 0;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_out;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Set-up timing. One batch of set-ups runs before the timed loop and a
/// short one after every repetition, so that the median of setup_s samples
/// the machine over the whole run, as the repetitions do, and not only over
/// its first second. A batch calls `build` at least `min_count` times, then
/// more while the batch has taken under `budget_s`.
constexpr int kFirstSetups = 5;
constexpr double kFirstSetupBudgetS = 1.0;
constexpr double kLoopSetupBudgetS = 0.1;

template <typename Build>
void TimeSetups(int min_count, double budget_s, Build build) {
  constexpr int kMaxBatch = 1000;
  const int64_t start = NowNs();
  for (int i = 0; i < kMaxBatch &&
                  (i < min_count || SecondsSince(start) < budget_s);
       ++i) {
    build();
  }
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// CPU time of the whole process (all threads), in seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// One traced interval. Spans of one query share `request`; `parent` is the
/// index of the enclosing span in the same tracer, or -1.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span store for one thread. Spans are opened and closed by
/// index so a parent can enclose children; nothing is written until the
/// benchmark ends.
class Tracer {
 public:
  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Closes span `index` and returns its duration in seconds.
  double End(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span on `tracer` unless it is null (an untraced pass); returns
/// the span's index, or -1.
inline int32_t BeginIf(Tracer* tracer, const char* name, uint64_t request,
                       int32_t parent = -1) {
  return tracer != nullptr ? tracer->Begin(name, request, parent) : -1;
}

/// Closes span `index` of `tracer` unless it is null; returns its duration
/// in seconds, or 0.
inline double EndIf(Tracer* tracer, int32_t index) {
  return tracer != nullptr ? tracer->End(index) : 0.0;
}

/// Writes every tracer's spans as JSON lines (one span per line, tagged
/// with its tracer index). Returns false if the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Tracer>& tracers);

/// Raw measurements of one run, printed as the last stdout line.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// Records a metric a workload cannot produce, with the reason.
  void Absent(const std::string& name, const std::string& why) {
    absent_[name] = why;
  }
  /// Counts one attempted query, and a failure if `ok` is false.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed correctness check (also printed to stderr).
  void Fail(const std::string& what);

  void Print() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> absent_;
};

/// Field-for-field equality of two query results (the fingerprint set).
bool SameResult(const validity::core::QueryResult& a,
                const validity::core::QueryResult& b);

/// Host nanoseconds per PartialAggregate::CombineCompare of two FM-count
/// aggregates at `params`, the median of several timed batches.
double CombineNsProbe(const validity::sketch::FmParams& params,
                      uint64_t seed);

/// Messages processed in total, from the per-host computation histogram
/// (processed count -> hosts): the deliveries a query's lane received.
uint64_t DeliveredMessages(const validity::core::QueryResult& result);

int RunChurnSweep(const Args& args, Report* report);
int RunServiceTrace(const Args& args, Report* report);
int RunColdGrid(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_COMMON_H_
