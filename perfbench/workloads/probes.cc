#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "protocols/combiner.h"
#include "workloads/common.h"

namespace perfbench {

using validity::core::QueryResult;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool WriteSpans(const std::string& path, const std::vector<Tracer>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& span : tracers[t].spans()) {
      std::fprintf(out,
                   "{\"tracer\": %zu, \"name\": \"%s\", \"request\": %llu, "
                   "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   t, span.name, static_cast<unsigned long long>(span.request),
                   span.parent, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

namespace {

void PrintString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c == '\n' ? ' ' : c);
  }
  std::putchar('"');
}

}  // namespace

void Report::Print() const {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"failures\": [",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintString(failures_[i]);
  }
  std::printf("], \"values\": {");
  bool first = true;
  for (const auto& [name, value] : values_) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": %.17g", value);
  }
  std::printf("}, \"samples\": {");
  first = true;
  for (const auto& [name, values] : samples_) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": [");
    for (size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%.17g", i > 0 ? ", " : "", values[i]);
    }
    std::printf("]");
  }
  std::printf("}, \"absent\": {");
  first = true;
  for (const auto& [name, why] : absent_) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": ");
    PrintString(why);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.value == b.value && a.declared == b.declared &&
         a.d_hat_used == b.d_hat_used && a.exact_full == b.exact_full &&
         a.cost.messages == b.cost.messages && a.cost.bytes == b.cost.bytes &&
         a.cost.max_processed == b.cost.max_processed &&
         a.cost.declared_at == b.cost.declared_at &&
         a.cost.last_update_at == b.cost.last_update_at &&
         a.cost.sends_per_tick == b.cost.sends_per_tick &&
         a.cost.computation_histogram.Items() ==
             b.cost.computation_histogram.Items() &&
         a.validity.q_low == b.validity.q_low &&
         a.validity.q_high == b.validity.q_high &&
         a.validity.hc_size == b.validity.hc_size &&
         a.validity.hu_size == b.validity.hu_size &&
         a.validity.within == b.validity.within &&
         a.validity.within_slack == b.validity.within_slack &&
         a.resident_state_bytes == b.resident_state_bytes;
}

double CombineNsProbe(const validity::sketch::FmParams& params,
                      uint64_t seed) {
  using validity::protocols::CombinerKind;
  using validity::protocols::PartialAggregate;
  constexpr size_t kPool = 1024;
  constexpr int kPasses = 32;
  constexpr int kBatches = 9;
  validity::Rng rng(seed);
  std::vector<PartialAggregate> pool;
  pool.reserve(kPool);
  for (size_t i = 0; i < kPool; ++i) {
    pool.push_back(PartialAggregate::Initial(
        CombinerKind::kFmCount, static_cast<validity::HostId>(i), 1.0, params,
        &rng));
  }
  const PartialAggregate identity =
      PartialAggregate::Identity(CombinerKind::kFmCount, params);
  std::vector<double> batch_ns;
  uint64_t first_changed = 0;
  for (int b = 0; b < kBatches; ++b) {
    uint64_t changed = 0;
    const int64_t start = NowNs();
    for (int pass = 0; pass < kPasses; ++pass) {
      PartialAggregate acc = identity;
      for (const PartialAggregate& other : pool) {
        PartialAggregate::CombineOutcome outcome = acc.CombineCompare(other);
        changed += outcome.changed ? 1 : 0;
      }
    }
    batch_ns.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(kPool * kPasses));
    // Every pass starts from the identity, so each batch sees the same
    // number of changes; using the count keeps the combines observable.
    if (b == 0) first_changed = changed;
    if (changed != first_changed || changed == 0) return -1.0;
  }
  std::sort(batch_ns.begin(), batch_ns.end());
  return batch_ns[batch_ns.size() / 2];
}

uint64_t DeliveredMessages(const QueryResult& result) {
  uint64_t delivered = 0;
  for (const auto& [processed, hosts] :
       result.cost.computation_histogram.Items()) {
    delivered += static_cast<uint64_t>(processed) * static_cast<uint64_t>(hosts);
  }
  return delivered;
}

}  // namespace perfbench
