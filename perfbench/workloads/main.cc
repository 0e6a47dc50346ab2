// perfbench_workloads: runs one benchmark workload through the library's public
// API and prints its raw measurements as one JSON object on the last stdout
// line. perfbench/run.py builds this binary and derives the metrics.
//
//   perfbench_workloads --workload churn_sweep --seed 7 --seconds 10 --trace 0
//                    [--threads N] [--trace-out spans.jsonl]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads/common.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--threads") {
      args->threads = static_cast<uint32_t>(std::strtoul(value.c_str(),
                                                         nullptr, 10));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_workloads --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--threads N] [--trace-out PATH]\n");
    return 2;
  }
  perfbench::Report report;
  int rc = 0;
  if (args.workload == "churn_sweep") {
    rc = perfbench::RunChurnSweep(args, &report);
  } else if (args.workload == "service_trace") {
    rc = perfbench::RunServiceTrace(args, &report);
  } else if (args.workload == "cold_grid") {
    rc = perfbench::RunColdGrid(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  report.Print();
  return 0;
}
