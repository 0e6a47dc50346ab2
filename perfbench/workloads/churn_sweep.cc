// churn_sweep: the Fig. 7 grid of core::RunChurnSweep, the figure path.
//
// Gnutella-like graph, point-to-point, StandardLineup() at R in {0, 500,
// 2000} with the ORACLE on, on min(4, nproc) sweep workers (closed loop:
// each worker starts its next cell when the previous one finishes).
//
// A repetition is one core::RunChurnSweep call over the whole grid; every
// repetition must return exactly the first one's cells, and at R = 0
// WILDFIRE must be within the ORACLE slack in every trial (the Fig. 7
// claim). After the timed loop one replay checks what the cells cannot
// show: it runs the same grid cell by cell the way RunChurnSweep does
// (core::ParallelForWorker in index order, one session per worker,
// engine.Run(&session, ...) with the same Mix64 seeds) plus an explicit
// SimulatorSession::Reset before each cell, checks that every query was
// declared, and checks that its cells aggregate to RunChurnSweep's. With
// --trace 1 the same replay runs once more with spans around session
// build, reset and Run, bracketed by untraced replays for the trace
// overhead, and a serial probe pass times the ORACLE on finished sessions.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "protocols/oracle.h"
#include "sim/session.h"
#include "topology/generators.h"
#include "workloads/common.h"

namespace perfbench {
namespace {

namespace core = validity::core;
namespace sim = validity::sim;
using validity::Mix64;
using validity::protocols::ProtocolKind;

constexpr uint32_t kHosts = 20000;
constexpr uint32_t kTrials = 10;
const std::vector<uint32_t> kRemovals = {0, 500, 2000};
constexpr validity::HostId kHq = 0;

struct Setup {
  std::unique_ptr<validity::topology::Graph> graph;
  std::unique_ptr<core::QueryEngine> engine;
};

Setup BuildSetup(uint64_t seed, Report* report) {
  Setup setup;
  const int64_t start = NowNs();
  auto graph = validity::topology::MakeGnutellaLike(kHosts, seed);
  VALIDITY_CHECK(graph.ok(), "%s", graph.status().ToString().c_str());
  setup.graph = std::make_unique<validity::topology::Graph>(*std::move(graph));
  const int64_t generated = NowNs();
  std::vector<double> values =
      core::MakeZipfValues(kHosts, Mix64(seed ^ 0x5eed5eedULL));
  const int64_t valued = NowNs();
  setup.engine =
      std::make_unique<core::QueryEngine>(setup.graph.get(), std::move(values));
  const int64_t built = NowNs();
  setup.engine->EstimatedDiameter();
  const int64_t end = NowNs();
  report->Sample("setup_s", static_cast<double>(end - start) * 1e-9);
  report->Sample("topology.generate_ms",
                 static_cast<double>(generated - start) * 1e-6);
  report->Sample("common.zipf_values_ms",
                 static_cast<double>(valued - generated) * 1e-6);
  report->Sample("topology.diameter_ms",
                 static_cast<double>(end - built) * 1e-6);
  return setup;
}

core::QuerySpec Spec() {
  core::QuerySpec spec;
  spec.aggregate = validity::AggregateKind::kCount;
  spec.fm_vectors = 16;
  return spec;
}

bool SameMeanCi(const validity::MeanCi& a, const validity::MeanCi& b) {
  return a.mean == b.mean && a.ci95 == b.ci95 && a.n == b.n;
}

bool SameCell(const core::SweepCell& a, const core::SweepCell& b) {
  return a.protocol == b.protocol && a.fault == b.fault &&
         a.removals == b.removals && SameMeanCi(a.value, b.value) &&
         SameMeanCi(a.messages, b.messages) &&
         SameMeanCi(a.time_cost, b.time_cost) &&
         SameMeanCi(a.max_processed, b.max_processed) &&
         SameMeanCi(a.oracle_low, b.oracle_low) &&
         SameMeanCi(a.oracle_high, b.oracle_high) &&
         a.within_fraction == b.within_fraction &&
         a.within_slack_fraction == b.within_slack_fraction;
}

/// What the replay keeps per grid point (index order = RunChurnSweep's).
struct ReplayRun {
  bool ok = false;
  core::QueryResult result;
  ProtocolKind kind = ProtocolKind::kWildfire;
  uint64_t events = 0;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  size_t table_bytes = 0;
  double run_s = 0.0;    // traced only
  double reset_s = 0.0;  // traced only
};

/// Aggregates replayed runs exactly as RunChurnSweep's serial merge does.
std::vector<core::SweepCell> MergeReplay(
    const std::vector<ReplayRun>& runs,
    const std::vector<core::ProtocolSpec>& lineup) {
  const size_t np = lineup.size();
  std::vector<core::SweepCell> cells;
  size_t i = 0;
  for (uint32_t r : kRemovals) {
    std::vector<validity::RunningStat> value(np), messages(np), time_cost(np),
        max_processed(np);
    std::vector<uint64_t> within(np, 0), within_slack(np, 0);
    validity::RunningStat oracle_low, oracle_high;
    for (uint32_t t = 0; t < kTrials; ++t) {
      for (size_t p = 0; p < np; ++p, ++i) {
        const core::QueryResult& run = runs[i].result;
        value[p].Add(run.value);
        messages[p].Add(static_cast<double>(run.cost.messages));
        time_cost[p].Add(run.cost.declared_at);
        max_processed[p].Add(static_cast<double>(run.cost.max_processed));
        if (run.validity.within) ++within[p];
        if (run.validity.within_slack) ++within_slack[p];
        if (p == 0) {
          oracle_low.Add(run.validity.q_low);
          oracle_high.Add(run.validity.q_high);
        }
      }
    }
    auto summarize = [](const validity::RunningStat& s) {
      return validity::MeanCi{s.mean(), s.ci95_half_width(), s.count()};
    };
    for (size_t p = 0; p < np; ++p) {
      core::SweepCell cell;
      cell.protocol = lineup[p].label;
      cell.fault = sim::FaultSpecLabel(sim::FaultSpec{});
      cell.removals = r;
      cell.value = summarize(value[p]);
      cell.messages = summarize(messages[p]);
      cell.time_cost = summarize(time_cost[p]);
      cell.max_processed = summarize(max_processed[p]);
      cell.oracle_low = summarize(oracle_low);
      cell.oracle_high = summarize(oracle_high);
      cell.within_fraction = static_cast<double>(within[p]) / kTrials;
      cell.within_slack_fraction =
          static_cast<double>(within_slack[p]) / kTrials;
      cells.push_back(cell);
    }
  }
  return cells;
}

/// Lineup protocols by index: WILDFIRE, spanning tree, DAG (any k).
int KindIndex(ProtocolKind kind) {
  return kind == ProtocolKind::kWildfire       ? 0
         : kind == ProtocolKind::kSpanningTree ? 1
                                               : 2;
}
constexpr const char* kRunSpanNames[3] = {"protocols.run.wildfire",
                                          "protocols.run.spanning_tree",
                                          "protocols.run.dag"};

/// RunChurnSweep's run configuration for grid point `i`.
core::RunConfig CellConfig(const std::vector<core::ProtocolSpec>& lineup,
                           uint64_t seed, size_t i) {
  const size_t np = lineup.size();
  const uint32_t r = kRemovals[i / (kTrials * np)];
  const uint32_t t = static_cast<uint32_t>((i / np) % kTrials);
  const size_t p = i % np;
  const uint64_t churn_seed = Mix64(seed ^ (uint64_t{r} << 32) ^ (t + 1));
  core::RunConfig config;
  config.protocol = lineup[p].kind;
  config.protocol_options = lineup[p].options;
  config.churn_removals = r;
  config.churn_seed = churn_seed;
  config.sketch_seed = Mix64(churn_seed + 0x5851f42d4c957f2dULL);
  return config;
}

/// One cell-by-cell replay of the grid on `workers` threads.
struct ReplayPass {
  std::vector<ReplayRun> runs;
  std::vector<Tracer> tracers;  // traced only, one per worker
  std::vector<double> busy_s;   // traced only, per worker
  std::vector<double> build_s;  // traced only, per worker: its session build
  double wall_s = 0.0;
};

/// Replays the grid; with `trace`, records spans and per-part times. The
/// untraced and traced passes do the same library calls, so their wall
/// times differ by the cost of tracing.
ReplayPass Replay(const core::QueryEngine& engine, const core::QuerySpec& spec,
                  const std::vector<core::ProtocolSpec>& lineup, uint64_t seed,
                  uint32_t workers, bool trace) {
  const size_t queries = kRemovals.size() * kTrials * lineup.size();
  ReplayPass pass;
  pass.runs.resize(queries);
  pass.tracers.resize(trace ? workers : 0);
  pass.busy_s.assign(workers, 0.0);
  pass.build_s.assign(workers, 0.0);
  std::vector<std::unique_ptr<sim::SimulatorSession>> sessions(workers);
  const int64_t start = NowNs();
  core::ParallelForWorker(queries, workers, [&](uint32_t w, size_t i) {
    Tracer* tracer = trace ? &pass.tracers[w] : nullptr;
    ReplayRun& run = pass.runs[i];
    const core::RunConfig config = CellConfig(lineup, seed, i);
    const int32_t cell_span = BeginIf(tracer, "sweep.cell", i);
    if (sessions[w] == nullptr) {
      const int32_t span = BeginIf(tracer, "sim.session.build", i, cell_span);
      sessions[w] = std::make_unique<sim::SimulatorSession>(
          engine.topology(), config.sim_options);
      pass.build_s[w] = EndIf(tracer, span);
    }
    sim::SimulatorSession& session = *sessions[w];
    run.kind = config.protocol;
    const int32_t reset_span =
        BeginIf(tracer, "sim.session.reset", i, cell_span);
    session.Reset();
    run.reset_s = EndIf(tracer, reset_span);
    const int32_t run_span =
        BeginIf(tracer, kRunSpanNames[KindIndex(run.kind)], i, cell_span);
    validity::StatusOr<core::QueryResult> result =
        engine.Run(&session, spec, config, kHq);
    run.run_s = EndIf(tracer, run_span);
    run.ok = result.ok() && result->declared;
    if (result.ok()) run.result = *std::move(result);
    const sim::Simulator& simulator = session.simulator();
    run.events = simulator.events_executed();
    run.sent = simulator.metrics().messages_sent();
    run.delivered = simulator.metrics().messages_delivered();
    run.table_bytes = simulator.ResidentTableBytes();
    pass.busy_s[w] += EndIf(tracer, cell_span);
  });
  pass.wall_s = SecondsSince(start);
  return pass;
}

/// Whether a cell of `kind` keeps the Fig. 7 claim: at R = 0 WILDFIRE is
/// within the ORACLE slack in every trial.
bool Fig7Holds(const core::SweepCell& cell, ProtocolKind kind) {
  return cell.removals != 0 || kind != ProtocolKind::kWildfire ||
         cell.within_slack_fraction == 1.0;
}

/// Counts every query of one RunChurnSweep call as attempted; a query fails
/// if its cell differs from the first call's or breaks the Fig. 7 claim.
void CheckSweep(const std::vector<core::SweepCell>& cells,
                const std::vector<core::SweepCell>& reference,
                const std::vector<core::ProtocolSpec>& lineup, int rep,
                Report* report) {
  if (cells.size() != reference.size()) {
    report->Fail("RunChurnSweep returned " + std::to_string(cells.size()) +
                 " cells, the first call " + std::to_string(reference.size()));
  }
  for (size_t c = 0; c < reference.size(); ++c) {
    const bool same = c < cells.size() && SameCell(cells[c], reference[c]);
    // Cells are protocol-minor, in lineup order.
    const bool fig7 = Fig7Holds(reference[c], lineup[c % lineup.size()].kind);
    for (uint32_t t = 0; t < kTrials; ++t) report->Attempt(same && fig7);
    if (!same) {
      report->Fail("RunChurnSweep call " + std::to_string(rep) +
                   " differs from the first at cell " + std::to_string(c));
    }
    if (!fig7 && rep == 0) {
      report->Fail("WILDFIRE at R = 0 is outside the ORACLE slack in some "
                   "trial (Fig. 7 claim)");
    }
  }
}

/// Counts every replayed query as attempted; it fails if its run failed or
/// was not declared, or if the replay's cells differ from RunChurnSweep's.
void CheckReplay(const ReplayPass& pass,
                 const std::vector<core::ProtocolSpec>& lineup,
                 const std::vector<core::SweepCell>& reference,
                 Report* report) {
  const std::vector<core::SweepCell> cells = MergeReplay(pass.runs, lineup);
  bool same = cells.size() == reference.size();
  for (size_t c = 0; same && c < cells.size(); ++c) {
    same = SameCell(cells[c], reference[c]);
  }
  if (!same) report->Fail("replayed cells differ from RunChurnSweep's");
  for (size_t i = 0; i < pass.runs.size(); ++i) {
    report->Attempt(same && pass.runs[i].ok);
    if (!pass.runs[i].ok) {
      report->Fail("replayed query " + std::to_string(i) +
                   " failed or was not declared");
    }
  }
}

/// Every kOracleStride-th grid point is re-run on one session and the
/// ORACLE recomputed on its finished state; returns the median seconds per
/// ComputeOracle call. Each recomputed interval must equal the one engine.Run
/// reported.
double OracleProbes(const core::QueryEngine& engine,
                    const core::QuerySpec& spec,
                    const std::vector<core::ProtocolSpec>& lineup,
                    uint64_t seed, Tracer* tracer, Report* report) {
  constexpr size_t kOracleStride = 5;
  const size_t queries = kRemovals.size() * kTrials * lineup.size();
  sim::SimulatorSession session(engine.topology(), sim::SimOptions{});
  std::vector<double> oracle_s;
  for (size_t i = 0; i < queries; i += kOracleStride) {
    session.Reset();
    const core::RunConfig config = CellConfig(lineup, seed, i);
    validity::StatusOr<core::QueryResult> result =
        engine.Run(&session, spec, config, kHq);
    if (!result.ok()) {
      report->Fail("ORACLE probe run " + std::to_string(i) + " failed");
      continue;
    }
    const sim::Simulator& simulator = session.simulator();
    const double horizon = 2.0 * result->d_hat_used * simulator.options().delta;
    const int32_t span = tracer->Begin("protocols.oracle", i);
    validity::protocols::OracleReport oracle =
        validity::protocols::ComputeOracle(simulator, kHq, 0.0, horizon,
                                           spec.aggregate, engine.values());
    oracle_s.push_back(tracer->End(span));
    if (oracle.q_low != result->validity.q_low ||
        oracle.q_high != result->validity.q_high) {
      report->Fail("ORACLE probe differs at grid point " + std::to_string(i));
    }
  }
  return Median(oracle_s);
}

}  // namespace

int RunChurnSweep(const Args& args, Report* report) {
  const uint32_t workers =
      args.threads != 0 ? core::ResolveThreads(args.threads)
                        : std::min<uint32_t>(4, core::HardwareThreads());
  std::fprintf(stderr, "churn_sweep: %u hosts, %u trials, %u workers\n",
               kHosts, kTrials, workers);

  std::optional<Setup> setup;
  TimeSetups(kFirstSetups, kFirstSetupBudgetS, [&] {
    setup.reset();  // free the previous copy before building the next
    setup.emplace(BuildSetup(args.seed, report));
  });
  const core::QueryEngine& engine = *setup->engine;
  const core::QuerySpec spec = Spec();
  const std::vector<core::ProtocolSpec> lineup = core::StandardLineup();
  const size_t queries = kRemovals.size() * kTrials * lineup.size();
  report->Set("queries_per_rep", static_cast<double>(queries));

  // --- timed loop: whole core::RunChurnSweep calls -------------------------
  core::ChurnSweepOptions options;
  options.trials = kTrials;
  options.base_seed = args.seed;
  options.threads = workers;
  std::vector<core::SweepCell> reference;
  double sweep_s = 0.0;
  double sweep_cpu_s = 0.0;
  const int64_t loop_start = NowNs();
  for (int rep = 0;; ++rep) {
    const double cpu0 = ProcessCpuSeconds();
    const int64_t start = NowNs();
    std::vector<core::SweepCell> cells = core::RunChurnSweep(
        engine, spec, kHq, lineup, kRemovals, options);
    const double wall = SecondsSince(start);
    sweep_cpu_s += ProcessCpuSeconds() - cpu0;
    sweep_s += wall;
    report->Sample("rep_s", wall);
    if (rep == 0) {
      // Set-up plus one figure run.
      report->Set("peak_rss_mb", PeakRssMb());
      reference = cells;
    }
    CheckSweep(cells, reference, lineup, rep, report);
    TimeSetups(1, kLoopSetupBudgetS, [&] { BuildSetup(args.seed, report); });
    // Whole repetitions only: stop when the next one would overrun.
    if (SecondsSince(loop_start) + wall > args.seconds) break;
  }
  double messages = 0.0;
  double within = 0.0;
  for (const core::SweepCell& cell : reference) {
    messages += cell.messages.mean * kTrials;
    within += cell.within_slack_fraction * kTrials;
  }
  report->Set("messages_per_query", messages / static_cast<double>(queries));
  report->Set("valid_fraction", within / static_cast<double>(queries));

  // --- the cell-by-cell replay check ---------------------------------------
  const ReplayPass untraced =
      Replay(engine, spec, lineup, args.seed, workers, false);
  CheckReplay(untraced, lineup, reference, report);

  if (!args.trace) return 0;

  // --- per-layer metrics: a traced replay between two untraced ones ---------
  const ReplayPass pass = Replay(engine, spec, lineup, args.seed, workers, true);
  CheckReplay(pass, lineup, reference, report);
  const ReplayPass after =
      Replay(engine, spec, lineup, args.seed, workers, false);
  CheckReplay(after, lineup, reference, report);
  std::vector<Tracer> tracers = pass.tracers;
  tracers.emplace_back();
  const double oracle_s = OracleProbes(engine, spec, lineup, args.seed,
                                       &tracers.back(), report);
  double events = 0, sent = 0, delivered = 0, run_s = 0, reset_s = 0,
         state_bytes = 0, max_processed = 0, table_bytes = 0;
  double kind_s[3] = {0, 0, 0};
  double kind_n[3] = {0, 0, 0};
  for (const ReplayRun& run : pass.runs) {
    events += static_cast<double>(run.events);
    sent += static_cast<double>(run.sent);
    delivered += static_cast<double>(run.delivered);
    run_s += run.run_s;
    reset_s += run.reset_s;
    state_bytes += static_cast<double>(run.result.resident_state_bytes);
    max_processed += static_cast<double>(run.result.cost.max_processed);
    table_bytes = std::max(table_bytes, static_cast<double>(run.table_bytes));
    kind_s[KindIndex(run.kind)] += run.run_s;
    kind_n[KindIndex(run.kind)] += 1;
  }
  const double n = static_cast<double>(queries);
  double busy_max = 0.0, busy_sum = 0.0;
  for (double b : pass.busy_s) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  report->Set("sim.session.build_ms", 1e3 * Median(pass.build_s));
  report->Set("sim.session.reset_us", 1e6 * reset_s / n);
  report->Set("sim.events_per_query", events / n);
  report->Set("sim.ns_per_event", 1e9 * run_s / events);
  report->Set("sim.deliveries_per_send", delivered / sent);
  report->Set("sim.undelivered_fraction", 1.0 - delivered / sent);
  report->Set("sim.resident_table_mb", table_bytes / (1 << 20));
  report->Set("protocols.run_ms.wildfire", 1e3 * kind_s[0] / kind_n[0]);
  report->Set("protocols.run_ms.spanning_tree", 1e3 * kind_s[1] / kind_n[1]);
  report->Set("protocols.run_ms.dag", 1e3 * kind_s[2] / kind_n[2]);
  report->Set("protocols.oracle_ms", 1e3 * oracle_s);
  report->Set("protocols.resident_state_mb", state_bytes / n / (1 << 20));
  report->Set("protocols.max_processed", max_processed / n);
  report->Set("sketch.combine_ns",
              CombineNsProbe(validity::sketch::FmParams{spec.fm_vectors},
                             args.seed));
  report->Set("core.engine.run_ms.count", 1e3 * run_s / n);
  report->Absent("core.engine.run_ms.min", "every sweep query is COUNT");
  // Utilisation of the figure path itself; imbalance from the replay.
  report->Set("core.sweep.cpu_util",
              sweep_cpu_s / (sweep_s * static_cast<double>(workers)));
  report->Set("core.sweep.imbalance",
              busy_max / (busy_sum / static_cast<double>(workers)));
  for (const char* name :
       {"core.service.submit_us", "core.service.in_flight_mean",
        "core.service.admission_wait_p99", "core.service.replay_ms",
        "core.service.hold_ticks.wildfire",
        "core.service.hold_ticks.spanning_tree",
        "core.service.hold_ticks.dag", "core.service.hold_ticks.gossip"}) {
    report->Absent(name, "no QueryService on this workload");
  }
  report->Set("trace_overhead_ms",
              1e3 * (pass.wall_s - 0.5 * (untraced.wall_s + after.wall_s)));
  if (!args.trace_out.empty() && !WriteSpans(args.trace_out, tracers)) {
    report->Fail("cannot write spans to " + args.trace_out);
  }
  return 0;
}

}  // namespace perfbench
