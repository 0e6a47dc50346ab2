// cold_grid: one fresh QueryEngine::Run per query on the implicit
// 1000 x 1000 wireless grid (10^6 hosts), D-hat = 10, validity off.
//
// Closed loop, one caller. Each query starts at a seeded interior host far
// enough from the border that its whole 2 * D-hat disc lies inside the
// grid. Three of every four queries are COUNT (FM sketch merges), the
// fourth is MIN (a scalar carried inline), so the broadcast and paging
// layers are exercised both with and without the sketch. A repetition runs
// the whole query list; every repetition must reproduce the first. With
// --trace 1 one more pass does the same with a span around each Run.

#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.h"
#include "sim/session.h"
#include "topology/topology.h"
#include "workloads/common.h"

namespace perfbench {
namespace {

namespace core = validity::core;
namespace sim = validity::sim;
using validity::Mix64;

constexpr uint32_t kSide = 1000;
constexpr double kDhat = 10.0;
constexpr size_t kQueries = 300;
/// Every kSessionStride-th query is re-run on a SimulatorSession as the
/// fresh == session check (the traced run re-runs all of them).
constexpr size_t kSessionStride = 10;

struct Query {
  core::QuerySpec spec;
  core::RunConfig config;
  validity::HostId hq = 0;
  bool is_min = false;
};

std::unique_ptr<core::QueryEngine> BuildSetup(uint64_t seed, Report* report) {
  const int64_t start = NowNs();
  validity::StatusOr<validity::topology::Topology> grid =
      validity::topology::Topology::Grid(kSide);
  VALIDITY_CHECK(grid.ok(), "%s", grid.status().ToString().c_str());
  const int64_t generated = NowNs();
  std::vector<double> values =
      core::MakeZipfValues(kSide * kSide, Mix64(seed ^ 0x5eed5eedULL));
  const int64_t valued = NowNs();
  auto engine = std::make_unique<core::QueryEngine>(*grid, std::move(values));
  const int64_t built = NowNs();
  engine->EstimatedDiameter();
  const int64_t end = NowNs();
  report->Sample("setup_s", static_cast<double>(end - start) * 1e-9);
  report->Sample("topology.generate_ms",
                 static_cast<double>(generated - start) * 1e-6);
  report->Sample("common.zipf_values_ms",
                 static_cast<double>(valued - generated) * 1e-6);
  report->Sample("topology.diameter_ms",
                 static_cast<double>(end - built) * 1e-6);
  return engine;
}

std::vector<Query> MakeQueries(uint64_t seed) {
  validity::Rng rng(Mix64(seed ^ 0xc01d6e1dULL));
  const uint32_t margin = static_cast<uint32_t>(2.0 * kDhat) + 1;
  std::vector<Query> queries(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    Query& q = queries[i];
    const uint64_t x = margin + rng.NextBelow(kSide - 2 * margin);
    const uint64_t y = margin + rng.NextBelow(kSide - 2 * margin);
    q.hq = static_cast<validity::HostId>(y * kSide + x);
    q.is_min = i % 4 == 3;
    q.spec.aggregate = q.is_min ? validity::AggregateKind::kMin
                                : validity::AggregateKind::kCount;
    q.spec.fm_vectors = 16;
    q.spec.d_hat = kDhat;
    q.config.protocol = validity::protocols::ProtocolKind::kWildfire;
    q.config.sim_options.medium = sim::MediumKind::kWireless;
    q.config.compute_validity = false;
    q.config.sketch_seed = Mix64(seed + i + 1);
  }
  return queries;
}

/// One pass over the query list: a fresh engine.Run each, timed one by one
/// (and, with a tracer, inside a span named after its aggregate).
struct Pass {
  std::vector<validity::StatusOr<core::QueryResult>> results;
  std::vector<double> query_s;
  double wall_s = 0.0;
};

Pass RunPass(const core::QueryEngine& engine,
             const std::vector<Query>& queries, Tracer* tracer) {
  Pass pass;
  pass.results.reserve(queries.size());
  pass.query_s.reserve(queries.size());
  const int64_t pass_start = NowNs();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const int32_t span = BeginIf(
        tracer, q.is_min ? "core.engine.run.min" : "core.engine.run.count", i);
    const int64_t start = NowNs();
    pass.results.push_back(engine.Run(q.spec, q.config, q.hq));
    pass.query_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    EndIf(tracer, span);
  }
  pass.wall_s = SecondsSince(pass_start);
  return pass;
}

/// Counts every query of a pass as attempted; one fails if its Run failed,
/// it was not declared, or it differs from `first` (when given).
void CheckPass(const Pass& pass, const std::vector<core::QueryResult>* first,
               const std::string& what, Report* report) {
  for (size_t i = 0; i < pass.results.size(); ++i) {
    const validity::StatusOr<core::QueryResult>& result = pass.results[i];
    const bool ok = result.ok() && result->declared &&
                    (first == nullptr || SameResult(*result, (*first)[i]));
    report->Attempt(ok);
    if (!ok) {
      report->Fail("query " + std::to_string(i) + " of " + what +
                   " failed, was not declared, or differs from the first");
    }
  }
}

}  // namespace

int RunColdGrid(const Args& args, Report* report) {
  std::unique_ptr<core::QueryEngine> engine;
  TimeSetups(kFirstSetups, kFirstSetupBudgetS, [&] {
    engine.reset();  // free the previous copy before building the next
    engine = BuildSetup(args.seed, report);
  });
  const std::vector<Query> queries = MakeQueries(args.seed);
  report->Set("queries_per_rep", static_cast<double>(kQueries));

  // --- timed loop ---------------------------------------------------------
  std::vector<core::QueryResult> first;
  std::vector<double> rep_s;
  const int64_t loop_start = NowNs();
  for (int rep = 0;; ++rep) {
    const Pass pass = RunPass(*engine, queries, nullptr);
    report->Sample("rep_s", pass.wall_s);
    rep_s.push_back(pass.wall_s);
    for (double s : pass.query_s) report->Sample("query_ms", s * 1e3);
    if (rep == 0) {
      // Set-up plus one pass over the queries; the session checks below
      // keep warm pages of their own.
      report->Set("peak_rss_mb", PeakRssMb());
      CheckPass(pass, nullptr, "repetition 0", report);
      for (const auto& result : pass.results) {
        first.push_back(result.ok() ? *result : core::QueryResult{});
      }
    } else {
      CheckPass(pass, &first, "repetition " + std::to_string(rep), report);
    }
    TimeSetups(1, kLoopSetupBudgetS, [&] { BuildSetup(args.seed, report); });
    // Whole repetitions only: stop when the next one would overrun.
    if (SecondsSince(loop_start) + pass.wall_s > args.seconds) break;
  }

  double messages = 0.0;
  for (const core::QueryResult& r : first) {
    messages += static_cast<double>(r.cost.messages);
  }
  report->Set("messages_per_query", messages / kQueries);

  // --- traced pass: the same queries, a span around each Run ---------------
  std::vector<Tracer> tracers(1);
  Tracer& tracer = tracers[0];
  double fresh_s[2] = {0.0, 0.0};
  double fresh_n[2] = {0.0, 0.0};
  double traced_s = 0.0;
  if (args.trace) {
    const Pass pass = RunPass(*engine, queries, &tracer);
    traced_s = pass.wall_s;
    CheckPass(pass, &first, "the traced pass", report);
    for (size_t i = 0; i < kQueries; ++i) {
      const int k = queries[i].is_min ? 1 : 0;
      fresh_s[k] += pass.query_s[i];
      fresh_n[k] += 1.0;
    }
  }

  // --- fresh == session check; the traced run's counting pass -------------
  const int32_t build_span = tracer.Begin("sim.session.build", 0);
  sim::SimulatorSession session(engine->topology(),
                                queries[0].config.sim_options);
  const double build_s = tracer.End(build_span);
  double events = 0, sent = 0, delivered = 0, reset_s = 0, table_bytes = 0,
         state_bytes = 0, max_processed = 0, checked = 0;
  const size_t stride = args.trace ? 1 : kSessionStride;
  for (size_t i = 0; i < kQueries; i += stride) {
    const Query& q = queries[i];
    const int32_t reset_span = tracer.Begin("sim.session.reset", i);
    session.Reset();
    reset_s += tracer.End(reset_span);
    const int32_t span = tracer.Begin("core.engine.run.session", i);
    validity::StatusOr<core::QueryResult> result =
        engine->Run(&session, q.spec, q.config, q.hq);
    tracer.End(span);
    const bool same = result.ok() && SameResult(*result, first[i]);
    report->Attempt(same);
    if (!same) {
      report->Fail("session run of query " + std::to_string(i) +
                   " differs from the fresh run");
      continue;
    }
    const sim::Simulator& simulator = session.simulator();
    events += static_cast<double>(simulator.events_executed());
    sent += static_cast<double>(simulator.metrics().messages_sent());
    delivered += static_cast<double>(simulator.metrics().messages_delivered());
    table_bytes = std::max(table_bytes,
                           static_cast<double>(simulator.ResidentTableBytes()));
    state_bytes += static_cast<double>(result->resident_state_bytes);
    max_processed += static_cast<double>(result->cost.max_processed);
    checked += 1.0;
  }

  if (!args.trace) return 0;

  const double run_s = fresh_s[0] + fresh_s[1];
  report->Set("sim.session.build_ms", 1e3 * build_s);
  report->Set("sim.session.reset_us", 1e6 * reset_s / checked);
  report->Set("sim.events_per_query", events / checked);
  report->Set("sim.ns_per_event", 1e9 * run_s / events);
  report->Set("sim.deliveries_per_send", delivered / sent);
  report->Absent("sim.undelivered_fraction",
                 "wireless sends have no per-destination count (and this "
                 "workload has no churn or faults)");
  report->Set("sim.resident_table_mb", table_bytes / (1 << 20));
  report->Set("protocols.run_ms.wildfire", 1e3 * run_s / kQueries);
  report->Absent("protocols.run_ms.spanning_tree", "WILDFIRE only");
  report->Absent("protocols.run_ms.dag", "WILDFIRE only");
  report->Absent("protocols.oracle_ms", "compute_validity is off");
  report->Set("protocols.resident_state_mb", state_bytes / checked / (1 << 20));
  report->Set("protocols.max_processed", max_processed / checked);
  report->Set("sketch.combine_ns",
              CombineNsProbe(validity::sketch::FmParams{16}, args.seed));
  report->Set("core.engine.run_ms.count", 1e3 * fresh_s[0] / fresh_n[0]);
  report->Set("core.engine.run_ms.min", 1e3 * fresh_s[1] / fresh_n[1]);
  report->Absent("core.sweep.cpu_util", "no sweep on this workload");
  report->Absent("core.sweep.imbalance", "no sweep on this workload");
  for (const char* name :
       {"core.service.submit_us", "core.service.in_flight_mean",
        "core.service.admission_wait_p99", "core.service.replay_ms",
        "core.service.hold_ticks.wildfire",
        "core.service.hold_ticks.spanning_tree",
        "core.service.hold_ticks.dag", "core.service.hold_ticks.gossip"}) {
    report->Absent(name, "no QueryService on this workload");
  }
  report->Set("trace_overhead_ms", 1e3 * (traced_s - Median(rep_s)));
  if (!args.trace_out.empty() && !WriteSpans(args.trace_out, tracers)) {
    report->Fail("cannot write spans to " + args.trace_out);
  }
  return 0;
}

}  // namespace perfbench
