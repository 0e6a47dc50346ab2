// service_trace: one QueryService timeline driven by seeded open arrivals.
//
// G(n, p) graph with average degree 5, point-to-point, link faults (drop 2%,
// duplicate 1%, delay 2%), no churn, at most 8 lanes in flight. Arrivals
// come at exponential gaps (mean 5.5 ticks) in *simulated* time, so the loop
// is open: the arrival schedule does not wait for completions. The mix is
// 1/2 WILDFIRE, 3/8 tree/DAG, 1/8 gossip, all COUNT at one querying host.
// A repetition resets the service, submits every arrival, runs the timeline
// in RunUntil slices, drains, and polls; every repetition must reproduce the
// first, and a prefix of the recorded trace must replay bit-identically
// through QueryService::Replay, which runs it unsliced. With --trace 1 one
// more repetition adds spans around Reset and each Submit and samples
// in_flight() between slices.
//
// Churn is deliberately absent: under churn the quiescence bound holds every
// tree/DAG lane until the churn window ends plus the heartbeat cascade, so
// lanes stay busy for hundreds of ticks and the backlog grows without bound
// (see perfbench/README.md).

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "core/query_service.h"
#include "protocols/oracle.h"
#include "topology/generators.h"
#include "workloads/common.h"

namespace perfbench {
namespace {

namespace core = validity::core;
namespace sim = validity::sim;
using validity::Mix64;
using validity::protocols::ProtocolKind;
using Completion = core::QueryService::Completion;

constexpr uint32_t kHosts = 500;
constexpr size_t kArrivals = 1000;
constexpr double kMeanGap = 5.5;
/// Arrivals replayed through QueryService::Replay as the replay check. A
/// query's lane depends only on earlier arrivals (FIFO admission, solo-
/// identical lanes), so a prefix of the trace reproduces its completions.
constexpr size_t kReplayPrefix = 200;
constexpr size_t kOracleProbes = 64;
/// RunUntil slice of every repetition (an in_flight() sample in the traced
/// one), in ticks.
constexpr double kSlice = 10.0;

struct Setup {
  std::unique_ptr<validity::topology::Graph> graph;
  std::unique_ptr<core::QueryEngine> engine;
  std::unique_ptr<core::QueryService> service;
};

core::ServiceOptions Options(uint64_t seed) {
  core::ServiceOptions options;
  options.max_in_flight = 8;
  options.fault.seed = Mix64(seed ^ 0xfa017ULL);
  options.fault.drop_rate = 0.02;
  options.fault.duplicate_rate = 0.01;
  options.fault.delay_rate = 0.02;
  return options;
}

Setup BuildSetup(uint64_t seed, const core::ServiceOptions& options,
                 Report* report) {
  Setup setup;
  const int64_t start = NowNs();
  auto graph = validity::topology::MakeRandom(kHosts, 5.0, seed);
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
  const int64_t measured = NowNs();
  setup.service =
      std::make_unique<core::QueryService>(setup.engine.get(), options);
  const int64_t end = NowNs();
  report->Sample("setup_s", static_cast<double>(end - start) * 1e-9);
  report->Sample("topology.generate_ms",
                 static_cast<double>(generated - start) * 1e-6);
  report->Sample("common.zipf_values_ms",
                 static_cast<double>(valued - generated) * 1e-6);
  report->Sample("topology.diameter_ms",
                 static_cast<double>(measured - built) * 1e-6);
  return setup;
}

std::vector<core::Arrival> MakeArrivals(uint64_t seed,
                                        const core::ServiceOptions& options) {
  validity::Rng rng(Mix64(seed ^ 0xa4412a1ULL));
  const validity::HostId hq =
      static_cast<validity::HostId>(rng.NextBelow(kHosts));
  // Exact shares, in seeded order: of every 8 arrivals 4 are WILDFIRE, 1
  // spanning tree, 2 DAG (k = 2, 3) and 1 gossip.
  std::vector<uint64_t> picks(kArrivals);
  for (size_t i = 0; i < kArrivals; ++i) picks[i] = i % 8;
  rng.Shuffle(&picks);
  std::vector<core::Arrival> arrivals(kArrivals);
  double t = 0.0;
  for (size_t i = 0; i < kArrivals; ++i) {
    core::Arrival& a = arrivals[i];
    t += -kMeanGap * std::log(1.0 - rng.NextDouble());
    a.submit_time = t;
    a.hq = hq;
    a.spec.aggregate = validity::AggregateKind::kCount;
    a.spec.fm_vectors = 16;
    a.config.fault = options.fault;
    a.config.sketch_seed = Mix64(seed + i + 1);
    const uint64_t pick = picks[i];
    if (pick < 4) {
      a.config.protocol = ProtocolKind::kWildfire;
    } else if (pick == 4) {
      a.config.protocol = ProtocolKind::kSpanningTree;
    } else if (pick < 7) {
      a.config.protocol = ProtocolKind::kDag;
      a.config.protocol_options.dag.max_parents = pick == 5 ? 2 : 3;
    } else {
      a.config.protocol = ProtocolKind::kGossip;
    }
  }
  return arrivals;
}

bool SameCompletion(const Completion& a, const Completion& b) {
  return a.submitted_at == b.submitted_at && a.started_at == b.started_at &&
         a.retired_at == b.retired_at && SameResult(a.result, b.result);
}

/// Submits every arrival; returns false (and reports) if one is refused.
/// With a tracer, each Submit gets a span.
bool SubmitAll(core::QueryService* service,
               const std::vector<core::Arrival>& arrivals,
               std::vector<uint64_t>* ids, Tracer* tracer, Report* report) {
  ids->clear();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const core::Arrival& a = arrivals[i];
    const int32_t span = BeginIf(tracer, "core.service.submit", i);
    validity::StatusOr<uint64_t> id =
        service->Submit(a.submit_time, a.spec, a.config, a.hq);
    EndIf(tracer, span);
    if (!id.ok()) {
      report->Fail("Submit refused arrival " + std::to_string(i) + ": " +
                   id.status().ToString());
      return false;
    }
    ids->push_back(*id);
  }
  return true;
}

/// Polls every completion into arrival order. Missing ones stay id 0.
std::vector<Completion> PollAll(core::QueryService* service,
                                const std::vector<uint64_t>& ids) {
  std::vector<Completion> out(ids.size());
  Completion done;
  while (service->Poll(&done)) {
    auto it = std::lower_bound(ids.begin(), ids.end(), done.id);
    if (it != ids.end() && *it == done.id) {
      out[static_cast<size_t>(it - ids.begin())] = std::move(done);
    }
  }
  return out;
}

/// One repetition of the timeline; what it measured.
struct Timeline {
  bool submitted = false;
  std::vector<Completion> done;  // arrival order
  double wall_s = 0.0;
  double reset_s = 0.0;          // traced only
  double run_s = 0.0;            // traced only: RunUntil slices and Drain
  double in_flight_sum = 0.0;    // traced only
  double slices = 0.0;
};

/// Resets the service and runs every arrival through it. With a tracer,
/// Reset, each Submit and the run get spans and in_flight() is sampled
/// after each slice; the library calls are the same either way.
Timeline RunTimeline(core::QueryService* service,
                     const std::vector<core::Arrival>& arrivals,
                     Tracer* tracer, Report* report) {
  Timeline timeline;
  std::vector<uint64_t> ids;
  const int64_t start = NowNs();
  const int32_t reset_span = BeginIf(tracer, "sim.session.reset", 0);
  service->Reset();
  timeline.reset_s = EndIf(tracer, reset_span);
  timeline.submitted = SubmitAll(service, arrivals, &ids, tracer, report);
  if (!timeline.submitted) return timeline;
  const int32_t run_span = BeginIf(tracer, "core.service.run", 0);
  for (double t = kSlice; t <= arrivals.back().submit_time; t += kSlice) {
    service->RunUntil(t);
    if (tracer != nullptr) {
      timeline.in_flight_sum += service->in_flight();
      timeline.slices += 1.0;
    }
  }
  service->Drain();
  timeline.run_s = EndIf(tracer, run_span);
  timeline.done = PollAll(service, ids);
  timeline.wall_s = SecondsSince(start);
  return timeline;
}

/// Counts every arrival of a repetition as attempted; one fails if it never
/// completed or was not declared, or if it differs from `first` (when given).
void CheckTimeline(const Timeline& timeline,
                   const std::vector<Completion>* first,
                   const std::string& what, Report* report) {
  for (size_t i = 0; i < timeline.done.size(); ++i) {
    const Completion& c = timeline.done[i];
    const bool ok = c.id != 0 && c.result.declared &&
                    (first == nullptr || SameCompletion(c, (*first)[i]));
    report->Attempt(ok);
    if (!ok) {
      report->Fail(what + " arrival " + std::to_string(i) +
                   " never completed, was not declared, or differs from the "
                   "first repetition");
    }
  }
}

/// The mix's protocols by index: WILDFIRE, spanning tree, DAG, gossip.
int KindIndex(ProtocolKind kind) {
  return kind == ProtocolKind::kWildfire       ? 0
         : kind == ProtocolKind::kSpanningTree ? 1
         : kind == ProtocolKind::kDag          ? 2
                                               : 3;
}
constexpr const char* kHoldNames[4] = {
    "core.service.hold_ticks.wildfire", "core.service.hold_ticks.spanning_tree",
    "core.service.hold_ticks.dag", "core.service.hold_ticks.gossip"};

}  // namespace

int RunServiceTrace(const Args& args, Report* report) {
  const core::ServiceOptions options = Options(args.seed);
  std::optional<Setup> setup;
  TimeSetups(kFirstSetups, kFirstSetupBudgetS, [&] {
    setup.reset();  // free the previous copy before building the next
    setup.emplace(BuildSetup(args.seed, options, report));
  });
  const core::QueryEngine& engine = *setup->engine;
  core::QueryService& service = *setup->service;
  const std::vector<core::Arrival> arrivals = MakeArrivals(args.seed, options);
  report->Set("queries_per_rep", static_cast<double>(kArrivals));
  std::fprintf(stderr, "service_trace: %u hosts, %zu arrivals over %.0f ticks\n",
               kHosts, kArrivals, arrivals.back().submit_time);

  // --- timed loop ---------------------------------------------------------
  std::vector<Completion> first;
  std::vector<double> rep_s;
  const int64_t loop_start = NowNs();
  for (int rep = 0;; ++rep) {
    Timeline timeline = RunTimeline(&service, arrivals, nullptr, report);
    if (!timeline.submitted) return 0;
    report->Sample("rep_s", timeline.wall_s);
    rep_s.push_back(timeline.wall_s);
    if (rep == 0) {
      // Set-up plus one timeline. A Reset service keeps its first
      // timeline's warm state and grows by about a third on the second.
      report->Set("peak_rss_mb", PeakRssMb());
      CheckTimeline(timeline, nullptr, "repetition 0", report);
      first = std::move(timeline.done);
    } else {
      CheckTimeline(timeline, &first, "repetition " + std::to_string(rep),
                    report);
    }
    TimeSetups(1, kLoopSetupBudgetS,
               [&] { BuildSetup(args.seed, options, report); });
    // Whole repetitions only: stop when the next one would overrun.
    if (SecondsSince(loop_start) + timeline.wall_s > args.seconds) break;
  }

  // End-to-end sim metrics.
  double messages = 0.0;
  double within = 0.0;
  for (const Completion& c : first) {
    messages += static_cast<double>(c.result.cost.messages);
    within += c.result.validity.within_slack ? 1.0 : 0.0;
    report->Sample("sim_latency", c.retired_at - c.submitted_at);
  }
  report->Set("messages_per_query", messages / kArrivals);
  report->Set("valid_fraction", within / kArrivals);

  // --- replay check: a prefix of the recorded trace ------------------------
  core::ArrivalTrace prefix;
  prefix.arrivals.assign(service.trace().arrivals.begin(),
                         service.trace().arrivals.begin() +
                             static_cast<ptrdiff_t>(kReplayPrefix));
  const int64_t replay_start = NowNs();
  validity::StatusOr<std::vector<Completion>> replayed =
      core::QueryService::Replay(engine, options, prefix);
  const double replay_s = SecondsSince(replay_start);
  for (size_t i = 0; i < kReplayPrefix; ++i) {
    const bool same = replayed.ok() && SameCompletion((*replayed)[i], first[i]);
    report->Attempt(same);
    if (!same) {
      report->Fail("QueryService::Replay differs at arrival " +
                   std::to_string(i));
    }
  }

  if (!args.trace) return 0;

  // --- traced pass: one more repetition with spans ------------------------
  std::vector<Tracer> tracers(1);
  Tracer& tracer = tracers[0];
  const Timeline traced_timeline =
      RunTimeline(&service, arrivals, &tracer, report);
  if (!traced_timeline.submitted) return 0;
  CheckTimeline(traced_timeline, &first, "traced repetition", report);
  const std::vector<Completion>& traced = traced_timeline.done;

  const sim::Simulator& simulator = service.session().simulator();
  const double events = static_cast<double>(simulator.events_executed());
  double sent = 0, delivered = 0, state_bytes = 0, max_processed = 0;
  double hold[4] = {0, 0, 0, 0};
  double hold_n[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < kArrivals; ++i) {
    const Completion& c = traced[i];
    sent += static_cast<double>(c.result.cost.messages);
    delivered += static_cast<double>(DeliveredMessages(c.result));
    state_bytes += static_cast<double>(c.result.resident_state_bytes);
    max_processed += static_cast<double>(c.result.cost.max_processed);
    report->Sample("core.service.admission_wait", c.started_at - c.submitted_at);
    const int k = KindIndex(arrivals[i].config.protocol);
    hold[k] += c.retired_at - c.started_at;
    hold_n[k] += 1.0;
  }
  // ORACLE probes on the drained timeline (no churn: liveness is final).
  double oracle_s = 0.0;
  for (size_t i = 0; i < kOracleProbes; ++i) {
    const Completion& c = traced[i];
    const double horizon = 2.0 * c.result.d_hat_used * simulator.options().delta;
    const int32_t span = tracer.Begin("protocols.oracle", i);
    validity::protocols::OracleReport oracle =
        validity::protocols::ComputeOracle(simulator, arrivals[i].hq,
                                           c.started_at, c.started_at + horizon,
                                           arrivals[i].spec.aggregate,
                                           engine.values());
    oracle_s += tracer.End(span);
    if (oracle.q_low != c.result.validity.q_low ||
        oracle.q_high != c.result.validity.q_high) {
      report->Fail("ORACLE probe differs at arrival " + std::to_string(i));
    }
  }
  const int32_t build_span = tracer.Begin("sim.session.build", 0);
  { sim::SimulatorSession probe(engine.topology(), options.sim_options); }
  const double build_s = tracer.End(build_span);

  report->Set("sim.session.build_ms", 1e3 * build_s);
  report->Set("sim.session.reset_us", 1e6 * traced_timeline.reset_s);
  report->Set("sim.events_per_query", events / kArrivals);
  report->Set("sim.ns_per_event", 1e9 * traced_timeline.run_s / events);
  report->Set("sim.deliveries_per_send", delivered / sent);
  report->Set("sim.undelivered_fraction", 1.0 - delivered / sent);
  report->Set("sim.resident_table_mb",
              static_cast<double>(simulator.ResidentTableBytes()) / (1 << 20));
  for (const char* name : {"protocols.run_ms.wildfire",
                           "protocols.run_ms.spanning_tree",
                           "protocols.run_ms.dag", "core.engine.run_ms.count",
                           "core.engine.run_ms.min"}) {
    report->Absent(name, "lanes share one timeline; no per-query Run call");
  }
  report->Set("protocols.oracle_ms", 1e3 * oracle_s / kOracleProbes);
  report->Set("protocols.resident_state_mb",
              state_bytes / kArrivals / (1 << 20));
  report->Set("protocols.max_processed", max_processed / kArrivals);
  report->Set("sketch.combine_ns",
              CombineNsProbe(validity::sketch::FmParams{16}, args.seed));
  report->Absent("core.sweep.cpu_util", "no sweep on this workload");
  report->Absent("core.sweep.imbalance", "no sweep on this workload");
  double submit_s = 0.0;
  for (const Span& span : tracer.spans()) {
    if (std::string(span.name) == "core.service.submit") {
      submit_s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  report->Set("core.service.submit_us", 1e6 * submit_s / kArrivals);
  report->Set("core.service.in_flight_mean",
              traced_timeline.in_flight_sum / traced_timeline.slices);
  report->Set("core.service.replay_ms", 1e3 * replay_s);
  for (int k = 0; k < 4; ++k) report->Set(kHoldNames[k], hold[k] / hold_n[k]);
  report->Set("trace_overhead_ms",
              1e3 * (traced_timeline.wall_s - Median(rep_s)));
  if (!args.trace_out.empty() && !WriteSpans(args.trace_out, tracers)) {
    report->Fail("cannot write spans to " + args.trace_out);
  }
  return 0;
}

}  // namespace perfbench
