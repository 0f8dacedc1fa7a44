#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "cluster/observer.hpp"
#include "cluster/scheduler.hpp"
#include "dlsim/dl_cluster.hpp"
#include "dlsim/dl_policies.hpp"
#include "knots/experiment.hpp"
#include "knots/kube_knots.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/serving.hpp"
#include "verify/invariant_checker.hpp"
#include "verify/run_digest.hpp"
#include "workload/app_mix.hpp"

namespace perfbench {

using namespace knots;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Sizes are chosen so one draw takes at most a few host
// seconds on a 4-core x86 box and run.py can pool many draws in one run;
// pod-1k is the exception: one draw of a 20 s arrival window (~13 s host)
// keeps the 1000-node cluster loaded rather than draining.

constexpr SimTime kPod1kWindow = 20 * kSec;
constexpr SimTime kTestbedWindow = 60 * kSec;
constexpr SimTime kServeWindow = 120 * kSec;
constexpr double kServeQps = 240.0;
// Half the Fig 12 load (520 DLT + 1400 DLI over 12 h): at full load the
// cbp-pp round cost grows with the queue and one draw's host time varies
// twofold from seed to seed.
constexpr int kDlJobs = 260;
constexpr int kDlQueries = 700;
constexpr double kDlAllreduceMb = 256.0;
constexpr double kDlCheckpointMb = 4096.0;

/// bench_scale's scale_config at 1000 nodes: arrival rates ×100 so pods per
/// node stay at the testbed density, telemetry retention 1024.
ExperimentConfig pod_1k_config(std::uint64_t seed) {
  ExperimentConfig cfg = ExperimentConfig::Builder{}
                             .mix(1)
                             .scheduler(sched::SchedulerKind::kPeakPrediction)
                             .nodes(1000)
                             .lanes(1)
                             .duration(kPod1kWindow)
                             .seed(seed)
                             .load_scale(100.0)
                             .build();
  cfg.cluster.telemetry_retention = 1024;
  return cfg;
}

/// The paper's 10-node testbed at default retention (as `knots_ctl run`),
/// CBP at three times the arrival rate, with an auto-derived fabric.
ExperimentConfig testbed_config(std::uint64_t seed) {
  return ExperimentConfig::Builder{}
      .mix(1)
      .scheduler(sched::SchedulerKind::kCbp)
      .lanes(1)
      .duration(kTestbedWindow)
      .seed(seed)
      .load_scale(3.0)
      .auto_fabric()
      .build();
}

serve::ServingConfig serve_config(std::uint64_t seed) {
  serve::ServingConfig cfg =
      serve::default_serving(kServeQps, serve::ArrivalShape::kFlashCrowd);
  cfg.experiment.seed = seed;
  cfg.window = kServeWindow;
  cfg.background_batch = true;
  return cfg;
}

dlsim::DlClusterConfig dl_cluster_config() {
  dlsim::DlClusterConfig cfg;
  cfg.nodes = 32;
  cfg.gpus_per_node = 8;
  net::AutoFabricOptions options;
  options.intra_node_mb_per_s = cfg.gpu.nvlink_mbps;
  cfg.fabric = net::FabricPlan::auto_derive(cfg.nodes, options);
  cfg.allreduce_mb_per_step = kDlAllreduceMb;
  cfg.checkpoint_mb = kDlCheckpointMb;
  return cfg;
}

dlsim::DlWorkloadConfig dl_workload_config() {
  dlsim::DlWorkloadConfig wl;
  wl.dlt_jobs = kDlJobs;
  wl.dli_queries = kDlQueries;
  return wl;
}

// ---------------------------------------------------------------------------
// Forwarding wrappers. Each passes every call on unchanged.

/// Wraps the policy from sched::make_scheduler; times each round and counts
/// the pending queue it was handed.
class TimedScheduler final : public cluster::Scheduler {
 public:
  TimedScheduler(cluster::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), name_(tracer.intern("sched.round")) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_schedule(cluster::SchedulingContext& ctx) override {
    const std::size_t pending = ctx.pending != nullptr ? ctx.pending->size() : 0;
    pending_scanned_ += pending;
    pending_peak_ = std::max(pending_peak_, pending);
    const std::int32_t span = tracer_.open(name_);
    inner_.on_schedule(ctx);
    tracer_.close(span);
    const Span& s = tracer_.spans()[static_cast<std::size_t>(span)];
    round_ns_.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  void on_node_down(cluster::SchedulingContext& ctx, NodeId node) override {
    inner_.on_node_down(ctx, node);
  }
  void on_node_up(cluster::SchedulingContext& ctx, NodeId node) override {
    inner_.on_node_up(ctx, node);
  }
  void on_telemetry_stale(cluster::SchedulingContext& ctx,
                          GpuId gpu) override {
    inner_.on_telemetry_stale(ctx, gpu);
  }
  [[nodiscard]] bool parks_idle_gpus() const override {
    return inner_.parks_idle_gpus();
  }

  [[nodiscard]] std::uint32_t span_name() const { return name_; }
  [[nodiscard]] const std::vector<double>& round_ns() const {
    return round_ns_;
  }
  [[nodiscard]] std::size_t pending_scanned() const {
    return pending_scanned_;
  }
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }

 private:
  cluster::Scheduler& inner_;
  Tracer& tracer_;
  std::uint32_t name_;
  std::vector<double> round_ns_;
  std::size_t pending_scanned_ = 0;
  std::size_t pending_peak_ = 0;
};

/// Wraps one verify observer (InvariantChecker or RunDigest) and times each
/// callback. Completions and crashes outside a scheduling round happen inside
/// the cluster's pod-advance phase; their time is kept apart so the advance
/// phase's self time can be taken without it.
class TimedObserver final : public cluster::ClusterObserver {
 public:
  TimedObserver(cluster::ClusterObserver& inner, Tracer& tracer,
                const std::string& name, std::uint32_t sched_name)
      : inner_(inner),
        tracer_(tracer),
        name_(tracer.intern(name)),
        sched_name_(sched_name) {}

  void on_place(const cluster::Cluster& c, PodId p, GpuId g,
                double mb) override {
    timed([&] { inner_.on_place(c, p, g, mb); });
  }
  void on_resize(const cluster::Cluster& c, PodId p, double mb) override {
    timed([&] { inner_.on_resize(c, p, mb); });
  }
  void on_crash(const cluster::Cluster& c, PodId p) override {
    const bool in_advance = !in_round();
    const double ns = timed([&] { inner_.on_crash(c, p); });
    if (in_advance) in_advance_ns_ += ns;
  }
  void on_requeue(const cluster::Cluster& c, PodId p) override {
    timed([&] { inner_.on_requeue(c, p); });
  }
  void on_evict(const cluster::Cluster& c, PodId p, NodeId n) override {
    timed([&] { inner_.on_evict(c, p, n); });
  }
  void on_node_down(const cluster::Cluster& c, NodeId n) override {
    timed([&] { inner_.on_node_down(c, n); });
  }
  void on_node_up(const cluster::Cluster& c, NodeId n) override {
    timed([&] { inner_.on_node_up(c, n); });
  }
  void on_complete(const cluster::Cluster& c, PodId p) override {
    const bool in_advance = !in_round();
    const double ns = timed([&] { inner_.on_complete(c, p); });
    if (in_advance) in_advance_ns_ += ns;
  }
  void on_park(const cluster::Cluster& c, GpuId g) override {
    timed([&] { inner_.on_park(c, g); });
  }
  void on_flow_start(const cluster::Cluster& c, std::uint64_t flow, int kind,
                     int src, int dst, double mb) override {
    timed([&] { inner_.on_flow_start(c, flow, kind, src, dst, mb); });
  }
  void on_flow_finish(const cluster::Cluster& c, std::uint64_t flow,
                      bool contended) override {
    timed([&] { inner_.on_flow_finish(c, flow, contended); });
  }
  void on_link_down(const cluster::Cluster& c, std::size_t link) override {
    timed([&] { inner_.on_link_down(c, link); });
  }
  void on_link_up(const cluster::Cluster& c, std::size_t link) override {
    timed([&] { inner_.on_link_up(c, link); });
  }
  void on_tick_end(const cluster::Cluster& c) override {
    timed([&] { inner_.on_tick_end(c); });
  }

  [[nodiscard]] std::uint32_t span_name() const { return name_; }
  [[nodiscard]] double in_advance_s() const { return in_advance_ns_ * 1e-9; }

 private:
  [[nodiscard]] bool in_round() const {
    return tracer_.open_name() == static_cast<std::int64_t>(sched_name_);
  }
  /// Runs one forwarded callback inside a span; returns its nanoseconds.
  template <typename Call>
  double timed(Call&& call) {
    const std::int32_t index = tracer_.open(name_);
    call();
    tracer_.close(index);
    const Span& s = tracer_.spans()[static_cast<std::size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns);
  }

  cluster::ClusterObserver& inner_;
  Tracer& tracer_;
  std::uint32_t name_;
  std::uint32_t sched_name_;
  double in_advance_ns_ = 0;
};

/// Stamps every tick end and counts placements (inside rounds and overall).
class TickProbe final : public cluster::ClusterObserver {
 public:
  TickProbe(Tracer& tracer, std::uint32_t sched_name)
      : tracer_(tracer), sched_name_(sched_name) {}

  void on_place(const cluster::Cluster&, PodId, GpuId, double) override {
    ++placed;
    if (tracer_.open_name() == static_cast<std::int64_t>(sched_name_)) {
      ++placed_in_round;
    }
  }
  void on_tick_end(const cluster::Cluster&) override {
    const std::int64_t now = tracer_.now_ns();
    if (last_ns_ >= 0) tick_ns.push_back(static_cast<double>(now - last_ns_));
    last_ns_ = now;
  }

  std::size_t placed = 0;
  std::size_t placed_in_round = 0;
  std::vector<double> tick_ns;

 private:
  Tracer& tracer_;
  std::uint32_t sched_name_;
  std::int64_t last_ns_ = -1;
};

/// Forwards to a DL policy. Always in place on the DL workload: it samples
/// GPU occupancy once per scheduling step (the cluster_util_p50_pct source),
/// and on traced runs it also times the policy calls.
class ForwardingDlPolicy final : public dlsim::DlScheduler {
 public:
  ForwardingDlPolicy(dlsim::DlScheduler& inner, Tracer* tracer)
      : inner_(inner),
        tracer_(tracer),
        name_(tracer != nullptr ? tracer->intern("dlsim.policy") : 0) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void schedule(dlsim::DlSchedView& view) override {
    const std::int32_t span = tracer_ != nullptr ? tracer_->open(name_) : -1;
    inner_.schedule(view);
    if (tracer_ != nullptr) tracer_->close(span);
    ++steps_;
    std::size_t busy = 0;
    for (std::size_t g = 0; g < view.gpu_count(); ++g) {
      busy += view.load(g) > 0 ? 1 : 0;
    }
    busy_pct_.push_back(100.0 * static_cast<double>(busy) /
                        static_cast<double>(view.gpu_count()));
  }
  SimTime serve_query(dlsim::DlSchedView& view,
                      const dlsim::DliQuery& query) override {
    const std::int32_t span = tracer_ != nullptr ? tracer_->open(name_) : -1;
    const SimTime latency = inner_.serve_query(view, query);
    if (tracer_ != nullptr) tracer_->close(span);
    return latency;
  }
  void on_node_down(cluster::SchedulingContext& ctx, NodeId node) override {
    inner_.on_node_down(ctx, node);
  }
  void on_node_up(cluster::SchedulingContext& ctx, NodeId node) override {
    inner_.on_node_up(ctx, node);
  }
  void on_telemetry_stale(cluster::SchedulingContext& ctx,
                          GpuId gpu) override {
    inner_.on_telemetry_stale(ctx, gpu);
  }
  [[nodiscard]] bool parks_idle_gpus() const override {
    return inner_.parks_idle_gpus();
  }

  [[nodiscard]] std::uint32_t span_name() const { return name_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::vector<double>& busy_pct() { return busy_pct_; }

 private:
  dlsim::DlScheduler& inner_;
  Tracer* tracer_;
  std::uint32_t name_;
  std::uint64_t steps_ = 0;
  std::vector<double> busy_pct_;
};

// ---------------------------------------------------------------------------
// Helpers.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact percentile (nearest rank on the sorted samples) — taken over every
/// sample of the run, unlike obs::Histogram's last-1024 window.
double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double histogram_sum_s(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h != nullptr ? h->sum() * 1e-9 : 0.0;
}

double histogram_count(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h != nullptr ? static_cast<double>(h->count()) : 0.0;
}

verify::InvariantOptions invariant_options(sched::SchedulerKind kind) {
  // As KubeKnots and run_serving: only the blind Res-Ag baseline may
  // overcommit declared requests past device capacity.
  verify::InvariantOptions opts;
  opts.provision_ceiling_ratio =
      kind == sched::SchedulerKind::kResourceAgnostic ? 0.0 : 1.0;
  return opts;
}

/// The mix workload exactly as KubeKnots::submit_mix_workload + run() build
/// it for a homogeneous fleet: generated, stably sorted, densely numbered.
std::vector<workload::PodSpec> mix_pods(const ExperimentConfig& cfg) {
  workload::LoadGenConfig wl = cfg.workload;
  wl.device_memory_mb = cfg.cluster.node_spec.gpu.memory_mb;
  auto pods = workload::generate_workload(workload::app_mix(cfg.mix_id), wl,
                                          Rng(cfg.seed));
  std::stable_sort(pods.begin(), pods.end(), [](const auto& a, const auto& b) {
    return a.arrival < b.arrival;
  });
  for (std::size_t i = 0; i < pods.size(); ++i) {
    pods[i].id = PodId{static_cast<std::int32_t>(i)};
  }
  return pods;
}

/// Pod-side counts, simulated outcomes and operation counts shared by the
/// two pod workloads and the serving workload's cluster.
void record_cluster_outcomes(const ExperimentReport& r,
                             const cluster::ClusterConfig& cc, RunRecord& out) {
  out.ops["nodes"] = cc.nodes;
  out.ops["gpus"] = cc.nodes * cc.gpus_per_node;
  out.ops["ticks"] = static_cast<double>(r.ticks);
  out.ops["events"] = static_cast<double>(r.events);
  out.ops["sim_s"] = static_cast<double>(r.ticks) * to_seconds(cc.tick);
  out.ops["pods_total"] = static_cast<double>(r.pods_total);
  out.ops["pods_completed"] = static_cast<double>(r.pods_completed);
  out.ops["queries"] = static_cast<double>(r.queries);
  out.ops["qos_violations"] = static_cast<double>(r.qos_violations);
  out.outcomes["cluster_util_p50_pct"] = {r.cluster_wide.p50, "%"};
  out.outcomes["mean_power_w"] = {r.mean_power_watts, "W"};
  out.outcomes["dl_mean_jct_h"] = {r.mean_jct_s / 3600.0, "h"};
  out.invariant_violations = r.invariant_violations;
}

/// Everything a traced pod or serving run hangs on its cluster: the
/// forwarding policy (pass `scheduler()` to the Cluster), the wrapped verify
/// observers, the tick probe and the metrics registry.
class ClusterInstruments {
 public:
  ClusterInstruments(Tracer& tracer, cluster::Scheduler& policy,
                     verify::InvariantChecker& verifier,
                     verify::RunDigest& digest)
      : tracer_(tracer),
        sched_(policy, tracer),
        audit_(verifier, tracer, "verify.audit", sched_.span_name()),
        digest_(digest, tracer, "verify.digest", sched_.span_name()),
        probe_(tracer, sched_.span_name()) {}
  // The cluster holds the members' addresses.
  ClusterInstruments(const ClusterInstruments&) = delete;
  ClusterInstruments& operator=(const ClusterInstruments&) = delete;

  [[nodiscard]] cluster::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }

  void attach(cluster::Cluster& cl) {
    cl.add_observer(&audit_);
    cl.add_observer(&digest_);
    cl.add_observer(&probe_);
    cl.set_metrics_registry(&registry_);
  }

  /// Cluster-side per-layer figures of the finished run.
  void record(const ExperimentReport& r, double wall, RunRecord& out) const;

 private:
  Tracer& tracer_;
  TimedScheduler sched_;
  TimedObserver audit_;
  TimedObserver digest_;
  TickProbe probe_;
  obs::MetricsRegistry registry_;
};

void ClusterInstruments::record(const ExperimentReport& r, double wall,
                                RunRecord& out) const {
  auto& L = out.layer;
  const double scrape = histogram_sum_s(registry_, "telemetry.scrape_ns");
  const double advance_total = histogram_sum_s(registry_, "cluster.advance_ns");
  const double audit_s = tracer_.total_s(audit_.span_name());
  const double digest_s = tracer_.total_s(digest_.span_name());
  const double round_self =
      tracer_.total_s(sched_.span_name()) - tracer_.child_s(sched_.span_name());
  const double advance_self = std::max(
      0.0, advance_total - audit_.in_advance_s() - digest_.in_advance_s());
  const auto pct = [wall](double s) { return wall > 0 ? 100.0 * s / wall : 0.0; };

  L["telemetry.scrape_s"] = {scrape, "s"};
  L["telemetry.scrape_pct"] = {pct(scrape), "%"};
  L["telemetry.agg_sort_s"] = {histogram_sum_s(registry_, "telemetry.agg_sort_ns"), "s"};
  L["telemetry.agg_sort_calls"] = {histogram_count(registry_, "telemetry.agg_sort_ns"), "count"};

  L["sched.rounds"] = {static_cast<double>(sched_.round_ns().size()), "count"};
  L["sched.round_s"] = {round_self, "s"};
  L["sched.round_pct"] = {pct(round_self), "%"};
  L["sched.round_us_p50"] = {percentile_of(sched_.round_ns(), 50) * 1e-3, "us"};
  L["sched.round_us_p99"] = {percentile_of(sched_.round_ns(), 99) * 1e-3, "us"};
  L["sched.pending_scanned"] = {static_cast<double>(sched_.pending_scanned()), "count"};
  L["sched.placed"] = {static_cast<double>(probe_.placed_in_round), "count"};
  L["sched.place_yield"] = {
      sched_.pending_scanned() > 0
          ? static_cast<double>(probe_.placed_in_round) /
                static_cast<double>(sched_.pending_scanned())
          : 0.0,
      "ratio"};

  L["verify.audit_s"] = {audit_s, "s"};
  L["verify.audit_pct"] = {pct(audit_s), "%"};
  L["verify.digest_s"] = {digest_s, "s"};
  L["verify.digest_pct"] = {pct(digest_s), "%"};
  L["verify.checks"] = {static_cast<double>(r.invariant_checks), "count"};
  L["verify.violations"] = {static_cast<double>(r.invariant_violations), "count"};

  L["cluster.ticks"] = {static_cast<double>(r.ticks), "count"};
  L["cluster.advance_s"] = {advance_self, "s"};
  L["cluster.advance_pct"] = {pct(advance_self), "%"};
  L["cluster.pods_placed"] = {static_cast<double>(probe_.placed), "count"};
  L["cluster.pending_peak"] = {static_cast<double>(sched_.pending_peak()), "count"};
  L["cluster.tick_us_p50"] = {percentile_of(probe_.tick_ns, 50) * 1e-3, "us"};
  L["cluster.tick_us_p99"] = {percentile_of(probe_.tick_ns, 99) * 1e-3, "us"};

  const double dispatch = histogram_sum_s(registry_, "sim.dispatch_ns");
  L["sim.events"] = {static_cast<double>(r.events), "count"};
  L["sim.dispatch_s"] = {dispatch, "s"};
  L["sim.events_per_s"] = {wall > 0 ? static_cast<double>(r.events) / wall : 0.0, "1/s"};

  L["net.flows_started"] = {static_cast<double>(r.flows_started), "count"};
  L["net.flows_finished"] = {static_cast<double>(r.flows_finished), "count"};
  L["net.flows_contended"] = {static_cast<double>(r.flows_contended), "count"};
  L["net.contended_ratio"] = {
      r.flows_finished > 0 ? static_cast<double>(r.flows_contended) /
                                 static_cast<double>(r.flows_finished)
                           : 0.0,
      "ratio"};
  L["net.mb_moved"] = {r.mb_transferred, "MB"};

  const double attributed = scrape + advance_self + round_self + audit_s + digest_s;
  L["unattributed_pct"] = {100.0 - pct(attributed), "%"};
  out.ops["attributed_s"] = attributed;
}

void write_spans(const Tracer& tracer, const std::string& path) {
  if (path.empty()) return;
  if (!tracer.write_csv(path)) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
  }
}

// ---------------------------------------------------------------------------
// Pod workloads.

RunRecord run_pod(const std::string& name, const ExperimentConfig& cfg,
                  Mode mode, const std::string& spans_path) {
  RunRecord out;
  ExperimentReport report;

  if (mode != Mode::kTraced) {
    // The public facade, exactly as run_experiment drives it.
    const auto t0 = Clock::now();
    KubeKnots knots(cfg);
    const auto t1 = Clock::now();
    knots.submit_mix_workload();
    const auto t2 = Clock::now();
    out.setup_s = std::chrono::duration<double>(t2 - t0).count();
    out.ops["cluster_build_s"] = std::chrono::duration<double>(t1 - t0).count();
    out.ops["workload_gen_s"] = std::chrono::duration<double>(t2 - t1).count();
    if (mode == Mode::kSetupOnly) return out;
    report = knots.run();
    out.run_wall_s = seconds_since(t2);
  } else {
    // KubeKnots' wiring, with forwarding wrappers around the policy and the
    // two verify observers, and the metrics registry attached.
    Tracer tracer(name + "-" + std::to_string(cfg.seed));
    const auto setup_span = tracer.open(tracer.intern("setup"));
    const auto t0 = Clock::now();
    const auto build_span = tracer.open(tracer.intern("setup.cluster_build"));
    auto inner = sched::make_scheduler(cfg.scheduler, cfg.sched_params);
    verify::InvariantChecker verifier(invariant_options(cfg.scheduler));
    verify::RunDigest digest;
    ClusterInstruments instruments(tracer, *inner, verifier, digest);
    cluster::ClusterConfig cc = cfg.cluster;
    cc.seed = cfg.seed;
    cluster::Cluster cl(cc, instruments.scheduler());
    cl.set_fault_plan(cfg.faults);
    instruments.attach(cl);
    tracer.close(build_span);
    const auto t1 = Clock::now();
    const auto gen_span = tracer.open(tracer.intern("setup.workload_gen"));
    auto pods = mix_pods(cfg);
    tracer.close(gen_span);
    tracer.close(setup_span);
    const auto t2 = Clock::now();

    const auto run_span = tracer.open(tracer.intern("run"));
    cl.load(std::move(pods));
    cl.run();
    if (!cl.tenant_ledger().empty()) {
      throw std::logic_error("perfbench workloads are single-tenant");
    }
    report = build_report(cl, inner->name(), cfg.mix_id);
    report.run_digest = digest.value();
    report.invariant_checks = verifier.checks_run();
    report.invariant_violations = verifier.violation_count();
    tracer.close(run_span);
    out.run_wall_s = seconds_since(t2);
    out.setup_s = std::chrono::duration<double>(t2 - t0).count();
    out.ops["cluster_build_s"] = std::chrono::duration<double>(t1 - t0).count();
    out.ops["workload_gen_s"] = std::chrono::duration<double>(t2 - t1).count();
    instruments.record(report, out.run_wall_s, out);
    write_spans(tracer, spans_path);
  }

  out.digest = hex(report.run_digest);
  record_cluster_outcomes(report, cfg.cluster, out);
  out.unfinished = report.pods_total - report.pods_completed;
  out.ops["window_s"] = to_seconds(cfg.workload.duration);
  return out;
}

// ---------------------------------------------------------------------------
// Serving workload: run_serving's wiring, so set-up can be timed apart from
// the run (run_serving itself is one call).

RunRecord run_serve(const serve::ServingConfig& config, Mode mode,
                    const std::string& spans_path) {
  RunRecord out;
  const ExperimentConfig& exp = config.experiment;
  const bool traced = mode == Mode::kTraced;
  Tracer tracer("serve-flash-crowd-" + std::to_string(exp.seed));

  const auto setup_span = traced ? tracer.open(tracer.intern("setup")) : -1;
  const auto t0 = Clock::now();
  auto inner = sched::make_scheduler(exp.scheduler, exp.sched_params);
  verify::InvariantChecker verifier(invariant_options(exp.scheduler));
  verify::RunDigest cluster_digest;
  std::optional<ClusterInstruments> instruments;
  if (traced) instruments.emplace(tracer, *inner, verifier, cluster_digest);
  cluster::ClusterConfig cc = exp.cluster;
  cc.seed = exp.seed;
  cluster::Cluster cl(cc, traced ? instruments->scheduler() : *inner);
  cl.set_fault_plan(exp.faults);
  if (traced) {
    instruments->attach(cl);
  } else {
    cl.add_observer(&verifier);
    cl.add_observer(&cluster_digest);
  }
  const auto t1 = Clock::now();

  // Background batch pods; the request stream replaces the mix's queries.
  std::vector<workload::PodSpec> pods;
  if (config.background_batch) {
    workload::LoadGenConfig wl = exp.workload;
    wl.duration = config.window;
    wl.device_memory_mb = exp.cluster.node_spec.gpu.memory_mb;
    auto mixed = workload::generate_workload(workload::app_mix(exp.mix_id), wl,
                                             Rng(exp.seed));
    for (auto& p : mixed) {
      if (p.klass == workload::PodClass::kBatch) pods.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < pods.size(); ++i) {
      pods[i].id = PodId{static_cast<std::int32_t>(i)};
    }
  }
  cl.load(std::move(pods));
  serve::ServingEngine engine(cl, config, Rng(exp.seed).fork(0x53525645));
  if (traced) engine.set_metrics_registry(&instruments->registry());
  engine.prime();
  if (traced) tracer.close(setup_span);
  const auto t2 = Clock::now();
  out.setup_s = std::chrono::duration<double>(t2 - t0).count();
  out.ops["cluster_build_s"] = std::chrono::duration<double>(t1 - t0).count();
  out.ops["workload_gen_s"] = std::chrono::duration<double>(t2 - t1).count();
  if (mode == Mode::kSetupOnly) return out;

  const auto run_span = traced ? tracer.open(tracer.intern("run")) : -1;
  cl.run();
  serve::ServingReport report;
  report.experiment = build_report(cl, inner->name(), exp.mix_id);
  report.experiment.run_digest = cluster_digest.value();
  report.experiment.invariant_checks = verifier.checks_run();
  report.experiment.invariant_violations = verifier.violation_count();
  engine.fill_report(report);
  if (traced) tracer.close(run_span);
  out.run_wall_s = seconds_since(t2);

  const ExperimentReport& r = report.experiment;
  out.digest = hex(r.run_digest) + "/" + hex(report.serve_digest);
  record_cluster_outcomes(r, cc, out);
  const std::size_t served = report.completed + report.degraded;
  const std::size_t resolved = served + report.expired;
  const std::size_t open_requests =
      report.admitted > resolved ? report.admitted - resolved : 0;
  out.unfinished = (r.pods_total - r.pods_completed) + open_requests;
  out.ops["offered"] = static_cast<double>(report.offered);
  out.ops["admitted"] = static_cast<double>(report.admitted);
  out.ops["shed"] = static_cast<double>(report.shed);
  out.ops["expired"] = static_cast<double>(report.expired);
  out.ops["served"] = static_cast<double>(served);
  out.ops["late"] = static_cast<double>(report.slo_violations);
  out.ops["window_s"] = to_seconds(config.window);

  if (traced) {
    instruments->record(r, out.run_wall_s, out);
    auto& L = out.layer;
    L["serve.offered"] = {static_cast<double>(report.offered), "count"};
    L["serve.admitted"] = {static_cast<double>(report.admitted), "count"};
    L["serve.shed"] = {static_cast<double>(report.shed), "count"};
    L["serve.expired"] = {static_cast<double>(report.expired), "count"};
    L["serve.slo_violations"] = {static_cast<double>(report.slo_violations), "count"};
    L["serve.batches"] = {static_cast<double>(report.batches), "count"};
    L["serve.batch_fill"] = {report.mean_batch_fill, "ratio"};
    L["serve.replicas_launched"] = {static_cast<double>(report.replicas_launched), "count"};
    L["serve.scale_ups"] = {static_cast<double>(report.scale_ups), "count"};
    // Engine events that are neither cluster ticks nor pod arrivals.
    const double serve_events = static_cast<double>(r.events) -
                                static_cast<double>(r.ticks) -
                                static_cast<double>(r.pods_total);
    L["serve.events"] = {std::max(0.0, serve_events), "count"};
    // Derived: wall time the attributed cluster phases do not cover. It
    // holds the serving engine's own work plus the cluster's unnamed work.
    L["serve.other_s"] = {out.run_wall_s - out.ops["attributed_s"], "s"};
    write_spans(tracer, spans_path);
  }
  return out;
}

// ---------------------------------------------------------------------------
// DL workload: run_dl_simulation's wiring on dlsim::DlEngine.

RunRecord run_dl(std::uint64_t seed, Mode mode, const std::string& spans_path) {
  RunRecord out;
  const bool traced = mode == Mode::kTraced;
  const dlsim::DlClusterConfig cfg = dl_cluster_config();
  Tracer tracer("dl-fabric-" + std::to_string(seed));
  obs::MetricsRegistry registry;

  const auto setup_span = traced ? tracer.open(tracer.intern("setup")) : -1;
  const auto t0 = Clock::now();
  Rng rng(seed);
  const dlsim::DlWorkload workload =
      dlsim::generate_dl_workload(dl_workload_config(), rng.fork(1));
  const auto t1 = Clock::now();
  dlsim::register_dl_schedulers();
  auto inner = sched::make_scheduler("cbp-pp");
  auto* dl = dynamic_cast<dlsim::DlScheduler*>(inner.get());
  if (dl == nullptr) throw std::logic_error("cbp-pp is not a DL policy");
  ForwardingDlPolicy policy(*dl, traced ? &tracer : nullptr);
  dlsim::DlEngine engine(cfg, policy, seed);
  engine.load(workload);
  engine.set_fault_plan(fault::FaultPlan{});
  if (traced) {
    engine.set_metrics(&registry);
    tracer.close(setup_span);
  }
  const auto t2 = Clock::now();
  out.setup_s = std::chrono::duration<double>(t2 - t0).count();
  out.ops["workload_gen_s"] = std::chrono::duration<double>(t1 - t0).count();
  out.ops["cluster_build_s"] = std::chrono::duration<double>(t2 - t1).count();
  if (mode == Mode::kSetupOnly) return out;

  const auto run_span = traced ? tracer.open(tracer.intern("run")) : -1;
  engine.run();
  dlsim::DlResult result = engine.result();
  // The counters live on the wrapped policy, not on the forwarder.
  result.crash_restarts = dl->crash_restarts();
  result.migrations = dl->migrations();
  result.preemptions = dl->preemptions();
  if (traced) tracer.close(run_span);
  out.run_wall_s = seconds_since(t2);

  const double steps = static_cast<double>(policy.steps());
  const double sim_s = steps * to_seconds(cfg.step);
  const std::size_t dli_total = result.queries.size();
  out.digest = hex(result.run_digest);
  out.invariant_violations = result.invariant_violations;
  out.unfinished = result.dlt_total - result.dlt_completed;
  out.ops["nodes"] = cfg.nodes;
  out.ops["gpus"] = static_cast<double>(engine.gpu_count());
  out.ops["ticks"] = steps;
  out.ops["sim_s"] = sim_s;
  out.ops["dlt_total"] = static_cast<double>(result.dlt_total);
  out.ops["dlt_completed"] = static_cast<double>(result.dlt_completed);
  out.ops["dli_total"] = static_cast<double>(dli_total);
  out.ops["dli_violations"] = static_cast<double>(result.dli_violations);
  out.ops["window_s"] = to_seconds(dl_workload_config().window);
  out.outcomes["cluster_util_p50_pct"] = {percentile_of(policy.busy_pct(), 50), "%"};
  out.outcomes["mean_power_w"] = {result.mean_power_watts, "W"};
  out.outcomes["dl_mean_jct_h"] = {result.avg_jct_h, "h"};

  if (traced) {
    const double policy_s = tracer.total_s(policy.span_name());
    const double wall = out.run_wall_s;
    auto& L = out.layer;
    L["dlsim.steps"] = {steps, "count"};
    L["dlsim.policy_s"] = {policy_s, "s"};
    L["dlsim.policy_pct"] = {wall > 0 ? 100.0 * policy_s / wall : 0.0, "%"};
    L["dlsim.migrations"] = {static_cast<double>(result.migrations), "count"};
    L["dlsim.preemptions"] = {static_cast<double>(result.preemptions), "count"};
    L["dlsim.crash_restarts"] = {static_cast<double>(result.crash_restarts), "count"};
    L["verify.checks"] = {static_cast<double>(result.invariant_checks), "count"};
    L["verify.violations"] = {static_cast<double>(result.invariant_violations), "count"};
    if (const net::Fabric* fabric = engine.fabric()) {
      const auto& ns = fabric->stats();
      L["net.flows_started"] = {static_cast<double>(ns.flows_started), "count"};
      L["net.flows_finished"] = {static_cast<double>(ns.flows_finished), "count"};
      L["net.flows_contended"] = {static_cast<double>(ns.flows_contended), "count"};
      L["net.contended_ratio"] = {
          ns.flows_finished > 0 ? static_cast<double>(ns.flows_contended) /
                                      static_cast<double>(ns.flows_finished)
                                : 0.0,
          "ratio"};
      L["net.mb_moved"] = {ns.mb_transferred, "MB"};
    }
    // Derived: the engine's own work (job advance, fabric all-reduce rates,
    // query service) is everything the policy calls do not cover.
    L["net.engine_s"] = {wall - policy_s, "s"};
    L["unattributed_pct"] = {wall > 0 ? 100.0 * (wall - policy_s) / wall : 0.0, "%"};
    write_spans(tracer, spans_path);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer.

Tracer::Tracer(std::string run_id)
    : run_id_(std::move(run_id)), epoch_(Clock::now()) {}

std::uint32_t Tracer::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t Tracer::open(std::uint32_t name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("perfbench: span closed out of order");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::int64_t Tracer::open_name() const {
  return stack_.empty() ? -1
                        : spans_[static_cast<std::size_t>(stack_.back())].name;
}

double Tracer::total_s(std::uint32_t name) const {
  double ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns * 1e-9;
}

double Tracer::child_s(std::uint32_t name) const {
  double ns = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == name) {
      ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return ns * 1e-9;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "run,id,parent,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << run_id_ << ',' << i << ',' << s.parent << ',' << names_[s.name]
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Entry points.

RunRecord run_workload(const std::string& workload, std::uint64_t seed,
                       Mode mode, const std::string& spans_path) {
  RunRecord out;
  if (workload == "pod-1k") {
    out = run_pod(workload, pod_1k_config(seed), mode, spans_path);
  } else if (workload == "testbed-overcommit") {
    out = run_pod(workload, testbed_config(seed), mode, spans_path);
  } else if (workload == "serve-flash-crowd") {
    out = run_serve(serve_config(seed), mode, spans_path);
  } else if (workload == "dl-fabric") {
    out = run_dl(seed, mode, spans_path);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  out.workload = workload;
  out.seed = seed;
  out.mode = mode;
  if (mode == Mode::kTraced) {
    out.layer["setup.workload_gen_s"] = {out.ops["workload_gen_s"], "s"};
    out.layer["setup.cluster_build_s"] = {out.ops["cluster_build_s"], "s"};
  }
  return out;
}

int run_selftests() {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };

  // Forwarding wrappers are inert: the traced harness reproduces the public
  // entry points' digests bit for bit on small configs.
  {
    const ExperimentConfig cfg = ExperimentConfig::Builder{}
              .scheduler(sched::SchedulerKind::kCbp)
              .nodes(4)
              .duration(20 * kSec)
              .seed(7)
              .load_scale(3.0)
              .auto_fabric()
              .build();
    const ExperimentReport ref = run_experiment(cfg);
    const RunRecord plain = run_pod("selftest", cfg, Mode::kUntraced, "");
    const RunRecord traced = run_pod("selftest", cfg, Mode::kTraced, "");
    check(plain.digest == hex(ref.run_digest),
          "pod: untraced digest equals run_experiment");
    check(traced.digest == hex(ref.run_digest),
          "pod: traced (wrapped) digest equals run_experiment");
  }
  {
    serve::ServingConfig cfg = serve_config(7);
    cfg.window = 5 * kSec;
    const serve::ServingReport ref = serve::run_serving(cfg);
    const std::string want =
        hex(ref.experiment.run_digest) + "/" + hex(ref.serve_digest);
    check(run_serve(cfg, Mode::kUntraced, "").digest == want,
          "serve: untraced harness digest equals run_serving");
    check(run_serve(cfg, Mode::kTraced, "").digest == want,
          "serve: traced (wrapped) digest equals run_serving");
  }
  {
    const dlsim::DlResult ref = dlsim::run_dl_simulation(
        "cbp-pp", dl_cluster_config(), dl_workload_config(), 7);
    check(run_dl(7, Mode::kUntraced, "").digest == hex(ref.run_digest),
          "dl: forwarding-policy digest equals run_dl_simulation");
    check(run_dl(7, Mode::kTraced, "").digest == hex(ref.run_digest),
          "dl: traced (wrapped) digest equals run_dl_simulation");
  }

  // Exact percentiles over every sample, not a recent window.
  {
    std::vector<double> v;
    for (int i = 1; i <= 5000; ++i) v.push_back(i);
    check(percentile_of(v, 50) == 2500.5 && percentile_of(v, 0) == 1.0,
          "percentile_of covers every sample");
  }

  // Span self time: a parent's children are subtracted once.
  {
    Tracer t("selftest");
    const auto a = t.intern("a");
    const auto b = t.intern("b");
    const auto pa = t.open(a);
    const auto pb = t.open(b);
    t.close(pb);
    t.close(pa);
    check(t.spans()[1].parent == 0 && t.child_s(a) == t.total_s(b),
          "tracer records parents and child time");
  }
  return failures;
}

}  // namespace perfbench
