// knots::serve end-to-end laws: identical (config, seed) serving runs are
// bit-identical at any lane count, a zero-QPS deployment is invisible to
// the cluster underneath, and the crash-storm serving digest is pinned
// golden so the fault path cannot drift silently.
#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "knots/kube_knots.hpp"
#include "serve/serving.hpp"
#include "workload/app_mix.hpp"

namespace knots::serve {
namespace {

ServingConfig small_serving(ArrivalShape shape, int lanes = 1) {
  ServingConfig cfg = default_serving(60.0, shape);
  cfg.experiment = ExperimentConfig::Builder{}
                       .scheduler(sched::SchedulerKind::kPeakPrediction)
                       .nodes(4)
                       .lanes(lanes)
                       .build();
  cfg.window = 10 * kSec;
  return cfg;
}

fault::FaultPlan storm_plan() {
  return fault::FaultPlan{}
      .node_crash(NodeId{1}, 4 * kSec, 3 * kSec)
      .gpu_ecc_degrade(NodeId{0}, 2 * kSec, 1024.0)
      .heartbeat_loss(NodeId{2}, 3 * kSec, 2 * kSec)
      .pcie_stall(NodeId{3}, 5 * kSec, 2 * kSec, 4.0);
}

TEST(Serving, DeterminismLawAcrossLanes) {
  // The serving determinism law: identical config + seed produce a
  // bit-identical request log (digest) — including at lane counts > 1,
  // because every serving event runs in serial event context.
  for (const ArrivalShape shape :
       {ArrivalShape::kPoisson, ArrivalShape::kDiurnal,
        ArrivalShape::kFlashCrowd}) {
    SCOPED_TRACE(to_string(shape));
    const auto lane1a = run_serving(small_serving(shape, 1));
    const auto lane1b = run_serving(small_serving(shape, 1));
    const auto lane4 = run_serving(small_serving(shape, 4));

    EXPECT_EQ(lane1a.serve_digest, lane1b.serve_digest);
    EXPECT_EQ(lane1a.serve_digest, lane4.serve_digest);
    EXPECT_EQ(lane1a.experiment.run_digest, lane4.experiment.run_digest);
    EXPECT_EQ(lane1a.offered, lane4.offered);
    EXPECT_EQ(lane1a.completed, lane4.completed);
    EXPECT_EQ(lane1a.shed, lane4.shed);
    EXPECT_EQ(lane1a.scale_ups, lane4.scale_ups);
    EXPECT_GT(lane1a.offered, 0u);
    EXPECT_GT(lane1a.completed, 0u);
    EXPECT_EQ(lane1a.experiment.invariant_violations, 0u);
  }
}

TEST(Serving, SeedPerturbsTheRequestLog) {
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  const auto a = run_serving(cfg);
  cfg.experiment.seed = 43;
  const auto b = run_serving(cfg);
  EXPECT_NE(a.serve_digest, b.serve_digest);
}

TEST(Serving, ShapesProduceDistinctTraffic) {
  const auto poisson = run_serving(small_serving(ArrivalShape::kPoisson));
  const auto flash = run_serving(small_serving(ArrivalShape::kFlashCrowd));
  EXPECT_NE(poisson.serve_digest, flash.serve_digest);
}

TEST(Serving, ZeroQpsRunIsInert) {
  // A deployment with no traffic and no warm replicas must leave the
  // cluster's decision sequence exactly as KubeKnots would produce it for
  // the same batch-only workload: the serving layer is pay-for-what-you-use.
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  for (auto& svc : cfg.services) {
    svc.qps = 0.0;
    svc.min_replicas = 0;
  }
  const auto report = run_serving(cfg);
  EXPECT_EQ(report.offered, 0u);
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_EQ(report.batches, 0u);
  EXPECT_EQ(report.replicas_launched, 0u);
  EXPECT_EQ(report.scale_ups, 0u);

  // Reference run: the same filtered batch workload through the facade.
  KubeKnots knots(cfg.experiment);
  workload::LoadGenConfig wl = cfg.experiment.workload;
  wl.duration = cfg.window;
  wl.device_memory_mb = cfg.experiment.cluster.node_spec.gpu.memory_mb;
  auto pods = workload::generate_workload(
      workload::app_mix(cfg.experiment.mix_id), wl,
      Rng(cfg.experiment.seed));
  for (auto& p : pods) {
    if (p.klass == workload::PodClass::kBatch) knots.submit(std::move(p));
  }
  const auto reference = knots.run();
  EXPECT_EQ(report.experiment.run_digest, reference.run_digest);
}

TEST(Serving, IdenticalCrashStormReplaysIdentically) {
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  cfg.experiment.faults = storm_plan();
  const auto a = run_serving(cfg);
  const auto b = run_serving(cfg);
  EXPECT_EQ(a.serve_digest, b.serve_digest);
  EXPECT_EQ(a.experiment.run_digest, b.experiment.run_digest);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.expired, b.expired);
}

// Golden serving digest under the crash storm. Pins the entire faulted
// request log — admission decisions, batch formation, replica crash
// re-queues, autoscaler reactions. To regenerate after an intentional
// behaviour change: run this test, copy the "actual" value from the
// failure output, and record the change in EXPERIMENTS.md.
TEST(Serving, GoldenCrashStormDigest) {
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  cfg.experiment.faults = storm_plan();
  const auto report = run_serving(cfg);
  EXPECT_EQ(report.serve_digest, 0x413a9a5d39bfd044ull)
      << "crash-storm serving digest drifted (actual 0x" << std::hex
      << report.serve_digest << ")";
  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.experiment.invariant_violations, 0u);
}

// offered_qps is the sampled arrival count over the window, the same
// denominator achieved_qps uses, so a report never serves more than it was
// offered (the configured rate is only the arrival process's mean).
TEST(Serving, OfferedQpsIsRealizedArrivalRate) {
  for (const auto shape : {ArrivalShape::kPoisson, ArrivalShape::kFlashCrowd}) {
    const ServingConfig cfg = small_serving(shape);
    const auto report = run_serving(cfg);
    const double window_sec = static_cast<double>(cfg.window) / 1e6;
    ASSERT_GT(report.offered, 0u);
    EXPECT_DOUBLE_EQ(report.offered_qps * window_sec,
                     static_cast<double>(report.offered));
    EXPECT_LE(report.achieved_qps, report.offered_qps);
  }
}

TEST(Serving, AdmissionShedKeepsSloMissesLow) {
  // With kShed admission, requests that would blow the deadline are turned
  // away at arrival; the served population's SLO-violation fraction must
  // stay small even under the flash crowd.
  ServingConfig cfg = small_serving(ArrivalShape::kFlashCrowd);
  cfg.admission = AdmissionPolicy::kShed;
  const auto report = run_serving(cfg);
  ASSERT_GT(report.completed + report.degraded, 0u);
  const double miss_rate =
      static_cast<double>(report.slo_violations) /
      static_cast<double>(report.completed + report.degraded);
  EXPECT_LT(miss_rate, 0.15);
}

TEST(Serving, ObservabilityDoesNotPerturbTheRun) {
  const ServingConfig cfg = small_serving(ArrivalShape::kDiurnal);
  const auto bare = run_serving(cfg);

  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  RunObservability o;
  o.trace = &trace;
  o.metrics = &metrics;
  const auto observed = run_serving(cfg, o);

  EXPECT_EQ(bare.serve_digest, observed.serve_digest);
  EXPECT_EQ(bare.experiment.run_digest, observed.experiment.run_digest);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_GT(metrics.counter("serve.requests_offered").value(), 0u);
}

}  // namespace
}  // namespace knots::serve
