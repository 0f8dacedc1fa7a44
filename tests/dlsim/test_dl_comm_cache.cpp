// The all-reduce comm-factor cache of the DL engine.
//
// DlEngine re-solves the joint max-min all-reduce share only when its
// placement epoch (bumped on every attach/detach) or the fabric's link-event
// count moved since the last solve; every other tick reuses the cached
// factors. The deep audit re-solves into scratch and counts any bit
// difference from the cache as an invariant violation. This suite runs the
// five DL policies through every way the inputs can change — placements
// alone, a spine outage, an uplink degrade, a node crash, and Gandiva
// migrations on a live fabric — at lanes 1 and 4, and pins each run's
// digest to the value the per-tick solver produced before the cache. It
// also bounds the solve rate on the benchmark's dl-fabric configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dlsim/dl_cluster.hpp"
#include "dlsim/dl_workload.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace knots::dlsim {
namespace {

constexpr std::uint64_t kSeed = 7;

/// 4 nodes × 4 GPUs under two ToRs, so gangs can share node uplinks, ToR
/// uplinks and the spine; every multi-GPU gang pays 512 MB per step.
DlClusterConfig fabric_cluster(int lanes) {
  net::AutoFabricOptions opts;
  opts.nodes_per_tor = 2;
  DlClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gpus_per_node = 4;
  cfg.lanes = lanes;
  cfg.fabric = net::FabricPlan::auto_derive(cfg.nodes, opts);
  cfg.allreduce_mb_per_step = 512.0;
  return cfg;
}

/// Single-GPU nodes with early de-slicing and charged checkpoints: Gandiva
/// migrates across the fabric while spanning gangs pay their all-reduce.
DlClusterConfig migration_cluster(int lanes) {
  DlClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gpus_per_node = 1;
  cfg.lanes = lanes;
  cfg.fabric = net::FabricPlan::auto_derive(cfg.nodes);
  cfg.allreduce_mb_per_step = 512.0;
  cfg.checkpoint_mb = 4096.0;
  cfg.slice_young_threshold = 10 * kMinute;
  return cfg;
}

DlWorkloadConfig small_workload() {
  DlWorkloadConfig wl;
  wl.dlt_jobs = 30;
  wl.dli_queries = 100;
  wl.window = 1 * kHour;
  return wl;
}

struct Case {
  const char* name;
  bool migrations;  ///< migration_cluster instead of fabric_cluster.
  fault::FaultPlan faults;
};

std::vector<Case> cases() {
  return {
      {"fault-free", false, {}},
      {"spine-down", false,
       fault::FaultPlan{}.link_down("spine", 20 * kMinute, 30 * kMinute)},
      {"uplink-degrade", false,
       fault::FaultPlan{}.link_degrade("n1-up", 15 * kMinute, 40 * kMinute,
                                       4.0)},
      {"node-crash", false,
       fault::FaultPlan{}.node_crash(NodeId{2}, 30 * kMinute, 20 * kMinute)},
      {"migrations", true, {}},
  };
}

struct Golden {
  const char* policy;
  const char* fault_case;
  std::uint64_t digest;
};

// Pinned from the engine that re-solved the all-reduce share every tick
// (seed 7). The cache must reproduce each one bit-for-bit at any lane count.
constexpr Golden kGoldens[] = {
    {"resag", "fault-free", 0x844c5d6490f7cf5dull},
    {"resag", "spine-down", 0x968fd033f29b94c7ull},
    {"resag", "uplink-degrade", 0x27f8b1849d2c664dull},
    {"resag", "node-crash", 0x3fc50c384c0b3e31ull},
    {"resag", "migrations", 0x4828aa242dd2ba4ull},
    {"gandiva", "fault-free", 0x7d6839ca24cf61f1ull},
    {"gandiva", "spine-down", 0xe5a400ac114f516cull},
    {"gandiva", "uplink-degrade", 0x5d9cc40c1fce02ceull},
    {"gandiva", "node-crash", 0x117edcbf8bd5f1a4ull},
    {"gandiva", "migrations", 0xed37c85a8df0d58eull},
    {"tiresias", "fault-free", 0x62e56e801e0517ebull},
    {"tiresias", "spine-down", 0x91783c9e0d4156ull},
    {"tiresias", "uplink-degrade", 0xd095cf55000985ffull},
    {"tiresias", "node-crash", 0x1962b1bb03ab4d7bull},
    {"tiresias", "migrations", 0x68bcdd021c142f0ull},
    {"cbp-pp", "fault-free", 0xb92d40397502fdaull},
    {"cbp-pp", "spine-down", 0x308e7d89ba2ba78ull},
    {"cbp-pp", "uplink-degrade", 0xce95bd24295896b2ull},
    {"cbp-pp", "node-crash", 0x23debc5374674308ull},
    {"cbp-pp", "migrations", 0xa789198b04b7a534ull},
    {"cbp-local", "fault-free", 0xcdd882ba786d44f6ull},
    {"cbp-local", "spine-down", 0x6c11325438b53e58ull},
    {"cbp-local", "uplink-degrade", 0xcf692a28c2a25e0eull},
    {"cbp-local", "node-crash", 0x2730e8439426a622ull},
    {"cbp-local", "migrations", 0xa789198b04b7a534ull},
};

std::uint64_t golden(const std::string& policy, const std::string& name) {
  for (const Golden& g : kGoldens) {
    if (policy == g.policy && name == g.fault_case) return g.digest;
  }
  return 0;
}

DlResult run_case(const std::string& policy, const Case& c, int lanes,
                  const DlRunOptions& extra = {}) {
  DlRunOptions options = extra;
  options.faults = c.faults;
  const DlClusterConfig cfg =
      c.migrations ? migration_cluster(lanes) : fabric_cluster(lanes);
  return run_dl_simulation(policy, cfg, small_workload(), kSeed, options);
}

/// One (policy, fault case) cell of the matrix.
class DlCommCacheMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(DlCommCacheMatrix, MatchesThePerTickSolverAtLanesOneAndFour) {
  const std::string policy = std::get<0>(GetParam());
  const Case c = cases()[static_cast<std::size_t>(std::get<1>(GetParam()))];
  const DlResult one = run_case(policy, c, 1);
  const DlResult replay = run_case(policy, c, 1);
  const DlResult four = run_case(policy, c, 4);
  for (const DlResult* r : {&one, &four}) {
    EXPECT_GT(r->invariant_checks, 0u);
    EXPECT_EQ(r->invariant_violations, 0u);
  }
  EXPECT_EQ(one.run_digest, replay.run_digest);
  EXPECT_EQ(one.run_digest, four.run_digest);
  EXPECT_EQ(one.run_digest, golden(policy, c.name))
      << std::hex << "{\"" << policy << "\", \"" << c.name << "\", 0x"
      << one.run_digest << "ull},";
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByFaultCase, DlCommCacheMatrix,
    ::testing::Combine(::testing::Values("resag", "gandiva", "tiresias",
                                         "cbp-pp", "cbp-local"),
                       ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<DlCommCacheMatrix::ParamType>& p) {
      std::string name =
          std::get<0>(p.param) + "_" +
          cases()[static_cast<std::size_t>(std::get<1>(p.param))].name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(DlCommCache, CasesExerciseLinkEventsMigrationsAndCrashes) {
  // Guards the matrix above against going vacuous: each fault case really
  // moves the input it is named after.
  const auto all = cases();
  const DlResult spine = run_case("cbp-pp", all[1], 1);
  const DlResult calm = run_case("cbp-pp", all[0], 1);
  EXPECT_NE(spine.run_digest, calm.run_digest);
  const DlResult degrade = run_case("cbp-pp", all[2], 1);
  EXPECT_NE(degrade.run_digest, calm.run_digest);
  const DlResult crash = run_case("cbp-pp", all[3], 1);
  EXPECT_EQ(crash.node_crashes, 1u);
  EXPECT_GT(crash.jobs_evicted, 0u);
  const DlResult moved = run_case("gandiva", all[4], 1);
  EXPECT_GT(moved.migrations, 0u);
}

/// Two 2-GPU nodes under separate ToRs: job 0 (1 GPU) pins node 0, so
/// cbp-pp spreads the 2-GPU gang (job 1) across the spine.
DlClusterConfig spread_gang_cluster() {
  net::AutoFabricOptions opts;
  opts.nodes_per_tor = 1;
  DlClusterConfig cfg;
  cfg.nodes = 2;
  cfg.gpus_per_node = 2;
  cfg.fabric = net::FabricPlan::auto_derive(2, opts);
  cfg.allreduce_mb_per_step = 1249.0;
  return cfg;
}

DlWorkload spread_gang_jobs() {
  DlWorkload wl;
  DltJob solo;
  solo.id = 0;
  solo.gpus = 1;
  solo.service = 3 * kHour;
  DltJob gang;
  gang.id = 1;
  gang.arrival = 1 * kSec;
  gang.gpus = 2;
  gang.service = 1 * kHour;
  wl.jobs = {solo, gang};
  wl.horizon = 12 * kHour;
  return wl;
}

/// Gang JCT (hours) of a spread_gang run under `faults`.
double gang_jct_h(const fault::FaultPlan& faults) {
  DlRunOptions options;
  options.faults = faults;
  const DlResult r = run_dl_simulation("cbp-pp", spread_gang_cluster(),
                                       spread_gang_jobs(), kSeed, options);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.dlt_completed, 2u);
  return r.jct_hours.size() == 2 ? r.jct_hours[1] : 0.0;
}

TEST(DlCommCache, LinkEventsAloneInvalidateTheCache) {
  // No placement changes while the gang runs, so only the link-event count
  // can tell the cache the share moved. A 30-minute spine outage stalls the
  // gang for exactly its duration (factor 0 on every tick of it); a 2x
  // degrade of its bottleneck, node 1's uplink, slows it.
  const double calm = gang_jct_h({});
  const double outage = gang_jct_h(
      fault::FaultPlan{}.link_down("spine", 10 * kMinute, 30 * kMinute));
  EXPECT_NEAR(outage - calm, 0.5, 1e-9);
  const double degraded = gang_jct_h(fault::FaultPlan{}.link_degrade(
      "n1-up", 10 * kMinute, 30 * kMinute, 2.0));
  EXPECT_GT(degraded, calm);
  EXPECT_LT(degraded, outage);
}

/// The perfbench dl-fabric configuration: 32×8 GPUs, auto fabric with the
/// device's NVLink inside nodes, 256 MB all-reduce, 4096 MB checkpoints,
/// 260 DLT + 700 DLI over 12 h, cbp-pp.
DlClusterConfig dl_fabric_cluster() {
  DlClusterConfig cfg;
  net::AutoFabricOptions options;
  options.intra_node_mb_per_s = cfg.gpu.nvlink_mbps;
  cfg.fabric = net::FabricPlan::auto_derive(cfg.nodes, options);
  cfg.allreduce_mb_per_step = 256.0;
  cfg.checkpoint_mb = 4096.0;
  return cfg;
}

TEST(DlCommCache, DlFabricSolvesOnAtMostFivePercentOfSteps) {
  DlWorkloadConfig wl;
  wl.dlt_jobs = 260;
  wl.dli_queries = 700;
  const DlClusterConfig cfg = dl_fabric_cluster();
  const DlResult plain = run_dl_simulation("cbp-pp", cfg, wl, 1);

  obs::MetricsRegistry metrics;
  obs::TraceSink trace;
  DlRunOptions observed;
  observed.metrics = &metrics;
  observed.trace = &trace;
  const DlResult traced = run_dl_simulation("cbp-pp", cfg, wl, 1, observed);
  EXPECT_EQ(plain.run_digest, traced.run_digest);
  EXPECT_EQ(traced.invariant_violations, 0u);

  const obs::Counter* solves = metrics.find_counter("dlsim.comm_solves");
  const obs::Counter* steps = metrics.find_counter("dlsim.steps");
  ASSERT_NE(solves, nullptr);
  ASSERT_NE(steps, nullptr);
  EXPECT_GT(solves->value(), 0u);
  EXPECT_LE(20 * solves->value(), steps->value())
      << solves->value() << " solves over " << steps->value() << " steps";
}

TEST(DlCommCache, NoFabricMeansNoSolves) {
  // Without a live fabric (or without all-reduce traffic) the factors stay
  // empty and the solver never runs.
  obs::MetricsRegistry metrics;
  DlRunOptions observed;
  observed.metrics = &metrics;
  DlClusterConfig bare = fabric_cluster(1);
  bare.allreduce_mb_per_step = 0.0;
  (void)run_dl_simulation("cbp-pp", bare, small_workload(), kSeed, observed);
  EXPECT_EQ(metrics.find_counter("dlsim.comm_solves"), nullptr);
  ASSERT_NE(metrics.find_counter("dlsim.steps"), nullptr);
  EXPECT_GT(metrics.find_counter("dlsim.steps")->value(), 0u);
}

}  // namespace
}  // namespace knots::dlsim
