// The declarative scenario format: parser contract + rejection matrix.
//
// Accepting side: the documented example file must round-trip into the
// ExperimentConfig it claims to describe (heterogeneous node classes, spot
// notice, tenant quotas, fault schedule, auto fabric, power cap). Rejecting
// side: every malformed or semantically impossible input must fail with a
// diagnostic naming the offending line — never abort — because knots_ctl
// turns these into exit-code-2 CLI errors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "fault/fault_plan.hpp"
#include "knots/experiment.hpp"
#include "knots/scenario.hpp"
#include "sched/registry.hpp"

namespace knots {
namespace {

std::optional<ScenarioSpec> parse(const std::string& text,
                                  std::string& error) {
  std::istringstream in(text);
  return parse_scenario(in, error);
}

constexpr const char* kMixedFleet = R"(# the documented example
name mixed-fleet
scheduler CBP
seed 7
duration 120s
lanes 4
mix 1
nodeclass ondemand p100-16g 6
nodeclass spot v100-32g 4 preemptible notice=10s
tenant 1 quota_mb=40000
tenant 2 quota_mb=30000 quota_gpu_s=500
workload_tenants 1,2
fabric auto
power_cap_watts 4000
fault spot_reclaim node=7 at=60s duration=30s
)";

TEST(ScenarioSpec, ParsesTheDocumentedExample) {
  std::string error;
  const auto spec = parse(kMixedFleet, error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "mixed-fleet");

  const ExperimentConfig& cfg = spec->config;
  EXPECT_EQ(cfg.scheduler, sched::SchedulerKind::kCbp);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.workload.duration, 120 * kSec);
  EXPECT_EQ(cfg.cluster.lanes, 4);
  EXPECT_EQ(cfg.mix_id, 1);

  // Node classes expand in file order; total node count is their sum.
  ASSERT_EQ(cfg.cluster.node_classes.size(), 2u);
  const auto& ondemand = cfg.cluster.node_classes[0];
  EXPECT_EQ(ondemand.device_model, "p100-16g");
  EXPECT_EQ(ondemand.count, 6);
  EXPECT_FALSE(ondemand.preemptible);
  const auto& spot = cfg.cluster.node_classes[1];
  EXPECT_EQ(spot.device_model, "v100-32g");
  EXPECT_EQ(spot.count, 4);
  EXPECT_TRUE(spot.preemptible);
  EXPECT_EQ(spot.spot_notice, 10 * kSec);
  EXPECT_EQ(cfg.cluster.nodes, 10);

  ASSERT_EQ(cfg.cluster.tenant_quotas.size(), 2u);
  EXPECT_EQ(cfg.cluster.tenant_quotas[0].tenant, 1);
  EXPECT_EQ(cfg.cluster.tenant_quotas[0].provision_cap_mb, 40000.0);
  EXPECT_EQ(cfg.cluster.tenant_quotas[0].gpu_seconds_cap, 0.0);
  EXPECT_EQ(cfg.cluster.tenant_quotas[1].tenant, 2);
  EXPECT_EQ(cfg.cluster.tenant_quotas[1].provision_cap_mb, 30000.0);
  EXPECT_EQ(cfg.cluster.tenant_quotas[1].gpu_seconds_cap, 500.0);

  ASSERT_EQ(cfg.workload.tenants.size(), 2u);
  EXPECT_EQ(cfg.workload.tenants[0], 1);
  EXPECT_EQ(cfg.workload.tenants[1], 2);

  EXPECT_FALSE(cfg.cluster.fabric.empty());  // fabric auto
  EXPECT_EQ(cfg.cluster.power_cap_watts, 4000.0);

  ASSERT_EQ(cfg.faults.events.size(), 1u);
  const auto& ev = cfg.faults.events[0];
  EXPECT_EQ(ev.kind, fault::FaultKind::kSpotReclaim);
  EXPECT_EQ(ev.node.value, 7);
  EXPECT_EQ(ev.at, 60 * kSec);
  EXPECT_EQ(ev.duration, 30 * kSec);
}

TEST(ScenarioSpec, MinimalScenarioUsesDefaults) {
  std::string error;
  const auto spec = parse("nodeclass fleet p100-16g 4\n", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "scenario");
  EXPECT_EQ(spec->config.cluster.nodes, 4);
  EXPECT_TRUE(spec->config.cluster.tenant_quotas.empty());
  EXPECT_TRUE(spec->config.faults.empty());
  EXPECT_TRUE(spec->config.cluster.fabric.empty());
  EXPECT_EQ(spec->config.cluster.power_cap_watts, 0.0);
}

TEST(ScenarioSpec, CommentsAndBlankLinesAreIgnored) {
  std::string error;
  const auto spec = parse(
      "# leading comment\n"
      "\n"
      "nodeclass fleet p100-16g 2   # trailing comment\n"
      "   \n",
      error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->config.cluster.nodes, 2);
}

TEST(ScenarioSpec, PerClassGpusOverrideTheGlobalDefault) {
  std::string error;
  const auto spec = parse(
      "gpus_per_node 2\n"
      "nodeclass dense a100-40g 1 gpus=8\n"
      "nodeclass lean p100-16g 3\n",
      error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->config.cluster.gpus_per_node, 2);
  EXPECT_EQ(spec->config.cluster.node_classes[0].gpus_per_node, 8);
  EXPECT_EQ(spec->config.cluster.node_classes[1].gpus_per_node, 0);  // inherit
}

struct Rejection {
  const char* label;
  const char* text;
  const char* expect;  ///< Substring of the diagnostic.
};

TEST(ScenarioSpec, RejectionMatrix) {
  const Rejection cases[] = {
      {"empty file", "", "no node classes"},
      {"unknown directive", "frobnicate 3\n", "line 1"},
      {"unknown directive after valid line",
       "nodeclass a p100-16g 2\nbogus 1\n", "line 2"},
      {"unknown device model", "nodeclass a k80-24g 2\n",
       "unknown device model"},
      {"zero count", "nodeclass a p100-16g 0\n", "positive"},
      {"preemptible without notice",
       "nodeclass a p100-16g 2 preemptible\n", "notice"},
      {"notice without preemptible",
       "nodeclass a p100-16g 2 notice=10s\n", "preemptible"},
      {"bad nodeclass token", "nodeclass a p100-16g 2 spot\n",
       "unknown nodeclass token"},
      {"quota exceeds cluster",
       "nodeclass a p100-16g 2\ntenant 1 quota_mb=99999999\n",
       "exceeds total cluster memory"},
      {"tenant declared twice",
       "nodeclass a p100-16g 2\ntenant 1 quota_mb=100\ntenant 1 "
       "quota_mb=200\n",
       "declared twice"},
      {"tenant id zero", "nodeclass a p100-16g 2\ntenant 0 quota_mb=100\n",
       "positive"},
      {"tenant without caps", "nodeclass a p100-16g 2\ntenant 1\n", "tenant"},
      {"negative quota", "nodeclass a p100-16g 2\ntenant 1 quota_mb=-5\n",
       "positive"},
      {"fault node out of range",
       "nodeclass a p100-16g 2\nfault node_crash node=2 at=5s\n",
       "only 2 nodes"},
      {"spot reclaim of on-demand node",
       "nodeclass a p100-16g 2\nfault spot_reclaim node=0 at=5s\n",
       "not in a preemptible node class"},
      {"unknown fault kind",
       "nodeclass a p100-16g 2\nfault meteor node=0 at=5s\n",
       "unknown fault kind"},
      {"fault missing at", "nodeclass a p100-16g 2\nfault node_crash node=0\n",
       "fault"},
      {"unknown scheduler", "scheduler FIFO\nnodeclass a p100-16g 2\n",
       "unknown scheduler"},
      {"unknown mix", "mix 99\nnodeclass a p100-16g 2\n", "unknown app mix"},
      {"zero lanes", "lanes 0\nnodeclass a p100-16g 2\n", "lanes"},
      {"zero duration", "duration 0s\nnodeclass a p100-16g 2\n", "duration"},
      {"bad workload tenants",
       "nodeclass a p100-16g 2\nworkload_tenants 1,x\n", "tenant ids"},
      {"bad fabric", "fabric mesh\nnodeclass a p100-16g 2\n", "auto|none"},
      {"bad seed", "seed -3\nnodeclass a p100-16g 2\n", "seed"},
      {"zero power cap", "power_cap_watts 0\nnodeclass a p100-16g 2\n",
       "positive"},
      // Hostile numbers: non-finite, out of range, or overflowing a field.
      {"nan power cap", "power_cap_watts nan\nnodeclass a p100-16g 2\n",
       "power_cap_watts"},
      {"inf power cap", "power_cap_watts inf\nnodeclass a p100-16g 2\n",
       "power_cap_watts"},
      {"infinite quota", "nodeclass a p100-16g 2\ntenant 1 quota_mb=inf\n",
       "bad tenant token"},
      {"out-of-range quota",
       "nodeclass a p100-16g 2\ntenant 1 quota_mb=1e400\n",
       "bad tenant token"},
      {"huge finite quota",
       "nodeclass a p100-16g 2\ntenant 1 quota_mb=1e300\n",
       "exceeds total cluster memory"},
      {"nan load scale", "load_scale nan\nnodeclass a p100-16g 2\n",
       "load_scale"},
      {"load scales overflow",
       "load_scale 1e200\nload_scale 1e200\nnodeclass a p100-16g 2\n",
       "load_scale"},
      {"node total overflows int",
       "nodeclass a p100-16g 2000000000\nnodeclass b p100-16g 2000000000\n",
       "more than"},
      {"node total over the cap", "nodeclass a p100-16g 100001\n",
       "more than"},
      {"node count past int", "nodeclass a p100-16g 3000000000\n",
       "positive integer"},
      {"gpus past int", "nodeclass a p100-16g 2 gpus=4294967297\n",
       "gpus"},
      {"duration overflows", "duration 9223372036854775807s\n"
       "nodeclass a p100-16g 2\n", "duration"},
      {"fault end overflows",
       "nodeclass a p100-16g 2\nfault node_crash node=0 "
       "at=9223372036854s duration=9223372036854s\n",
       "overflows"},
      {"fault node past int",
       "nodeclass a p100-16g 2\nfault node_crash node=4294967296 at=5s\n",
       "fault node"},
      {"seed out of range",
       "seed 99999999999999999999\nnodeclass a p100-16g 2\n", "seed"},
  };
  for (const Rejection& c : cases) {
    SCOPED_TRACE(c.label);
    std::string error;
    const auto spec = parse(c.text, error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "diagnostic was: " << error;
  }
}

TEST(ScenarioSpec, UnreadableFileIsAnError) {
  std::string error;
  const auto spec = load_scenario("/nonexistent/kube-knots/fleet.cfg", error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

// The flagship integration law: a heterogeneous + spot + multi-tenant +
// faulted scenario parsed from text is lane-deterministic — lanes only
// change how the tick hot path is sharded, never what happens. (The same
// law is CI-gated for the committed examples/scenarios file.)
TEST(ScenarioSpec, MixedFleetScenarioIsLaneDeterministic) {
  constexpr const char* kSmallFleet = R"(
name lane-law
scheduler CBP
seed 11
duration 30s
nodeclass ondemand p100-16g 3
nodeclass spot v100-32g 2 preemptible notice=5s
tenant 1 quota_mb=30000
tenant 2 quota_mb=24000
workload_tenants 1,2
fault spot_reclaim node=3 at=12s duration=10s
)";
  std::string error;
  const auto spec = parse(kSmallFleet, error);
  ASSERT_TRUE(spec.has_value()) << error;

  ExperimentConfig cfg = spec->config;
  cfg.cluster.lanes = 1;
  const auto lane1 = run_experiment(cfg);
  cfg.cluster.lanes = 4;
  const auto lane4 = run_experiment(cfg);

  EXPECT_EQ(lane1.run_digest, lane4.run_digest);
  EXPECT_EQ(lane1.pods_completed, lane4.pods_completed);
  EXPECT_EQ(lane1.energy_joules, lane4.energy_joules);
  ASSERT_EQ(lane1.tenants.size(), 2u);
  EXPECT_EQ(lane1.tenants, lane4.tenants);
  EXPECT_EQ(lane1.invariant_violations, 0u);
  EXPECT_EQ(lane4.invariant_violations, 0u);
}

/// Every number a spec carries is finite and in its documented range.
void expect_sane(const ScenarioSpec& spec, const std::string& text) {
  const ExperimentConfig& cfg = spec.config;
  long long nodes = 0;
  for (const auto& nc : cfg.cluster.node_classes) {
    EXPECT_GE(nc.count, 1) << text;
    EXPECT_GE(nc.gpus_per_node, 0) << text;
    nodes += nc.count;
  }
  EXPECT_EQ(nodes, cfg.cluster.nodes) << text;
  EXPECT_GE(cfg.cluster.nodes, 1) << text;
  EXPECT_LE(cfg.cluster.nodes, kMaxScenarioNodes) << text;
  EXPECT_GE(cfg.cluster.lanes, 1) << text;
  EXPECT_GT(cfg.workload.duration, 0) << text;
  EXPECT_TRUE(std::isfinite(cfg.cluster.power_cap_watts)) << text;
  EXPECT_GE(cfg.cluster.power_cap_watts, 0.0) << text;
  EXPECT_TRUE(std::isfinite(cfg.cluster.image_mb)) << text;
  EXPECT_GE(cfg.cluster.image_mb, 0.0) << text;
  EXPECT_TRUE(std::isfinite(cfg.workload.batch_rate_scale)) << text;
  EXPECT_GT(cfg.workload.batch_rate_scale, 0.0) << text;
  EXPECT_TRUE(std::isfinite(cfg.workload.lc_rate_scale)) << text;
  EXPECT_GT(cfg.workload.lc_rate_scale, 0.0) << text;
  for (const auto& q : cfg.cluster.tenant_quotas) {
    EXPECT_GE(q.tenant, 1) << text;
    EXPECT_TRUE(std::isfinite(q.provision_cap_mb)) << text;
    EXPECT_TRUE(std::isfinite(q.gpu_seconds_cap)) << text;
  }
  for (const auto& ev : cfg.faults.events) {
    EXPECT_GE(ev.node.value, 0) << text;
    EXPECT_LT(ev.node.value, cfg.cluster.nodes) << text;
    EXPECT_GE(ev.at, 0) << text;
    EXPECT_GE(ev.duration, 0) << text;
  }
}

/// Seeded mutation fuzz of the documented example, parse only. Each mutant
/// applies one to four edits: hostile values (nan, inf, out-of-range and
/// int-overflowing numbers) swapped in for tokens or key=value values,
/// digit runs spliced into tokens, character flips, and lines deleted,
/// duplicated, swapped or invented. The contract: nullopt with a non-empty
/// diagnostic, or a spec whose numbers are all finite and in range — never
/// an exception, an abort or undefined behaviour (the sanitizer job runs
/// this suite).
TEST(ScenarioSpecFuzz, MutantsOfTheDocumentedExampleParseOrFailCleanly) {
  const std::vector<std::string> hostile = {
      "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0", "-1",
      "1e300", "2000000000", "2147483648", "4294967297",
      "9223372036854775807", "9223372036854775808",
      "99999999999999999999", "0x10", "1.5", "=", "s", "", "100001",
      "99999"};
  const std::vector<std::string> words = {
      "nodeclass", "tenant", "fault", "load_scale", "power_cap_watts",
      "image_mb", "duration", "lanes", "seed", "mix", "gpus_per_node",
      "workload_tenants", "fabric", "auto", "p100-16g", "v100-32g",
      "preemptible", "notice=", "gpus=", "quota_mb=", "quota_gpu_s=",
      "node=", "at=", "duration=", "spot_reclaim", "node_crash", "1,2",
      "#"};
  const std::string flip_chars = "0123456789-+.eEx=,#s naif";

  std::vector<std::vector<std::string>> base;
  {
    std::istringstream in(kMixedFleet);
    std::string raw;
    while (std::getline(in, raw)) {
      std::istringstream line(raw);
      std::vector<std::string> tokens;
      std::string tok;
      while (line >> tok) tokens.push_back(tok);
      if (!tokens.empty()) base.push_back(tokens);
    }
  }

  Rng rng(20240607);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  int accepted = 0;
  int rejected = 0;
  for (int m = 0; m < 3000; ++m) {
    auto lines = base;
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits && !lines.empty(); ++e) {
      auto& line = lines[pick(lines.size())];
      std::string& tok = line[pick(line.size())];
      switch (rng.uniform_int(0, 7)) {
        case 0:
          tok = hostile[pick(hostile.size())];
          break;
        case 1: {
          const auto eq = tok.find('=');
          const std::string& v = hostile[pick(hostile.size())];
          tok = eq == std::string::npos ? v : tok.substr(0, eq + 1) + v;
          break;
        }
        case 2: {
          std::string digits(static_cast<std::size_t>(rng.uniform_int(1, 25)),
                             '9');
          tok.insert(pick(tok.size() + 1), digits);
          break;
        }
        case 3:
          if (!tok.empty()) {
            tok[pick(tok.size())] = flip_chars[pick(flip_chars.size())];
          }
          break;
        case 4:
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                                          pick(lines.size())));
          break;
        case 5:
          lines.push_back(lines[pick(lines.size())]);
          break;
        case 6:
          std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
          break;
        default: {
          std::vector<std::string> invented;
          const auto n = static_cast<int>(rng.uniform_int(1, 5));
          for (int i = 0; i < n; ++i) {
            invented.push_back(words[pick(words.size())] +
                               (rng.uniform() < 0.5
                                    ? hostile[pick(hostile.size())]
                                    : std::string{}));
          }
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                           pick(lines.size() + 1)),
                       invented);
          break;
        }
      }
    }
    std::string text;
    for (const auto& line : lines) {
      for (const auto& tok : line) text += tok + " ";
      text += "\n";
    }
    std::string error;
    std::optional<ScenarioSpec> spec;
    try {
      spec = parse(text, error);
    } catch (const std::exception& ex) {
      FAIL() << "mutant " << m << " threw " << ex.what() << "\n" << text;
    }
    if (spec.has_value()) {
      ++accepted;
      expect_sane(*spec, text);
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << text;
    }
    ASSERT_FALSE(HasFailure()) << "mutant " << m;
  }
  // Both sides of the contract are exercised.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace knots
