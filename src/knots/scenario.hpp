// Declarative scenario specs (ROADMAP item 5's front door).
//
// A scenario file stands up a whole experiment — heterogeneous node classes
// drawn from the device-model registry, spot/preemptible capacity with an
// eviction notice, per-tenant quotas, the workload mix, a fault schedule and
// an optional power cap — in a dozen lines of plain text:
//
//   name mixed-fleet
//   scheduler CBP
//   seed 7
//   duration 120s
//   lanes 4
//   mix 1
//   nodeclass ondemand p100-16g 6
//   nodeclass spot v100-32g 4 preemptible notice=10s
//   tenant 1 quota_mb=40000
//   tenant 2 quota_mb=30000 quota_gpu_s=500
//   workload_tenants 1,2
//   fabric auto
//   power_cap_watts 4000
//   fault spot_reclaim node=7 at=60s duration=30s
//
// `#` starts a comment; tokens are whitespace-separated. Parsing is strict:
// unknown directives, unknown device models, quotas no cluster could grant,
// spot classes without an eviction notice, or faults aimed at nodes that
// don't exist (or aren't preemptible, for spot_reclaim), numbers that are
// not finite or overflow their field, and node totals past
// kMaxScenarioNodes all fail with a one-line "line N: why" diagnostic
// instead of aborting mid-run — knots_ctl turns that into exit 2. A parsed
// scenario is an ordinary ExperimentConfig; identical files produce
// bit-identical runs at any lane count.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "knots/experiment.hpp"

namespace knots {

/// Most nodes a scenario may declare across all its classes, ten times the
/// largest fleet bench_scale simulates. Larger totals are rejected before
/// anything (the roster, an auto fabric) is sized by them.
inline constexpr long long kMaxScenarioNodes = 100000;

struct ScenarioSpec {
  std::string name = "scenario";
  ExperimentConfig config;  ///< Fully built, ready for run_experiment().
};

/// Parses a scenario from `in`. On malformed or semantically invalid input
/// returns nullopt and sets `error` to a "line N: why" diagnostic.
std::optional<ScenarioSpec> parse_scenario(std::istream& in,
                                           std::string& error);

/// parse_scenario over a file; an unreadable path is an error.
std::optional<ScenarioSpec> load_scenario(const std::string& path,
                                          std::string& error);

}  // namespace knots
