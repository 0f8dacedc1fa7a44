// knots::serve — open-loop, request-driven inference serving on the
// simulated GPU cluster (ROADMAP item 3).
//
// A ServingConfig describes per-service traffic (an ArrivalProcess shape +
// mean QPS), dynamic-batching knobs, an SLO with an admission policy, and
// autoscaling bounds, layered over an ordinary ExperimentConfig whose batch
// workload keeps the cluster busy underneath (the harvest substrate).
// run_serving() wires the serving engine onto the cluster's event loop and
// returns a ServingReport: per-service and aggregate tail latency
// (p50/p99/p999 over the *full* request population), admission and
// autoscaler activity, plus the usual cluster-side ExperimentReport and an
// order-sensitive serve digest — identical (config, seed) runs are
// bit-identical at any lane count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "knots/experiment.hpp"
#include "serve/admission.hpp"
#include "serve/request.hpp"
#include "workload/arrival.hpp"
#include "workload/djinn_tonic.hpp"

namespace knots::serve {

/// Which ArrivalProcess shape drives a serving run.
enum class ArrivalShape : std::uint8_t {
  kPoisson,
  kDiurnal,
  kFlashCrowd,
  kTrace,
};

[[nodiscard]] std::string_view to_string(ArrivalShape s) noexcept;

/// Shape parameters shared by every service in the run (each service still
/// draws its own independent arrival stream off Rng::fork_at).
struct ArrivalShapeConfig {
  ArrivalShape shape = ArrivalShape::kPoisson;
  double diurnal_amplitude = 0.4;  ///< kDiurnal: rate swing fraction.
  int diurnal_peaks = 2;           ///< kDiurnal: peaks in the window.
  double spike_multiplier = 5.0;   ///< kFlashCrowd: rate multiple in spike.
  double spike_start_frac = 0.5;   ///< kFlashCrowd: spike start / window.
  double spike_length_frac = 0.1;  ///< kFlashCrowd: spike length / window.
  std::vector<SimTime> trace;      ///< kTrace: replayed verbatim.
};

/// One deployed inference service.
struct ServiceConfig {
  workload::Service service = workload::Service::kImc;
  double qps = 100.0;                  ///< Mean offered rate.
  int max_batch = 16;                  ///< Dynamic-batching ceiling.
  SimTime batch_timeout = 10 * kMsec;  ///< Size-or-timeout window.
  SimTime slo = 150 * kMsec;           ///< Relative deadline per request.
  int min_replicas = 1;
  int max_replicas = 8;
  /// Replica container request = warm-model footprint × this headroom
  /// (Knots right-sizing; replicas never use stock-TF greedy earmarks).
  double replica_memory_headroom = 1.1;
  /// Degraded-model service time as a fraction of the full model's.
  double degrade_latency_scale = 0.35;
  /// Owning tenant: replicas are charged to this tenant's quota (0 = the
  /// default tenant; the ledger stays inactive without quotas).
  int tenant = 0;
};

struct ServingConfig {
  /// Cluster topology, scheduler, seed, fault plan and the *batch* side of
  /// the mix workload (its latency-critical query pods are replaced by the
  /// request stream below).
  ExperimentConfig experiment;
  std::vector<ServiceConfig> services;
  ArrivalShapeConfig arrivals;
  SimTime window = 60 * kSec;  ///< Request-arrival window.
  AdmissionPolicy admission = AdmissionPolicy::kShed;
  bool autoscale = true;
  SimTime autoscale_period = 2 * kSec;
  double autoscale_target_utilization = 0.7;
  double autoscale_ewma_alpha = 0.3;
  /// Run the experiment mix's batch pods underneath the serving traffic
  /// (the capacity being harvested). Off = serving-only cluster.
  bool background_batch = true;
};

/// Default three-service deployment (face / imc / key) at the given
/// aggregate QPS, split 50/30/20.
ServingConfig default_serving(double total_qps, ArrivalShape shape,
                              sched::SchedulerKind scheduler =
                                  sched::SchedulerKind::kPeakPrediction);

/// Latency percentiles over the full served population, milliseconds.
struct LatencyStats {
  double p50_ms = 0, p99_ms = 0, p999_ms = 0, max_ms = 0, mean_ms = 0;
};

struct ServiceStats {
  std::string service;
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t expired = 0;
  std::size_t completed = 0;  ///< Served at full quality.
  std::size_t degraded = 0;   ///< Served by the degraded path.
  std::size_t slo_violations = 0;  ///< Served past the deadline.
  LatencyStats latency;
  double achieved_qps = 0;  ///< Served requests / window.
  int peak_replicas = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
};

struct ServingReport {
  ExperimentReport experiment;  ///< Cluster-side report (digest et al.).
  std::vector<ServiceStats> services;

  // Aggregates over all services.
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t expired = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::size_t slo_violations = 0;
  LatencyStats latency;
  double offered_qps = 0;   ///< Sampled arrivals / window (not cfg qps).
  double achieved_qps = 0;  ///< Served requests / window.

  std::size_t batches = 0;
  double mean_batch_fill = 0;  ///< Mean batch size / max_batch.
  std::size_t replicas_launched = 0;
  std::size_t replicas_retired = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;

  /// Order-sensitive FNV-1a digest over every request-level event and
  /// scale decision. Identical (config, seed) serving runs — at any lane
  /// count — produce identical values.
  std::uint64_t serve_digest = 0;
};

/// Runs the serving scenario to completion (single-threaded,
/// deterministic).
ServingReport run_serving(const ServingConfig& config);

/// run_serving with tracing/metrics attached for the run's duration.
/// Attachments are purely observational: digests are bit-identical to the
/// unobserved run.
ServingReport run_serving(const ServingConfig& config,
                          const RunObservability& observability);

}  // namespace knots::serve
