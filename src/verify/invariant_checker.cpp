#include "verify/invariant_checker.hpp"

#include <cmath>
#include <map>
#include <string>

#include "cluster/cluster.hpp"
#include "core/check.hpp"

namespace knots::verify {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string gpu_tag(GpuId gpu) {
  return "gpu " + std::to_string(gpu.value);
}

std::string pod_tag(PodId pod) {
  return "pod " + std::to_string(pod.value);
}

}  // namespace

InvariantChecker::InvariantChecker(InvariantOptions options)
    : options_(options) {}

void InvariantChecker::report(const cluster::Cluster& cluster,
                              std::string category, std::string message) {
  ++violation_count_;
  if (options_.fatal) {
    const std::string full = category + ": " + message;
    KNOTS_CHECK_MSG(false, full.c_str());
  }
  if (violations_.size() < options_.max_recorded) {
    violations_.push_back(
        Violation{std::move(category), std::move(message), cluster.now()});
  }
}

void InvariantChecker::check_time(const cluster::Cluster& cluster) {
  const SimTime now = cluster.now();
  if (now <= last_tick_) {
    report(cluster, "time-monotonicity",
           "tick time " + std::to_string(now) +
               " did not advance past previous tick " +
               std::to_string(last_tick_));
  }
  last_tick_ = now;
}

void InvariantChecker::check_devices(const cluster::Cluster& cluster) {
  const double eps = options_.memory_epsilon_mb;
  for (GpuId gpu : cluster.all_gpus()) {
    const auto& dev = cluster.device(gpu);
    const auto totals = dev.totals();
    const auto& spec = dev.spec();

    // Space-shared memory: aggregate *usage* must fit the usable device
    // (physical capacity minus ECC-retired pages) at every rest state
    // (transient overshoot crashes the grower before the tick ends).
    if (totals.memory_used_mb > dev.effective_memory_mb() + eps) {
      report(cluster, "gpu-memory",
             gpu_tag(gpu) + " usage " + fmt_double(totals.memory_used_mb) +
                 " MB exceeds usable capacity " +
                 fmt_double(dev.effective_memory_mb()) + " MB");
    }
    if (totals.memory_used_mb < -eps || totals.memory_provisioned_mb < -eps) {
      report(cluster, "gpu-memory",
             gpu_tag(gpu) + " negative memory accounting");
    }
    if (options_.provision_ceiling_ratio > 0 &&
        totals.memory_provisioned_mb >
            options_.provision_ceiling_ratio * spec.memory_mb + eps) {
      report(cluster, "gpu-provision",
             gpu_tag(gpu) + " provisioned " +
                 fmt_double(totals.memory_provisioned_mb) +
                 " MB exceeds ceiling " +
                 fmt_double(options_.provision_ceiling_ratio *
                            spec.memory_mb) +
                 " MB");
    }

    // Time-shared SMs: delivered utilization is demand clamped to [0, 1].
    if (totals.sm_util < 0.0 || totals.sm_util > 1.0) {
      report(cluster, "gpu-utilization",
             gpu_tag(gpu) + " sm_util " + fmt_double(totals.sm_util) +
                 " outside [0, 1]");
    }
    if (totals.sm_util > totals.sm_demand + 1e-12) {
      report(cluster, "gpu-utilization",
             gpu_tag(gpu) + " delivered utilization " +
                 fmt_double(totals.sm_util) + " exceeds demand " +
                 fmt_double(totals.sm_demand));
    }

    // P100 p-state envelope: deep sleep (P12) through TDP.
    const double watts = dev.power_watts();
    if (watts < spec.power.deep_sleep_watts - 1e-9 ||
        watts > spec.power.max_watts + 1e-9) {
      report(cluster, "gpu-power",
             gpu_tag(gpu) + " power " + fmt_double(watts) +
                 " W outside envelope [" +
                 fmt_double(spec.power.deep_sleep_watts) + ", " +
                 fmt_double(spec.power.max_watts) + "]");
    }

    // Internal accounting: totals must agree with per-pod records.
    const auto& residents = dev.residents();
    if (static_cast<std::size_t>(totals.residents) != residents.size()) {
      report(cluster, "gpu-accounting",
             gpu_tag(gpu) + " resident count " +
                 std::to_string(totals.residents) + " != tracked pods " +
                 std::to_string(residents.size()));
    }
    double provisioned_sum = 0;
    for (PodId pod : residents) {
      provisioned_sum += dev.provisioned_mb(pod).value_or(0.0);
    }
    if (std::abs(provisioned_sum - totals.memory_provisioned_mb) > eps) {
      report(cluster, "gpu-accounting",
             gpu_tag(gpu) + " provisioned total " +
                 fmt_double(totals.memory_provisioned_mb) +
                 " != per-pod sum " + fmt_double(provisioned_sum));
    }
    if (dev.parked() && totals.residents != 0) {
      report(cluster, "gpu-parking",
             gpu_tag(gpu) + " parked with " +
                 std::to_string(totals.residents) + " residents");
    }

    // A dead node hosts nothing: the eviction path must have drained it
    // before the tick's rest state.
    if (cluster.node_health(cluster.node_of_gpu(gpu)) ==
            cluster::NodeHealth::kDown &&
        totals.residents != 0) {
      report(cluster, "node-health",
             gpu_tag(gpu) + " on a down node with " +
                 std::to_string(totals.residents) + " residents");
    }
  }
}

void InvariantChecker::audit_pod(const cluster::Cluster& cluster,
                                 std::size_t index,
                                 std::uint8_t packed_state) {
  using S = cluster::PodState;
  const PodId id{static_cast<std::int32_t>(index)};
  const auto& pod = cluster.pod(id);
  const S state = pod.state();
  if (static_cast<std::uint8_t>(state) != packed_state) {
    report(cluster, "pod-state-table",
           pod_tag(id) + " packed state " + std::to_string(packed_state) +
               " disagrees with pod state " +
               std::string(to_string(state)));
  }

  const double progress = pod.progress();
  if (progress < 0.0 || progress > 1.0) {
    report(cluster, "pod-progress",
           pod_tag(id) + " progress " + fmt_double(progress) +
               " outside [0, 1]");
  }
  // Service replicas (PodClass::kService) are long-running servers whose
  // lifetime is a control-plane decision: the serve autoscaler retires them
  // mid-profile by design, so early completion is only a violation for
  // profile-driven pods.
  if (state == S::kCompleted && !pod.finished_profile() &&
      pod.spec().klass != workload::PodClass::kService) {
    report(cluster, "pod-progress",
           pod_tag(id) + " completed without finishing its profile");
  }

  // A placed pod must be resident on its GPU with a matching allocation,
  // and that GPU's node must be alive.
  if (state == S::kStarting || state == S::kRunning) {
    const double eps = options_.memory_epsilon_mb;
    if (cluster.node_health(cluster.node_of_gpu(pod.gpu())) ==
        cluster::NodeHealth::kDown) {
      report(cluster, "node-health",
             pod_tag(id) + " in state " + std::string(to_string(state)) +
                 " on down node " +
                 std::to_string(cluster.node_of_gpu(pod.gpu()).value));
    }
    const auto& dev = cluster.device(pod.gpu());
    const auto recorded = dev.provisioned_mb(id);
    if (!recorded.has_value()) {
      report(cluster, "pod-residency",
             pod_tag(id) + " in state " + std::string(to_string(state)) +
                 " but not resident on " + gpu_tag(pod.gpu()));
    } else if (std::abs(*recorded - pod.provisioned_mb()) > eps) {
      report(cluster, "pod-residency",
             pod_tag(id) + " allocation " + fmt_double(pod.provisioned_mb()) +
                 " MB disagrees with device record " +
                 fmt_double(*recorded) + " MB");
    }
  }
}

void InvariantChecker::check_pods(const cluster::Cluster& cluster) {
  using S = cluster::PodState;
  const std::size_t n = cluster.pod_count();

  // Duplicate detection over the pending queue. Only the bits this walk
  // sets are cleared afterwards, so the scratch costs O(queue), not O(n).
  auto& in_pending = in_pending_scratch_;
  if (in_pending.size() < n) in_pending.resize(n, false);
  const auto& pending = cluster.pending();
  for (PodId id : pending) {
    const auto idx = static_cast<std::size_t>(id.value);
    if (!id.valid() || idx >= n) {
      report(cluster, "pod-queue", "pending queue holds invalid " + pod_tag(id));
      continue;
    }
    if (in_pending[idx]) {
      report(cluster, "pod-queue",
             pod_tag(id) + " appears twice in the pending queue");
    }
    in_pending[idx] = true;
    if (cluster.pod(id).state() != S::kPending) {
      report(cluster, "pod-queue",
             pod_tag(id) + " queued while in state " +
                 std::string(to_string(cluster.pod(id).state())));
    }
  }
  for (PodId id : pending) {
    const auto idx = static_cast<std::size_t>(id.value);
    if (id.valid() && idx < n) in_pending[idx] = false;
  }

  // Delta audit over the cluster's packed state table (audit_pod_table in
  // pod_state_scan.hpp): words of unchanged, in-range, frozen pods are
  // skipped eight bytes at a time; every other byte is visited in index
  // order, so an out-of-range byte is reported on every audit it persists,
  // a changed byte has its transition checked, and changed or live pods
  // (Starting/Running: progress and residency move without a state edge)
  // pay the full per-pod dereference — the same violations on the same
  // tick as a per-byte sweep, for O(n / 8) word compares plus O(pods that
  // changed or are live). The conservation histogram is patched from the
  // diffs. The packed byte is cross-checked against pod.state() for every
  // audited pod, so a stale table is itself a detected violation.
  // Trade-off versus an exhaustive per-pod sweep: corruption of a *frozen*
  // pod's fields with no state change (impossible through the public API)
  // is caught only at its next transition.
  const auto& table = cluster.pod_state_table();
  if (table.size() != n) {
    report(cluster, "pod-state-table",
           "state table size " + std::to_string(table.size()) +
               " != pod count " + std::to_string(n));
    return;
  }
  audit_pod_table(
      pod_scan_, table, cluster.completed_count(),
      [&](std::string_view category, std::string message) {
        report(cluster, std::string(category), std::move(message));
      },
      [&](std::size_t index, std::uint8_t packed_state) {
        audit_pod(cluster, index, packed_state);
      });
}

void InvariantChecker::check_power_cap(const cluster::Cluster& cluster) {
  const double cap = cluster.config().power_cap_watts;
  if (cap <= 0) return;
  const double watts = cluster.total_power_watts();
  if (watts > cap + 1e-6) {
    report(cluster, "power-cap",
           "cluster draw " + fmt_double(watts) + " W exceeds cap " +
               fmt_double(cap) + " W");
  }
}

void InvariantChecker::check_tenants(const cluster::Cluster& cluster) {
  const auto& ledger = cluster.tenant_ledger();
  if (ledger.empty()) return;
  const double eps = options_.memory_epsilon_mb;

  // Ground truth: per-tenant provisioned memory recomputed from device
  // residents (ordered map so any reporting below is deterministic).
  std::map<int, double> observed;
  for (GpuId gpu : cluster.all_gpus()) {
    const auto& dev = cluster.device(gpu);
    for (PodId pod : dev.residents()) {
      observed[cluster.pod(pod).spec().tenant] +=
          dev.provisioned_mb(pod).value_or(0.0);
    }
  }
  for (const auto& row : ledger.rows()) {
    const auto it = observed.find(row.tenant);
    const double truth = it == observed.end() ? 0.0 : it->second;
    if (it != observed.end()) observed.erase(it);
    if (std::abs(truth - row.provisioned_mb) > eps) {
      report(cluster, "tenant-accounting",
             "tenant " + std::to_string(row.tenant) + " ledger charge " +
                 fmt_double(row.provisioned_mb) + " MB != resident sum " +
                 fmt_double(truth) + " MB");
    }
    if (row.quota.provision_cap_mb > 0 &&
        row.provisioned_mb > row.quota.provision_cap_mb + eps) {
      report(cluster, "tenant-quota",
             "tenant " + std::to_string(row.tenant) + " provisioned " +
                 fmt_double(row.provisioned_mb) + " MB exceeds quota " +
                 fmt_double(row.quota.provision_cap_mb) + " MB");
    }
  }
  // Residents charged to a tenant the ledger should track but has no row
  // for mean a charge was dropped.
  for (const auto& [tenant, mb] : observed) {
    if (ledger.tracks(tenant) && mb > eps) {
      report(cluster, "tenant-accounting",
             "tenant " + std::to_string(tenant) + " holds " + fmt_double(mb) +
                 " MB of residents but has no ledger row");
    }
  }
}

void InvariantChecker::on_tick_end(const cluster::Cluster& cluster) {
  ++checks_;
  check_time(cluster);
  check_devices(cluster);
  check_pods(cluster);
  check_power_cap(cluster);
  check_tenants(cluster);
}

}  // namespace knots::verify
