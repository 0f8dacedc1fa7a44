#include "verify/pod_state_scan.hpp"

namespace knots::verify {

namespace {

std::string pod_tag(std::size_t index) {
  return "pod " + std::to_string(static_cast<std::int32_t>(index));
}

/// Transitions observable between two consecutive tick-end audits. These
/// are the closures of the single-step transitions in pod.hpp over one
/// tick: e.g. a crashed pod can requeue *and* be re-placed within one tick,
/// so Crashed → Starting is observable even though the state machine only
/// allows Crashed → Pending → Starting.
bool observable_transition(cluster::PodState from,
                           cluster::PodState to) noexcept {
  using S = cluster::PodState;
  if (from == to) return true;
  switch (from) {
    case S::kPending:
      return to == S::kStarting;
    case S::kStarting:
      return to == S::kRunning || to == S::kCrashed || to == S::kEvicted;
    case S::kRunning:
      return to == S::kCompleted || to == S::kCrashed || to == S::kEvicted;
    case S::kCrashed:
      return to == S::kPending || to == S::kStarting;
    case S::kEvicted:
      return to == S::kPending || to == S::kStarting;
    case S::kCompleted:
      return false;  // Terminal.
  }
  return false;
}

}  // namespace

void audit_pod_table(PodStateScan& scan, std::span<const std::uint8_t> table,
                     std::size_t completed_count,
                     const PodTableReport& report,
                     const PodAuditRequest& audit_pod) {
  using S = cluster::PodState;
  scan.scan(table, [&](std::size_t i, std::uint8_t prev, std::uint8_t cur) {
    if (cur >= kPodStateCount) {
      report("pod-state-table", pod_tag(i) + " packed state " +
                                    std::to_string(cur) + " out of range");
      return;
    }
    if (cur != prev &&
        !observable_transition(static_cast<S>(prev), static_cast<S>(cur))) {
      report("pod-transition",
             pod_tag(i) + " illegal transition " +
                 std::string(to_string(static_cast<S>(prev))) + " -> " +
                 std::string(to_string(static_cast<S>(cur))));
    }
    // An in-range byte is only visited when it changed or is live.
    audit_pod(i, cur);
  });

  // Conservation: every submitted pod is in exactly one lifecycle state,
  // and the cluster's completion counter matches the terminal population.
  const auto& by_state = scan.histogram();
  std::size_t total = 0;
  for (std::size_t c : by_state) total += c;
  if (total != table.size()) {
    report("pod-conservation",
           "state counts sum to " + std::to_string(total) + " but " +
               std::to_string(table.size()) + " pods were submitted");
  }
  const std::size_t completed =
      by_state[static_cast<std::size_t>(S::kCompleted)];
  if (completed != completed_count) {
    report("pod-conservation",
           "completed counter " + std::to_string(completed_count) +
               " != terminal pods " + std::to_string(completed));
  }
}

}  // namespace knots::verify
