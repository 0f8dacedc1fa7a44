// Structured event tracer for one simulation run.
//
// A TraceSink records typed instants (pod lifecycle edges, scheduler
// decisions with their chosen-GPU rationale, fault transitions, telemetry
// scrapes) as compact POD records plus an interned string table. The sink is
// single-writer by construction — each simulated cluster owns at most one,
// and a run is single-threaded — so recording is a bounds-checked vector
// push, no locks. Parallel sweeps attach one sink per run.
//
// Two exporters ship with it:
//  * export_chrome_trace — Chrome `about:tracing` / Perfetto JSON. Pod
//    lifecycle instants are additionally paired into duration slices
//    (pending → starting → running per pod, outage windows per node), so a
//    CBP placement or an eviction cascade can be read event-by-event on a
//    timeline.
//  * export_binary — a compact little-endian binary form with a round-trip
//    loader (import_binary), for traces too big to keep as JSON.
//
// Recording never feeds back into the simulation: a traced run's decision
// sequence — and therefore its verify::RunDigest — is bit-identical to the
// untraced run.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace knots::obs {

/// Every event kind a run can record. Pod/GPU/node operands ride in the
/// generic `a`/`b` fields; see the per-kind comments for their meaning.
enum class EventKind : std::uint8_t {
  kSubmit = 0,     ///< Pod entered the pending queue.        a = pod.
  kPlace,          ///< Scheduler bound pod to GPU.           a = pod, b = gpu, value = provisioned MB.
  kStart,          ///< Container finished starting, runs.    a = pod, b = gpu.
  kComplete,       ///< Pod executed its full profile.        a = pod, value = progress.
  kCrash,          ///< Capacity violation evicted the pod.   a = pod.
  kRequeue,        ///< Crashed/evicted pod re-entered queue. a = pod.
  kEvict,          ///< Node death evicted the pod.           a = pod, b = node.
  kResize,         ///< Container allocation resized.         a = pod, value = provisioned MB.
  kPark,           ///< Idle GPU parked into deep sleep.      a = gpu.
  kNodeDown,       ///< Worker node crashed.                  a = node.
  kNodeUp,         ///< Worker node recovered.                a = node.
  kFaultInject,    ///< Fault plan event applied.             a = node, value = severity, detail = kind.
  kFaultRecover,   ///< Fault effect ended.                   a = node, detail = kind.
  kScrape,         ///< Telemetry heartbeat round.            value = nodes sampled.
  kDecision,       ///< Scheduler rationale.                  a = pod, b = gpu (-1 = none), detail = rationale.
  // -- knots::serve (open-loop request serving) --
  kRequestArrive,  ///< Request entered the front door.       a = request, b = service.
  kRequestShed,    ///< Admission control rejected it.        a = request, b = service.
  kRequestExpire,  ///< Dropped at dispatch, deadline passed. a = request, b = service.
  kBatchDispatch,  ///< Dynamic batch sent to a replica.      a = replica pod, b = service, value = batch size.
  kRequestDone,    ///< Request served.                       a = request, b = service, value = latency ms.
  kScaleUp,        ///< Autoscaler launched a replica.        a = replica pod, b = service.
  kScaleDown,      ///< Autoscaler retired a replica.         a = replica pod, b = service.
  // -- knots::net (fabric flows and link state) --
  kFlowStart,      ///< Fabric flow began.                    a = flow, b = dst node (-1 = registry src), value = MB.
  kFlowFinish,     ///< Fabric flow delivered its last byte.  a = flow, b = contended (0/1).
  kLinkDown,       ///< Fabric link lost capacity.            a = link.
  kLinkUp,         ///< Fabric link restored.                 a = link.
};
inline constexpr std::size_t kEventKindCount = 26;

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// One recorded event. `detail` indexes the sink's string table (0 = none).
struct TraceEvent {
  SimTime ts = 0;
  EventKind kind{};
  std::int32_t a = -1;
  std::int32_t b = -1;
  double value = 0.0;
  std::uint32_t detail = 0;

  bool operator==(const TraceEvent&) const = default;
};

class TraceSink {
 public:
  TraceSink();

  /// Appends one event. `detail` is interned (empty → index 0).
  void record(SimTime ts, EventKind kind, std::int32_t a = -1,
              std::int32_t b = -1, double value = 0.0,
              std::string_view detail = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  /// Events recorded of one kind (cheap per-kind tally).
  [[nodiscard]] std::uint64_t count(EventKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)];
  }

  /// Interns a detail string, returning its stable index.
  std::uint32_t intern(std::string_view s);
  /// The string behind a detail index ("" for 0 / out-of-range).
  [[nodiscard]] const std::string& detail(std::uint32_t index) const noexcept;
  [[nodiscard]] const std::vector<std::string>& strings() const noexcept {
    return strings_;
  }

  void clear();

  /// Chrome about:tracing JSON ({"traceEvents":[...]}) with derived
  /// lifecycle slices. Load via chrome://tracing or ui.perfetto.dev.
  void export_chrome_trace(std::ostream& os) const;

  /// Compact little-endian binary form (magic "KNOBTRC1").
  void export_binary(std::ostream& os) const;
  /// Round-trip loader; throws std::runtime_error on a malformed or
  /// truncated stream. Memory grows with the bytes actually read, never
  /// with the counts the header claims.
  [[nodiscard]] static TraceSink import_binary(std::istream& is);

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::string> strings_;   ///< strings_[0] is always "".
  /// Owning keys (duplicated storage; detail strings are short): string_view
  /// keys into strings_ would dangle when the vector reallocates SSO strings.
  std::unordered_map<std::string, std::uint32_t> intern_index_;
  std::array<std::uint64_t, kEventKindCount> counts_{};
};

}  // namespace knots::obs
