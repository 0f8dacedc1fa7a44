// Benchmark harness: the four workloads, the host-side measurements of one
// run, and the benchmark-owned spans that split a traced run by layer.
//
// Nothing here changes what the simulator does. Untraced pod runs go through
// the KubeKnots facade; serving and DL runs repeat the wiring of run_serving
// and run_dl_simulation so that set-up is timed apart from the run. Traced
// runs add forwarding wrappers (scheduler, observers, DL policy) that time
// each call into a layer and pass it on unchanged. run_selftests checks that
// every variant reproduces the public entry point's digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// kSetupOnly builds the run and stops before the first tick: the cheap
/// way to take several set-up samples in one benchmark run.
enum class Mode { kUntraced, kTraced, kSetupOnly };

/// One named quantity with its unit, as printed in the run record.
struct Value {
  double value = 0;
  std::string unit;
};

/// One span: a timed call into a layer, recorded by the benchmark's own
/// wrappers. Times are nanoseconds since the run's trace epoch.
struct Span {
  std::uint32_t name = 0;  ///< Index into Tracer::names().
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder with a parent stack. Spans are written out only
/// when the run ends (write_csv), so the hot path is two clock reads and a
/// vector append.
class Tracer {
 public:
  explicit Tracer(std::string run_id);
  Tracer(const Tracer&) = delete;  // wrappers hold its address
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a layer name; call before the run, not on the hot path.
  std::uint32_t intern(const std::string& name);
  /// Opens a span under the innermost open span; returns its index.
  std::int32_t open(std::uint32_t name);
  /// Closes the innermost open span (must be `index`).
  void close(std::int32_t index);

  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  /// Innermost open span's name, or -1 when none is open.
  [[nodiscard]] std::int64_t open_name() const;

  /// Seconds spent in spans of `name`, and the part of that covered by
  /// their direct children (self time = total - children).
  [[nodiscard]] double total_s(std::uint32_t name) const;
  [[nodiscard]] double child_s(std::uint32_t name) const;

  /// Writes "run,id,parent,name,start_ns,end_ns" rows.
  bool write_csv(const std::string& path) const;

 private:
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Everything one process measured for one run of one workload.
struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  Mode mode = Mode::kUntraced;

  double setup_s = 0;      ///< Host seconds before the first simulated tick.
  double run_wall_s = 0;   ///< Host seconds from the first tick to the report.
  double peak_rss_mb = 0;  ///< Filled by the caller at process end.

  std::string digest;        ///< Hex run digest (plus serve digest on serve).
  std::uint64_t invariant_violations = 0;
  std::uint64_t unfinished = 0;  ///< Pods/jobs/requests open at the deadline.

  /// Raw operation counts the failure accounting reads (run.py).
  std::map<std::string, double> ops;
  /// Simulated outcomes (cluster utilisation, power, JCT).
  std::map<std::string, Value> outcomes;
  /// Per-layer metrics (traced runs only; run.py adds the names a workload
  /// does not exercise, as 0).
  std::map<std::string, Value> layer;
};

/// Runs one workload once in this process. `spans_path` (traced runs) is
/// where the recorded spans are written after the run; empty = not written.
RunRecord run_workload(const std::string& workload, std::uint64_t seed,
                       Mode mode, const std::string& spans_path);

/// Self-tests of the harness itself; prints one line per check and returns
/// the number of failures.
int run_selftests();

}  // namespace perfbench
