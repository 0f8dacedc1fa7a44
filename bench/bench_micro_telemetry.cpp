// Telemetry hot-path microbenchmarks + end-to-end sweep throughput.
//
// This is the perf trajectory recorder for the PR-2 optimisation work: it
// times the telemetry→scheduler primitives both the *naive* way (the
// pre-optimisation recompute-per-query code shape: vector materialization,
// copy + full sort per percentile) and the *fast* way (zero-copy views,
// write-maintained rolling accumulators, per-tick aggregate caches), counts
// heap allocations via a replaced operator new, and finishes with the
// 10-node four-scheduler sweep measured in ticks/sec.
//
//   bench_micro_telemetry --json BENCH_perf.json   # machine-readable output
//   bench_micro_telemetry --fast                   # CI smoke sizing
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_common.hpp"
#include "core/percentile.hpp"
#include "core/rng.hpp"
#include "stats/rolling.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/timeseries_db.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Allocation observability: every heap allocation in this binary bumps the
// counter, so each benchmark can report allocs/op alongside ns/op.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace knots;

struct Measurement {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

/// Times `op` over `iters` iterations and reports ns/op + allocs/op.
template <typename F>
Measurement measure(std::size_t iters, F&& op) {
  // Warmup lets scratch buffers and caches reach steady state — the
  // steady-state allocation count is the claim being verified.
  for (std::size_t i = 0; i < std::min<std::size_t>(iters, 100); ++i) op(i);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) op(i);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  Measurement m;
  m.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(iters);
  m.allocs_per_op = static_cast<double>(allocs1 - allocs0) /
                    static_cast<double>(iters);
  return m;
}

std::vector<std::pair<std::string, double>> as_metrics(const Measurement& m) {
  return {{"ns_per_op", m.ns_per_op}, {"allocs_per_op", m.allocs_per_op}};
}

constexpr std::size_t kWindow = 512;  ///< Samples per scheduler window.

telemetry::TimeSeriesDb prefilled_db(std::size_t samples) {
  telemetry::TimeSeriesDb db;
  Rng rng(7);
  for (std::size_t t = 0; t < samples; ++t) {
    db.write(GpuId{0}, telemetry::Metric::kMemUtil,
             {static_cast<SimTime>(t), rng.uniform()});
  }
  return db;
}

/// The pre-PR2 query shape: materialize the window into a fresh vector,
/// then one copy + full sort per percentile.
double naive_window_percentiles(const telemetry::TimeSeriesDb& db,
                                SimTime since) {
  const auto window =
      db.query_window(GpuId{0}, telemetry::Metric::kMemUtil, since);
  auto copy_a = window;
  std::sort(copy_a.begin(), copy_a.end());
  const double p50 = percentile_sorted(copy_a, 50.0);
  auto copy_b = window;
  std::sort(copy_b.begin(), copy_b.end());
  const double p99 = percentile_sorted(copy_b, 99.0);
  return p50 + p99;
}

void bench_telemetry_micro(bench::Session& session, std::size_t iters) {
  // -- Ingest --
  {
    telemetry::TimeSeriesDb db;
    SimTime t = 0;
    const auto m = measure(iters, [&](std::size_t) {
      db.write(GpuId{0}, telemetry::Metric::kSmUtil, {t++, 0.5});
    });
    session.record("tsdb_ingest", as_metrics(m));
  }

  // -- Window materialization: vector query vs zero-copy view --
  {
    const auto db = prefilled_db(4 * kWindow);
    const auto since = static_cast<SimTime>(3 * kWindow);
    double sink = 0;
    const auto vec = measure(iters, [&](std::size_t) {
      sink += db.query_window(GpuId{0}, telemetry::Metric::kMemUtil, since)
                  .size();
    });
    const auto view = measure(iters, [&](std::size_t) {
      sink += db.window_view(GpuId{0}, telemetry::Metric::kMemUtil, since)
                  .size();
    });
    if (sink < 0) std::cout << sink;  // defeat dead-code elimination
    session.record("window_query_vector", as_metrics(vec));
    session.record("window_query_view", as_metrics(view));
  }

  // -- The headline: per-tick window percentiles, naive vs incremental --
  // Op = ingest one sample, then read the window's p50 and p99 (what a
  // utilization-aware scheduler does per GPU per tick).
  double naive_ns = 0, fast_ns = 0;
  {
    telemetry::TimeSeriesDb db = prefilled_db(kWindow);
    SimTime t = kWindow;
    double sink = 0;
    const auto m = measure(iters, [&](std::size_t) {
      db.write(GpuId{0}, telemetry::Metric::kMemUtil,
               {t, 0.25 + 0.5 * static_cast<double>(t % 7) / 7.0});
      sink += naive_window_percentiles(db, t - static_cast<SimTime>(kWindow));
      ++t;
    });
    if (sink < 0) std::cout << sink;
    naive_ns = m.ns_per_op;
    session.record("window_percentile_naive", as_metrics(m));
  }
  {
    stats::RollingQuantile q(kWindow);
    Rng rng(7);
    for (std::size_t i = 0; i < kWindow; ++i) q.push(rng.uniform());
    SimTime t = kWindow;
    double sink = 0;
    const auto m = measure(iters, [&](std::size_t) {
      q.push(0.25 + 0.5 * static_cast<double>(t % 7) / 7.0);
      sink += q.quantile(50.0) + q.quantile(99.0);
      ++t;
    });
    if (sink < 0) std::cout << sink;
    fast_ns = m.ns_per_op;
    session.record("window_percentile_incremental", as_metrics(m));
  }
  {
    // Cached aggregate: queries between writes hit the per-tick cache.
    auto db = prefilled_db(4 * kWindow);
    const auto since = static_cast<SimTime>(3 * kWindow);
    double sink = 0;
    const auto m = measure(iters, [&](std::size_t) {
      const auto& agg =
          db.window_stats(GpuId{0}, telemetry::Metric::kMemUtil, since);
      sink += agg.p50 + agg.p99;
    });
    if (sink < 0) std::cout << sink;
    session.record("window_stats_cached", as_metrics(m));
  }
  const double speedup = fast_ns > 0 ? naive_ns / fast_ns : 0.0;
  session.record("window_percentile_speedup", {{"x", speedup}});
  std::cout << "window percentile (W=" << kWindow << "): naive "
            << fmt(naive_ns, 0) << " ns/op, incremental " << fmt(fast_ns, 0)
            << " ns/op -> " << fmt(speedup, 1) << "x\n";

  // -- Single-percentile selection vs full sort --
  {
    Rng rng(11);
    std::vector<double> data(4096);
    for (auto& v : data) v = rng.uniform();
    double sink = 0;
    const auto select = measure(iters, [&](std::size_t) {
      sink += percentile(data, 99.0);
    });
    const auto fullsort = measure(iters, [&](std::size_t) {
      auto copy = data;
      std::sort(copy.begin(), copy.end());
      sink += percentile_sorted(copy, 99.0);
    });
    if (sink < 0) std::cout << sink;
    session.record("percentile_select_4096", as_metrics(select));
    session.record("percentile_fullsort_4096", as_metrics(fullsort));
  }
}

void bench_sweep_e2e(bench::Session& session, bool fast) {
  const std::vector<sched::SchedulerKind> kinds = {
      sched::SchedulerKind::kUniform,
      sched::SchedulerKind::kResourceAgnostic, sched::SchedulerKind::kCbp,
      sched::SchedulerKind::kPeakPrediction};
  ExperimentConfig base = bench::bench_config(1, kinds[0]);
  base.workload.duration = (fast ? 30 : 120) * kSec;
  SweepGrid grid;
  grid.schedulers = kinds;
  grid.seeds = {42, 43};
  grid.load_scales = {1.0};

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = run_sweep(base, grid);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t ticks = 0;
  for (const auto& r : results) ticks += r.report.ticks;
  const double ticks_per_sec = static_cast<double>(ticks) / wall;
  session.record("e2e_sweep_10node",
                 {{"runs", static_cast<double>(results.size())},
                  {"ticks", static_cast<double>(ticks)},
                  {"wall_seconds", wall},
                  {"ticks_per_sec", ticks_per_sec},
                  {"ns_per_tick", 1e9 * wall / static_cast<double>(ticks)}});
  std::cout << "e2e sweep: " << results.size() << " runs, " << ticks
            << " ticks in " << fmt(wall, 2) << " s -> "
            << fmt(ticks_per_sec, 0) << " ticks/sec\n";
}

}  // namespace

int main(int argc, char** argv) {
  knots::bench::Session session(argc, argv, "micro_telemetry");
  const std::size_t iters = session.fast() ? 2000 : 20000;
  bench_telemetry_micro(session, iters);
  bench_sweep_e2e(session, session.fast());
  return 0;
}
