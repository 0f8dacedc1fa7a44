#include "telemetry/timeseries_db.hpp"

#include <algorithm>

#include "core/percentile.hpp"

namespace knots::telemetry {

void TimeSeriesDb::write(GpuId gpu, Metric metric, Sample sample) {
  const Key key{gpu.value, static_cast<int>(metric)};
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series(retention_, arena_)).first;
  }
  Series& s = it->second;
  s.buf.push(sample);
  ++s.generation;
  ++total_samples_;
}

TimeSeriesDb::SeriesHandle TimeSeriesDb::open_series(GpuId gpu,
                                                     Metric metric) {
  const Key key{gpu.value, static_cast<int>(metric)};
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series(retention_, arena_)).first;
  }
  return SeriesHandle{&it->second};
}

const TimeSeriesDb::Series* TimeSeriesDb::find(GpuId gpu,
                                               Metric metric) const {
  const Key key{gpu.value, static_cast<int>(metric)};
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::size_t TimeSeriesDb::lower_bound_time(const SampleRing& buf,
                                           SimTime since) {
  // Samples are time-ordered; binary-search the window start.
  std::size_t lo = 0, hi = buf.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (buf.at(mid).time < since) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

WindowView TimeSeriesDb::window_view(GpuId gpu, Metric metric,
                                     SimTime since) const {
  const Series* s = find(gpu, metric);
  if (s == nullptr) return {};
  const auto [first, second] =
      s->buf.segments(lower_bound_time(s->buf, since));
  return WindowView{first, second};
}

std::vector<double> TimeSeriesDb::query_window(GpuId gpu, Metric metric,
                                               SimTime since) const {
  std::vector<double> out;
  window_view(gpu, metric, since).append_values_to(out);
  return out;
}

const WindowAggregate& TimeSeriesDb::window_stats(GpuId gpu, Metric metric,
                                                  SimTime since) const {
  static const WindowAggregate kEmpty{};
  const Series* s = find(gpu, metric);
  if (s == nullptr) return kEmpty;
  if (s->agg_generation == s->generation && s->agg_since == since) {
    return s->agg_cache;  // No write since the last identical query.
  }
  const WindowView view = window_view(gpu, metric, since);
  WindowAggregate agg;
  agg.count = view.size();
  if (agg.count > 0) {
    auto& scratch = s->sort_scratch;
    scratch.clear();
    view.append_values_to(scratch);
    std::sort(scratch.begin(), scratch.end());
    double sum = 0.0;
    for (double v : scratch) sum += v;
    agg.mean = sum / static_cast<double>(agg.count);
    agg.min = scratch.front();
    agg.max = scratch.back();
    agg.p50 = percentile_sorted(scratch, 50.0);
    agg.p95 = percentile_sorted(scratch, 95.0);
    agg.p99 = percentile_sorted(scratch, 99.0);
  }
  s->agg_cache = agg;
  s->agg_generation = s->generation;
  s->agg_since = since;
  return s->agg_cache;
}

std::vector<Sample> TimeSeriesDb::query_all(GpuId gpu, Metric metric) const {
  std::vector<Sample> out;
  const Series* s = find(gpu, metric);
  if (s == nullptr) return out;
  const auto [first, second] = s->buf.segments();
  out.reserve(first.size() + second.size());
  out.insert(out.end(), first.begin(), first.end());
  out.insert(out.end(), second.begin(), second.end());
  return out;
}

double TimeSeriesDb::latest(GpuId gpu, Metric metric, double fallback) const {
  const Series* s = find(gpu, metric);
  if (s == nullptr || s->buf.empty()) return fallback;
  return s->buf.back().value;
}

SimTime TimeSeriesDb::latest_time(GpuId gpu, Metric metric) const {
  const Series* s = find(gpu, metric);
  if (s == nullptr || s->buf.empty()) return -1;
  return s->buf.back().time;
}

std::uint64_t TimeSeriesDb::generation(GpuId gpu, Metric metric) const {
  const Series* s = find(gpu, metric);
  return s == nullptr ? 0 : s->generation;
}

}  // namespace knots::telemetry
