// Node-local time-series database — the InfluxDB surrogate.
//
// One instance lives on each worker node; the head-node aggregator queries it
// per heartbeat (Fig 5). Series are bounded ring buffers: Influx retention
// policies map to a fixed per-series sample capacity.
//
// Since PR 2 the query side is built for the scheduler tick loop:
//  * window_view() hands out a zero-copy WindowView (at most two spans over
//    the ring) instead of materializing a vector per (GPU, metric, tick);
//  * window_stats() percentile aggregates are cached per write generation —
//    repeated queries within one tick sort the window once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/page_arena.hpp"
#include "core/ring_buffer.hpp"
#include "core/types.hpp"
#include "telemetry/metric.hpp"

namespace knots::telemetry {

/// Zero-copy view of one series window: the retained samples with
/// time >= since, as at most two contiguous spans (the ring may wrap).
/// Invalidated by the next write() to the same series.
struct WindowView {
  std::span<const Sample> first;
  std::span<const Sample> second;

  [[nodiscard]] std::size_t size() const noexcept {
    return first.size() + second.size();
  }
  [[nodiscard]] bool empty() const noexcept {
    return first.empty() && second.empty();
  }
  /// Sample `i` counted oldest-first.
  [[nodiscard]] const Sample& operator[](std::size_t i) const noexcept {
    return i < first.size() ? first[i] : second[i - first.size()];
  }
  /// Appends the window's values (oldest-first) to `out` without clearing.
  void append_values_to(std::vector<double>& out) const {
    out.reserve(out.size() + size());
    for (const Sample& s : first) out.push_back(s.value);
    for (const Sample& s : second) out.push_back(s.value);
  }
};

/// Per-window aggregate served from the per-tick cache.
struct WindowAggregate {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class TimeSeriesDb {
 private:
  struct Series;

 public:
  /// `retention` = max samples kept per (gpu, metric) series.
  /// `arena` (optional, not owned, must outlive the db) backs the ring
  /// buffers — the cluster shares one huge-page arena across all node dbs
  /// so a datacenter's rings pack contiguously instead of thrashing the
  /// TLB; null keeps the global heap.
  explicit TimeSeriesDb(std::size_t retention = 65536,
                        core::PageArena* arena = nullptr)
      : retention_(retention),
        arena_(arena),
        series_(SeriesAlloc(arena)) {}

  /// Appends one observation.
  void write(GpuId gpu, Metric metric, Sample sample);

  /// Stable handle to one series for repeated writes. The map is
  /// node-based, so the handle survives rehashes and stays valid for the
  /// db's lifetime (series are never erased). Opening creates the (empty)
  /// series if it does not exist yet.
  class SeriesHandle {
   public:
    SeriesHandle() = default;

   private:
    friend class TimeSeriesDb;
    explicit SeriesHandle(Series* s) : series_(s) {}
    Series* series_ = nullptr;
  };
  [[nodiscard]] SeriesHandle open_series(GpuId gpu, Metric metric);

  /// write() without the per-call hash lookup — the heartbeat hot path
  /// (every sampler writes one series per GPU per tick).
  void write(SeriesHandle handle, Sample sample);

  /// Warms the handle's next write slot (the rings of a datacenter-scale
  /// run exceed cache; issuing the prefetch before the jitter math hides
  /// the miss behind the FP work).
  void prefetch_write(SeriesHandle handle) const noexcept;

  /// latest()/latest_time() through a pre-opened handle (aggregator
  /// refresh path).
  [[nodiscard]] double latest(SeriesHandle handle,
                              double fallback = 0.0) const noexcept;
  [[nodiscard]] SimTime latest_time(SeriesHandle handle) const noexcept;

  /// Read-only handle for consumers holding a const db (the aggregator):
  /// same stability guarantee as SeriesHandle, null when the series does
  /// not exist yet.
  class ConstSeriesHandle {
   public:
    ConstSeriesHandle() = default;
    [[nodiscard]] explicit operator bool() const noexcept {
      return series_ != nullptr;
    }

   private:
    friend class TimeSeriesDb;
    explicit ConstSeriesHandle(const Series* s) : series_(s) {}
    const Series* series_ = nullptr;
  };
  [[nodiscard]] ConstSeriesHandle find_series(GpuId gpu,
                                              Metric metric) const noexcept {
    return ConstSeriesHandle{find(gpu, metric)};
  }
  [[nodiscard]] double latest(ConstSeriesHandle handle,
                              double fallback = 0.0) const noexcept;
  [[nodiscard]] SimTime latest_time(ConstSeriesHandle handle) const noexcept;

  /// Zero-copy window: samples (oldest-first) with time >= since.
  [[nodiscard]] WindowView window_view(GpuId gpu, Metric metric,
                                       SimTime since) const;

  /// Values (oldest-first) with time >= since. Empty when none.
  /// Allocates; prefer window_view() on the tick path.
  [[nodiscard]] std::vector<double> query_window(GpuId gpu, Metric metric,
                                                 SimTime since) const;

  /// Aggregate over the window with time >= since. Cached: repeated calls
  /// between writes to the series reuse one sorted pass. Zero-count
  /// aggregate when the window is empty.
  [[nodiscard]] const WindowAggregate& window_stats(GpuId gpu, Metric metric,
                                                    SimTime since) const;

  /// Full retained samples (oldest-first) for a series.
  [[nodiscard]] std::vector<Sample> query_all(GpuId gpu, Metric metric) const;

  /// Most recent value, or fallback when the series is empty.
  [[nodiscard]] double latest(GpuId gpu, Metric metric,
                              double fallback = 0.0) const;

  /// Timestamp of the most recent sample, or -1 when the series is empty
  /// (what the aggregator's staleness rule compares against `now`).
  [[nodiscard]] SimTime latest_time(GpuId gpu, Metric metric) const;

  /// Monotonic per-series write counter (0 for unknown series); bumping it
  /// is what invalidates the window_stats cache.
  [[nodiscard]] std::uint64_t generation(GpuId gpu, Metric metric) const;

  [[nodiscard]] std::size_t series_count() const noexcept {
    return series_.size();
  }
  [[nodiscard]] std::size_t total_samples() const noexcept {
    return total_samples_;
  }

  struct Key {
    std::int32_t gpu;
    int metric;
    bool operator==(const Key&) const = default;
  };
  /// splitmix64 over the packed key: full 64-bit avalanche, no collisions
  /// for metric ids >= 256 (the old `(gpu << 8) | metric` packing aliased
  /// those onto neighbouring GPUs).
  struct KeyHash {
    static constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    }
    std::size_t operator()(const Key& k) const noexcept {
      const auto packed =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.gpu))
           << 32) |
          static_cast<std::uint32_t>(k.metric);
      return static_cast<std::size_t>(splitmix64(packed));
    }
  };

 private:
  friend class SeriesHandle;

  struct Series {
    explicit Series(std::size_t retention, core::PageArena* arena)
        : buf(retention, core::ArenaAllocator<Sample>(arena)) {}
    RingBuffer<Sample, core::ArenaAllocator<Sample>> buf;
    std::uint64_t generation = 0;
    // window_stats cache: valid while (generation, since) match.
    mutable WindowAggregate agg_cache;
    mutable std::uint64_t agg_generation = 0;  ///< 0 = never computed.
    mutable SimTime agg_since = 0;
    mutable std::vector<double> sort_scratch;
  };

  using SampleRing = RingBuffer<Sample, core::ArenaAllocator<Sample>>;

  [[nodiscard]] const Series* find(GpuId gpu, Metric metric) const;
  /// Logical index of the first sample with time >= since.
  static std::size_t lower_bound_time(const SampleRing& buf, SimTime since);

  std::size_t retention_;
  core::PageArena* arena_ = nullptr;  ///< not owned; null = global heap
  /// Map nodes come from the same arena as the rings: the scrape touches
  /// every series' head metadata each tick, and packing the nodes beats
  /// scattering them across the heap. Series are never erased, so the
  /// bump-only arena fits; a rehash strands only the old bucket array.
  using SeriesAlloc = core::ArenaAllocator<std::pair<const Key, Series>>;
  std::unordered_map<Key, Series, KeyHash, std::equal_to<Key>, SeriesAlloc>
      series_;
  std::size_t total_samples_ = 0;
};

inline void TimeSeriesDb::write(SeriesHandle handle, Sample sample) {
  Series& s = *handle.series_;
  s.buf.push(sample);
  ++s.generation;
  ++total_samples_;
}

inline void TimeSeriesDb::prefetch_write(SeriesHandle handle) const noexcept {
  handle.series_->buf.prefetch_write_slot();
}

inline double TimeSeriesDb::latest(SeriesHandle handle,
                                   double fallback) const noexcept {
  const Series& s = *handle.series_;
  return s.buf.empty() ? fallback : s.buf.back().value;
}

inline SimTime TimeSeriesDb::latest_time(SeriesHandle handle) const noexcept {
  const Series& s = *handle.series_;
  return s.buf.empty() ? SimTime{-1} : s.buf.back().time;
}

inline double TimeSeriesDb::latest(ConstSeriesHandle handle,
                                   double fallback) const noexcept {
  const Series& s = *handle.series_;
  return s.buf.empty() ? fallback : s.buf.back().value;
}

inline SimTime TimeSeriesDb::latest_time(
    ConstSeriesHandle handle) const noexcept {
  const Series& s = *handle.series_;
  return s.buf.empty() ? SimTime{-1} : s.buf.back().time;
}

}  // namespace knots::telemetry
