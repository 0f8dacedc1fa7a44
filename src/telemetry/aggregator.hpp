// Head-node utilization aggregator (Fig 5).
//
// Queries each worker node's TimeSeriesDb and presents schedulers with a
// cluster-wide view: latest per-GPU utilization, windowed series (the
// time-series window `d` of §IV-C), and nodes sorted by free memory
// (Algorithm 1's Sort_by_Free_Memory).
//
// The read API is tick-loop friendly: GPU lookup is O(1) via an index built
// at registration, windows can be filled into caller-owned scratch buffers
// or read zero-copy, and the sorted-by-free-memory list is hierarchical —
// entries are partitioned into lanes (the cluster's node shards), each lane
// maintains its own sorted run of {free-memory, slot} keys, and a query
// k-way merges the runs instead of re-sorting the whole cluster. Runs are
// dirty-tracked: a lane re-sorts only when its databases actually appended
// samples or a device's usable capacity moved (ECC retirement). The cluster
// refreshes each lane's run from its lane-parallel telemetry phase
// (refresh_lane), so by the time a scheduler asks, the merge is all that is
// left. Both the series refresh and the run maintenance are demand-driven:
// policies that never query (Res-Ag, Uniform) never pay for either.
//
// Query methods are not thread-safe; refresh_lane is safe to call from
// concurrent lanes because every mutable structure it touches is partitioned
// by lane. Each simulated cluster owns one aggregator.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "gpu/gpu_node.hpp"
#include "obs/metrics.hpp"
#include "telemetry/timeseries_db.hpp"

namespace knots::telemetry {

/// Latest known state of one GPU, as seen through telemetry.
struct GpuView {
  NodeId node;
  GpuId gpu;
  double mem_util = 0.0;       ///< Latest sampled memory utilization [0,1].
  double mem_used_mb = 0.0;
  double free_mem_mb = 0.0;    ///< usable capacity − used (telemetry view).
  bool parked = false;
  int residents = 0;
  SimTime last_heartbeat = -1; ///< Time of the newest sample; -1 = never.
  /// True when the series missed enough heartbeats to cross the staleness
  /// horizon — the values above are last-known-good, not current.
  bool stale = false;
  /// Spot capacity: the hosting node may be reclaimed by the provider.
  /// Static per node (from NodeSpec), surfaced here so schedulers can trade
  /// spot capacity for eviction risk per placement.
  bool preemptible = false;

  bool operator==(const GpuView&) const = default;
};

class UtilizationAggregator {
 public:
  /// Registers a worker node and its database. Order defines node index.
  void register_node(const gpu::GpuNode& node, const TimeSeriesDb& db);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Partitions registered entries into `lanes` shards for the hierarchical
  /// sort; `entry_lanes[e]` is the lane owning entry (node) `e`. Values must
  /// be < `lanes`. Without a partition every entry lives in one implicit
  /// lane, which degenerates to the classic full sort.
  void set_lane_partition(std::vector<std::uint32_t> entry_lanes,
                          std::size_t lanes);

  /// Refreshes one lane's series caches and (when a sorted query has ever
  /// been made) rebuilds its sorted run if anything changed. Intended to be
  /// called from the cluster's lane-parallel telemetry phase: all state it
  /// writes is owned by `lane`, so concurrent calls for distinct lanes are
  /// race-free. No-op until the first query creates demand.
  void refresh_lane(std::size_t lane) const;

  // -- Staleness rule (DESIGN.md §7) --
  /// A series is stale when now − last_heartbeat > horizon. Horizon 0
  /// (default) disables the rule; the cluster sets it to
  /// stale_after_heartbeats × tick.
  void set_staleness_horizon(SimTime horizon) noexcept { horizon_ = horizon; }
  /// Advances the aggregator's notion of "now" (called once per cluster
  /// tick, after telemetry lands); snapshots compare heartbeat ages
  /// against it.
  void begin_tick(SimTime now) noexcept { now_ = now; }
  /// Staleness of one GPU's series under the configured horizon.
  [[nodiscard]] bool stale(GpuId gpu) const;

  /// Latest per-GPU snapshot of the whole cluster.
  [[nodiscard]] std::vector<GpuView> snapshot() const;

  /// Fills `out` (cleared first) with the latest per-GPU snapshot without
  /// reallocating once `out` has warmed up to cluster size.
  void snapshot_into(std::vector<GpuView>& out) const;

  /// Snapshot of *active* (non-parked) GPUs sorted by free memory
  /// (descending) — Algorithm 1's node list. The returned reference stays
  /// valid until the next call. Served from cache unless a lane run or a
  /// live device field (parked/residents/capacity) moved since the last
  /// merge; ties resolve by registration slot, exactly like the historical
  /// stable_sort.
  [[nodiscard]] const std::vector<GpuView>& active_sorted_by_free_memory()
      const;

  /// Windowed series for a metric of one GPU: samples with
  /// time >= now − window. Allocates; prefer window_into()/window_view()
  /// on the tick path. Every window query dies (KNOTS_CHECK) on a metric
  /// the heartbeat does not record (kRecordedMetric in sampler.hpp).
  [[nodiscard]] std::vector<double> window(GpuId gpu, Metric metric,
                                           SimTime now, SimTime window) const;

  /// Fills `out` (cleared first) with the windowed series, reusing its
  /// capacity. Leaves `out` empty for unknown GPUs.
  void window_into(GpuId gpu, Metric metric, SimTime now, SimTime window,
                   std::vector<double>& out) const;

  /// Zero-copy windowed series (empty view for unknown GPUs).
  [[nodiscard]] WindowView window_view(GpuId gpu, Metric metric, SimTime now,
                                       SimTime window) const;

  /// Cached window aggregate for one GPU's metric (see
  /// TimeSeriesDb::window_stats). Zero-count aggregate for unknown GPUs.
  [[nodiscard]] const WindowAggregate& window_stats(GpuId gpu, Metric metric,
                                                    SimTime now,
                                                    SimTime window) const;

  /// Profiles each active_sorted_by_free_memory() call (wall time, ns) into
  /// `hist`. Pass nullptr to detach. Observation only.
  void set_sort_profile(obs::Histogram* hist) noexcept {
    sort_profile_ = hist;
  }

  /// Registers a device-mutation epoch: the owner bumps `*epoch` whenever
  /// any registered device's parked/residents/usable-capacity state changes
  /// (placement, completion, park, ECC retirement). While the epoch is
  /// unchanged, queries skip the O(slots) live-bits diff entirely — at
  /// datacenter scale that scan dominates the query cost. Without an epoch
  /// (standalone use) every query diffs, which is always correct.
  void set_live_epoch(const std::uint64_t* epoch) noexcept {
    live_epoch_ = epoch;
  }

 private:
  struct Entry {
    const gpu::GpuNode* node;
    const TimeSeriesDb* db;
    std::size_t first_slot;  ///< Index of this node's first GPU slot.
  };
  /// Latest-value cache for one GPU's recorded series, refreshed only when
  /// its node's database has actually appended samples (total_samples()
  /// moved). Schedulers snapshot once per pending pod but telemetry lands
  /// once per tick — without this, every snapshot pays a hash lookup per
  /// GPU.
  struct CachedSeries {
    double mem_util = 0.0;
    SimTime last_heartbeat = -1;
    /// Direct series handle, resolved on first refresh (the series appears
    /// once the node's sampler opens it); null until then.
    TimeSeriesDb::ConstSeriesHandle h_mem{};
  };
  /// Sort key for Algorithm 1. Keyed (free_mem desc, slot asc): slot order
  /// is registration order, so merged output ties resolve exactly like the
  /// historical stable_sort over the unsorted snapshot did.
  struct SortKey {
    double free_mem_mb;
    std::uint32_t slot;
  };
  /// One lane's sorted run over its *unparked* GPU slots (as of the last
  /// live-bits diff — a park/unpark flip dirties the owning lane, so at
  /// datacenter scale the per-tick sort covers only the active population,
  /// not the parked long tail).
  struct LaneRun {
    std::vector<SortKey> keys;
    /// Keys are out of date (registration, capacity change, or samples
    /// landed while sort demand was off).
    bool dirty = true;
    /// Bumped on every key rebuild; the merge caches the sum across lanes
    /// to detect staleness without a flag lanes would race on.
    std::uint64_t version = 0;
  };
  /// Live per-slot device fields the views depend on but no database stamp
  /// tracks. A cheap pre-merge scan diffs them against the device.
  struct LiveBits {
    double effective_mb = -1.0;
    std::int32_t residents = -1;
    bool parked = false;
  };

  /// Immutable per-slot facts captured at registration, so the merge's
  /// random-order (free-sorted) emission never chases node/device pointers.
  struct SlotStatic {
    GpuId gpu;
    NodeId node;
    double cap = 0.0;  ///< physical memory_mb (spec; ECC-independent)
    bool preemptible = false;  ///< hosting node is spot capacity (spec)
  };

  [[nodiscard]] const Entry* find_gpu(GpuId gpu) const;
  bool refresh_entry(std::size_t entry_idx) const;  ///< true if stamp moved
  void ensure_partition() const;
  void rebuild_lane_keys(std::size_t lane) const;
  [[nodiscard]] GpuView make_view(std::size_t entry_idx,
                                  std::size_t gpu_idx) const;
  /// make_view served entirely from slot_static_/series_cache_/live_bits_.
  /// Valid only after the live-bits diff of the current query (the merge
  /// path) — snapshot paths, which never diff, keep reading devices live.
  [[nodiscard]] GpuView make_view_cached(std::uint32_t slot) const;
  /// Diffs parked/residents/capacity against the last merge; marks lanes
  /// whose sort keys went stale (capacity moved) dirty. Returns true if any
  /// field moved.
  bool live_bits_moved() const;
  void merge_runs() const;

  std::vector<Entry> nodes_;
  std::unordered_map<std::int32_t, std::size_t> gpu_to_entry_;
  /// Owning entry index per GPU slot (inverse of Entry::first_slot spans).
  std::vector<std::uint32_t> slot_entry_;
  std::vector<SlotStatic> slot_static_;  ///< per GPU slot
  SimTime horizon_ = 0;
  SimTime now_ = 0;

  mutable std::vector<std::uint64_t> entry_seen_;  ///< db stamp per entry
  mutable std::vector<CachedSeries> series_cache_;  ///< per GPU slot

  // -- Hierarchical sort state --
  // The partition is mutable because ensure_partition() lazily builds the
  // implicit single-lane layout on first query when no explicit partition
  // was configured.
  mutable std::vector<std::uint32_t> entry_lane_;   ///< lane per entry
  mutable std::vector<std::vector<std::uint32_t>> lane_entries_;
  mutable std::vector<LaneRun> lane_runs_;
  /// Tick at which refresh_lane last refreshed each lane's entries. Samples
  /// land only in the cluster's telemetry phase, so a query at the same
  /// tick can skip re-checking every entry's db stamp.
  mutable std::vector<SimTime> lane_fresh_;
  mutable std::vector<LiveBits> live_bits_;         ///< per GPU slot
  /// Sticky demand flags: set by the first query of each kind, read by
  /// refresh_lane so non-querying policies never pay refresh/sort costs.
  mutable bool refresh_demand_ = false;
  mutable bool sort_demand_ = false;
  // Merged-result cache: valid while lane-run versions, live device bits,
  // and the tick's `now` (staleness flags) are all unchanged.
  mutable std::vector<GpuView> active_sorted_;
  mutable std::uint64_t merged_version_sum_ = ~std::uint64_t{0};
  mutable SimTime merged_now_ = -1;
  mutable bool merged_valid_ = false;
  mutable std::vector<std::size_t> merge_heads_;    ///< scratch
  /// Device-mutation epoch (see set_live_epoch); null = diff every query.
  const std::uint64_t* live_epoch_ = nullptr;
  mutable std::uint64_t live_epoch_seen_ = ~std::uint64_t{0};
  obs::Histogram* sort_profile_ = nullptr;
};

}  // namespace knots::telemetry
