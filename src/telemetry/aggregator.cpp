#include "telemetry/aggregator.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "obs/profile.hpp"
#include "telemetry/sampler.hpp"

namespace knots::telemetry {

namespace {

/// Total order for the hierarchical sort: free memory descending, then
/// registration slot ascending. Because the secondary key is unique, runs
/// sorted with this comparator merge into exactly the sequence the
/// historical global stable_sort produced.
inline bool key_before(double free_a, std::uint32_t slot_a, double free_b,
                       std::uint32_t slot_b) noexcept {
  if (free_a != free_b) return free_a > free_b;
  return slot_a < slot_b;
}

/// Dies unless `metric` is the one the heartbeat records: a window over any
/// other metric would be silently empty.
void check_recorded(Metric metric) {
  KNOTS_CHECK_MSG(metric == kRecordedMetric,
                  "window query on a metric the heartbeat does not record");
}

}  // namespace

void UtilizationAggregator::register_node(const gpu::GpuNode& node,
                                          const TimeSeriesDb& db) {
  const std::size_t entry = nodes_.size();
  nodes_.push_back(Entry{&node, &db, series_cache_.size()});
  for (std::size_t i = 0; i < node.gpu_count(); ++i) {
    gpu_to_entry_.emplace(node.gpu(i).id().value, entry);
    slot_entry_.push_back(static_cast<std::uint32_t>(entry));
    slot_static_.push_back(SlotStatic{
        node.gpu(i).id(), node.id(),
        static_cast<double>(node.gpu(i).spec().memory_mb),
        node.spec().preemptible});
    series_cache_.emplace_back();
    live_bits_.emplace_back();
  }
  // ~0 can never equal a real sample count, so the first snapshot always
  // reads through.
  entry_seen_.push_back(~std::uint64_t{0});
  // Invalidate any existing partition; it no longer covers this entry.
  lane_entries_.clear();
  lane_runs_.clear();
  lane_fresh_.clear();
  merged_valid_ = false;
  // The new slots' live bits are sentinels; force the next query to diff
  // even if the registered epoch has not moved.
  live_epoch_seen_ = ~std::uint64_t{0};
}

void UtilizationAggregator::set_lane_partition(
    std::vector<std::uint32_t> entry_lanes, std::size_t lanes) {
  KNOTS_CHECK(entry_lanes.size() == nodes_.size());
  KNOTS_CHECK(lanes > 0);
  entry_lane_ = std::move(entry_lanes);
  lane_entries_.assign(lanes, {});
  for (std::size_t e = 0; e < entry_lane_.size(); ++e) {
    KNOTS_CHECK(entry_lane_[e] < lanes);
    lane_entries_[entry_lane_[e]].push_back(static_cast<std::uint32_t>(e));
  }
  lane_runs_.assign(lanes, {});
  lane_fresh_.assign(lanes, SimTime{-1});
  merged_valid_ = false;
}

void UtilizationAggregator::ensure_partition() const {
  if (!lane_runs_.empty()) return;
  // No explicit partition: one implicit lane owning every entry. The merge
  // then degenerates to serving that lane's run directly.
  entry_lane_.assign(nodes_.size(), 0);
  lane_entries_.assign(1, {});
  for (std::size_t e = 0; e < nodes_.size(); ++e) {
    lane_entries_[0].push_back(static_cast<std::uint32_t>(e));
  }
  lane_runs_.assign(1, {});
  lane_fresh_.assign(1, SimTime{-1});
}

bool UtilizationAggregator::refresh_entry(std::size_t entry_idx) const {
  const Entry& entry = nodes_[entry_idx];
  const std::uint64_t stamp = entry.db->total_samples();
  if (entry_seen_[entry_idx] == stamp) return false;
  entry_seen_[entry_idx] = stamp;
  for (std::size_t i = 0; i < entry.node->gpu_count(); ++i) {
    CachedSeries& c = series_cache_[entry.first_slot + i];
    if (!c.h_mem) {
      c.h_mem = entry.db->find_series(entry.node->gpu(i).id(),
                                      kRecordedMetric);
      if (!c.h_mem) continue;  // never sampled: keep the empty defaults
    }
    c.mem_util = entry.db->latest(c.h_mem, 0.0);
    c.last_heartbeat = entry.db->latest_time(c.h_mem);
  }
  return true;
}

void UtilizationAggregator::refresh_lane(std::size_t lane) const {
  // Until a query creates demand there is nothing worth prefetching, and
  // before ensure_partition()/set_lane_partition() there are no runs.
  if (!refresh_demand_ || lane >= lane_runs_.size()) return;
  bool changed = false;
  for (const std::uint32_t e : lane_entries_[lane]) {
    changed |= refresh_entry(e);
  }
  lane_fresh_[lane] = now_;
  if (!changed) return;
  LaneRun& run = lane_runs_[lane];
  // With one lane there is no parallelism to exploit, so defer the sort to
  // the query: ticks whose scheduler round has no pending pods then never
  // pay it. Multiple lanes sort here, inside the lane-parallel phase.
  if (sort_demand_ && lane_runs_.size() > 1) {
    rebuild_lane_keys(lane);  // bumps run.version, clears run.dirty
  } else {
    run.dirty = true;
  }
}

void UtilizationAggregator::rebuild_lane_keys(std::size_t lane) const {
  LaneRun& run = lane_runs_[lane];
  run.keys.clear();
  for (const std::uint32_t e : lane_entries_[lane]) {
    const Entry& entry = nodes_[e];
    for (std::size_t i = 0; i < entry.node->gpu_count(); ++i) {
      // Parked GPUs (as of the last live-bits diff — a flip dirties this
      // lane, forcing a rebuild with fresh bits) never appear in the active
      // list, so excluding them here keeps the sort proportional to the
      // active population. Filtering before the merge emits the same
      // sequence as merging everything and filtering after.
      const std::size_t slot = entry.first_slot + i;
      const LiveBits& bits = live_bits_[slot];
      if (bits.parked) continue;
      const CachedSeries& c = series_cache_[slot];
      // NVML reports used/physical; free is bounded by *usable* capacity
      // (physical minus ECC-retired pages). Usable capacity comes from the
      // live-bits diff (an ECC move dirties this lane, so any run the merge
      // consumes was rebuilt after a diff) — no device deref on this path.
      const double free_mb =
          bits.effective_mb - c.mem_util * slot_static_[slot].cap;
      run.keys.push_back(SortKey{free_mb, static_cast<std::uint32_t>(slot)});
    }
  }
  std::sort(run.keys.begin(), run.keys.end(),
            [](const SortKey& a, const SortKey& b) {
              return key_before(a.free_mem_mb, a.slot, b.free_mem_mb, b.slot);
            });
  run.dirty = false;
  ++run.version;
}

GpuView UtilizationAggregator::make_view(std::size_t entry_idx,
                                         std::size_t gpu_idx) const {
  const Entry& entry = nodes_[entry_idx];
  const auto& dev = entry.node->gpu(gpu_idx);
  const CachedSeries& c = series_cache_[entry.first_slot + gpu_idx];
  const double cap = dev.spec().memory_mb;
  GpuView v;
  v.node = entry.node->id();
  v.gpu = dev.id();
  v.mem_util = c.mem_util;
  v.mem_used_mb = c.mem_util * cap;
  v.free_mem_mb = dev.effective_memory_mb() - v.mem_used_mb;
  v.parked = dev.parked();
  v.residents = dev.totals().residents;
  v.last_heartbeat = c.last_heartbeat;
  v.stale = horizon_ > 0 && now_ - c.last_heartbeat > horizon_;
  v.preemptible = entry.node->spec().preemptible;
  return v;
}

GpuView UtilizationAggregator::make_view_cached(std::uint32_t slot) const {
  // The merge visits slots in free-sorted (effectively random) order, so a
  // per-view device deref is a scattered cache miss ×5 — at 10k nodes that
  // is the dominant query cost. Everything a view needs is already resident
  // in three dense, slot-indexed arrays: registration-time facts
  // (slot_static_), the series cache, and the live-bits diff. The diff ran
  // under this query's epoch check, so the bits equal the live device.
  const SlotStatic& st = slot_static_[slot];
  const CachedSeries& c = series_cache_[slot];
  const LiveBits& bits = live_bits_[slot];
  GpuView v;
  v.node = st.node;
  v.gpu = st.gpu;
  v.mem_util = c.mem_util;
  v.mem_used_mb = c.mem_util * st.cap;
  v.free_mem_mb = bits.effective_mb - v.mem_used_mb;
  v.parked = bits.parked;
  v.residents = bits.residents;
  v.last_heartbeat = c.last_heartbeat;
  v.stale = horizon_ > 0 && now_ - c.last_heartbeat > horizon_;
  v.preemptible = st.preemptible;
  return v;
}

void UtilizationAggregator::snapshot_into(std::vector<GpuView>& out) const {
  refresh_demand_ = true;
  out.clear();
  for (std::size_t e = 0; e < nodes_.size(); ++e) {
    // Series values change only when samples land; everything else (parked,
    // residents, ECC-retired capacity) is read live from the device.
    refresh_entry(e);
    const Entry& entry = nodes_[e];
    for (std::size_t i = 0; i < entry.node->gpu_count(); ++i) {
      out.push_back(make_view(e, i));
    }
  }
}

std::vector<GpuView> UtilizationAggregator::snapshot() const {
  std::vector<GpuView> out;
  snapshot_into(out);
  return out;
}

bool UtilizationAggregator::live_bits_moved() const {
  bool moved = false;
  for (std::size_t slot = 0; slot < live_bits_.size(); ++slot) {
    const std::size_t e = slot_entry_[slot];
    const Entry& entry = nodes_[e];
    const auto& dev = entry.node->gpu(slot - entry.first_slot);
    LiveBits& bits = live_bits_[slot];
    const double effective = dev.effective_memory_mb();
    const std::int32_t residents = dev.totals().residents;
    const bool parked = dev.parked();
    if (effective != bits.effective_mb) {
      // Usable capacity feeds the sort key, so the owning lane's run is
      // stale, not just the merged output.
      lane_runs_[entry_lane_[e]].dirty = true;
      bits.effective_mb = effective;
      moved = true;
    }
    if (parked != bits.parked) {
      // Key membership depends on the parked bit, so the owning lane's run
      // must be rebuilt, not just the merged output.
      lane_runs_[entry_lane_[e]].dirty = true;
      bits.parked = parked;
      moved = true;
    }
    if (residents != bits.residents) {
      bits.residents = residents;
      moved = true;
    }
  }
  return moved;
}

const std::vector<GpuView>&
UtilizationAggregator::active_sorted_by_free_memory() const {
  KNOTS_PROF_SCOPE(sort_profile_);
  refresh_demand_ = true;
  sort_demand_ = true;
  ensure_partition();
  // Lanes the cluster's telemetry phase refreshed at this tick are known
  // fresh (samples land only in that phase); anything else re-checks its
  // entries' db stamps.
  for (std::size_t lane = 0; lane < lane_runs_.size(); ++lane) {
    // Only refresh_lane sets the stamp: a standalone caller that writes
    // between two same-tick queries without a telemetry phase must still
    // see its samples, so queries themselves never claim freshness.
    if (lane_fresh_[lane] == now_) continue;
    bool changed = false;
    for (const std::uint32_t e : lane_entries_[lane]) {
      changed |= refresh_entry(e);
    }
    if (changed) lane_runs_[lane].dirty = true;
  }
  // Capacity moves (ECC retirement) and park/unpark flips surface here and
  // dirty their lane. With a registered epoch the O(slots) diff runs only
  // when a device actually mutated since the last query.
  bool live_moved = false;
  if (live_epoch_ == nullptr || *live_epoch_ != live_epoch_seen_) {
    live_moved = live_bits_moved();
    if (live_epoch_ != nullptr) live_epoch_seen_ = *live_epoch_;
  }
  for (std::size_t lane = 0; lane < lane_runs_.size(); ++lane) {
    if (lane_runs_[lane].dirty) rebuild_lane_keys(lane);
  }
  std::uint64_t version_sum = 0;
  for (const LaneRun& run : lane_runs_) version_sum += run.version;
  if (merged_valid_ && !live_moved && version_sum == merged_version_sum_ &&
      merged_now_ == now_) {
    return active_sorted_;
  }
  merge_runs();
  merged_version_sum_ = version_sum;
  merged_now_ = now_;
  merged_valid_ = true;
  return active_sorted_;
}

void UtilizationAggregator::merge_runs() const {
  active_sorted_.clear();
  const std::size_t lanes = lane_runs_.size();
  if (lanes == 1) {
    // Degenerate merge: emit the single run in order.
    for (const SortKey& key : lane_runs_[0].keys) {
      if (live_bits_[key.slot].parked) continue;
      active_sorted_.push_back(make_view_cached(key.slot));
    }
    return;
  }
  // K-way merge by linear scan of the lane heads; lane counts are small
  // (hardware threads), so a heap would cost more than it saves.
  merge_heads_.assign(lanes, 0);
  for (;;) {
    std::size_t best = lanes;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const LaneRun& run = lane_runs_[lane];
      if (merge_heads_[lane] >= run.keys.size()) continue;
      if (best == lanes) {
        best = lane;
        continue;
      }
      const SortKey& a = run.keys[merge_heads_[lane]];
      const SortKey& b = lane_runs_[best].keys[merge_heads_[best]];
      if (key_before(a.free_mem_mb, a.slot, b.free_mem_mb, b.slot)) {
        best = lane;
      }
    }
    if (best == lanes) break;
    const SortKey& key = lane_runs_[best].keys[merge_heads_[best]++];
    if (live_bits_[key.slot].parked) continue;
    active_sorted_.push_back(make_view_cached(key.slot));
  }
}

std::vector<double> UtilizationAggregator::window(GpuId gpu, Metric metric,
                                                  SimTime now,
                                                  SimTime window_len) const {
  std::vector<double> out;
  window_into(gpu, metric, now, window_len, out);
  return out;
}

void UtilizationAggregator::window_into(GpuId gpu, Metric metric, SimTime now,
                                        SimTime window_len,
                                        std::vector<double>& out) const {
  out.clear();
  window_view(gpu, metric, now, window_len).append_values_to(out);
}

WindowView UtilizationAggregator::window_view(GpuId gpu, Metric metric,
                                              SimTime now,
                                              SimTime window_len) const {
  check_recorded(metric);
  const Entry* entry = find_gpu(gpu);
  if (entry == nullptr) return {};
  return entry->db->window_view(gpu, metric, now - window_len);
}

const WindowAggregate& UtilizationAggregator::window_stats(
    GpuId gpu, Metric metric, SimTime now, SimTime window_len) const {
  static const WindowAggregate kEmpty{};
  check_recorded(metric);
  const Entry* entry = find_gpu(gpu);
  if (entry == nullptr) return kEmpty;
  return entry->db->window_stats(gpu, metric, now - window_len);
}

bool UtilizationAggregator::stale(GpuId gpu) const {
  if (horizon_ <= 0) return false;
  const Entry* entry = find_gpu(gpu);
  if (entry == nullptr) return false;
  return now_ - entry->db->latest_time(gpu, kRecordedMetric) > horizon_;
}

const UtilizationAggregator::Entry* UtilizationAggregator::find_gpu(
    GpuId gpu) const {
  const auto it = gpu_to_entry_.find(gpu.value);
  return it == gpu_to_entry_.end() ? nullptr : &nodes_[it->second];
}

}  // namespace knots::telemetry
