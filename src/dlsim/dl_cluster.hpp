// DL cluster simulation on the shared Kube-Knots substrate (§V-C).
//
// Since PR 5 the DL simulator is no longer a parallel universe: devices are
// `knots::gpu` GpuNode/GpuDevice instances (ECC-aware effective capacity,
// power model), time advances through the `knots::sim` discrete-event
// engine, policies implement `cluster::Scheduler::on_schedule`, faults come
// from `knots::fault` plans, and every decision folds into a
// `verify::RunDigest` and (optionally) an `obs::TraceSink` with the same
// tag recipe as pod-cluster runs. The default 32×8 topology driven in
// one-second periodic ticks reproduces the pre-refactor Fig 12 numerics
// bit-for-bit when the fault plan is empty.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/scheduler.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "dlsim/dl_workload.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "gpu/gpu_node.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"
#include "verify/run_digest.hpp"

namespace knots::dlsim {

class DlScheduler;
class DlSchedView;

struct DlClusterConfig {
  int nodes = 32;
  int gpus_per_node = 8;
  SimTime step = 1 * kSec;
  SimTime checkpoint_interval = 60 * kMinute;  ///< DLT checkpoint cadence.
  SimTime restart_pause = 180 * kSec;  ///< Container relaunch after a crash.
  SimTime migration_pause = 15 * kSec; ///< Gandiva job migration cost.
  SimTime preemption_pause = 30 * kSec;///< Tiresias suspend/resume cost.
  SimTime quantum = 10 * kMinute;      ///< Tiresias LAS rescheduling period.
  double slicing_overhead = 0.92;      ///< Gandiva time-slice efficiency.
  /// Gandiva only oversubscribes GPUs whose incumbent is still young —
  /// long-running trainers keep exclusive access.
  SimTime slice_young_threshold = 2 * kHour;
  /// Tiresias' discretized two-queue LAS: attained service saturates at
  /// this cap, so long jobs compete FIFO instead of starving.
  SimTime las_attained_cap = 20 * kMinute;
  double dli_blocking = 2.2;   ///< Latency factor per busy training context.
  double crash_prob = 0.60;    ///< P(TF-greedy DLI crashes the co-located DLT).
  double pp_accuracy = 0.84;   ///< PP peak-prediction accuracy (Fig 10b).
  /// Tiresias preempts trainers to serve inference most of the time; the
  /// rest queue behind the running quantum.
  double tiresias_dli_priority = 0.80;

  // -- Shared-substrate device model --
  /// Per-GPU spec (P100 by default); ECC degrades shrink its effective
  /// capacity and the placement path respects the remainder.
  gpu::GpuSpec gpu{};
  /// Per-GPU working set one trainer pins. Sized so the default spec hosts
  /// two time-sliced trainers with room to spare — fault-free placements
  /// are identical to the pre-substrate simulator.
  double job_memory_mb = 4096.0;
  /// Host CPU floor folded into node power (0 = GPU-only, as measured).
  double host_idle_watts = 0.0;
  /// Event lanes for the job-advance hot path. Lanes precompute per-job
  /// progress deltas in parallel from the tick-entry placement snapshot;
  /// the apply pass stays sequential and falls back to live computation
  /// after the first completion of the tick (completions evict, changing
  /// the loads later jobs see). Any lane count is bit-identical to 1.
  int lanes = 1;

  // -- Fabric (knots::net) --
  /// Optional datacenter fabric. Empty = no fabric (communication-free, the
  /// historical model). With a non-inert fabric and allreduce_mb_per_step
  /// > 0, multi-node gangs pay a per-step gradient exchange at the max-min
  /// fair rate of their shared links — packing a gang under one ToR beats
  /// spreading it across the spine.
  net::FabricPlan fabric{};
  /// Gradient bytes each multi-node gang exchanges per training step.
  double allreduce_mb_per_step = 0.0;
  /// Checkpoint bytes a cross-node migration drags over the fabric (added
  /// to migration_pause as real transfer time).
  double checkpoint_mb = 0.0;
};

struct DliRecord {
  SimTime arrival;
  SimTime latency;
  bool violated;
};

struct DlResult {
  std::string policy;
  std::vector<double> jct_hours;  ///< Completed DLT JCTs.
  double avg_jct_h = 0, median_jct_h = 0, p99_jct_h = 0;
  std::size_t dlt_total = 0, dlt_completed = 0;
  std::vector<DliRecord> queries;
  std::size_t dli_violations = 0;
  double violations_per_hour = 0;
  std::size_t crash_restarts = 0, migrations = 0, preemptions = 0;

  // -- Unified-substrate extensions --
  std::uint64_t run_digest = 0;      ///< verify::RunDigest over the run.
  std::uint64_t digest_events = 0;
  std::uint64_t node_crashes = 0;    ///< Fault-plan node deaths applied.
  std::uint64_t node_recoveries = 0;
  std::uint64_t jobs_evicted = 0;    ///< Evictions from node crashes.
  std::uint64_t capacity_crashes = 0;///< ECC shrink crashed a resident.
  double mean_power_watts = 0;
  double energy_joules = 0;
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
};

/// Registry keys of the four DL policies, in canonical report order
/// (sched::make_scheduler(name) builds each one).
inline constexpr std::array<std::string_view, 4> kDlPolicyNames = {
    "resag", "gandiva", "tiresias", "cbp-pp"};

[[nodiscard]] std::vector<std::string> dl_policy_names();

/// Optional per-run attachments, mirroring knots::RunObservability.
struct DlRunOptions {
  fault::FaultPlan faults{};
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// The DL simulation engine: gpu::GpuNode topology + sim::Simulation event
/// loop + fault::FaultInjector + verify::RunDigest. Owns all mutable run
/// state; policies observe and mutate it through DlSchedView only.
class DlEngine : private net::FabricObserver {
 public:
  DlEngine(const DlClusterConfig& config, DlScheduler& policy,
           std::uint64_t seed);
  ~DlEngine();
  DlEngine(const DlEngine&) = delete;
  DlEngine& operator=(const DlEngine&) = delete;

  /// Installs the workload (jobs/queries sorted by arrival). Arrivals are
  /// queued by the periodic tick, not here.
  void load(const DlWorkload& workload);

  /// Validates the plan against the topology and schedules its events on
  /// the event engine ahead of the first tick.
  void set_fault_plan(const fault::FaultPlan& plan);
  void set_trace(obs::TraceSink* trace) noexcept { trace_ = trace; }
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Drives the run to completion: periodic one-`step` ticks (arrivals →
  /// policy round → progress → queries) interleaved with fault events, on
  /// the shared discrete-event engine.
  void run();

  /// Distils the run into a DlResult (JCT stats, QoS, digest, fault and
  /// power accounting).
  [[nodiscard]] DlResult result() const;

  // -- Topology / state queries (the view and tests read through these) --
  [[nodiscard]] const DlClusterConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }
  [[nodiscard]] Rng& policy_rng() noexcept { return policy_rng_; }
  [[nodiscard]] std::vector<DltJob>& jobs() noexcept { return jobs_; }
  [[nodiscard]] const std::vector<DltJob>& jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] std::vector<int>& pending() noexcept { return pending_; }
  [[nodiscard]] std::size_t gpu_count() const noexcept {
    return devices_.size();
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] gpu::GpuDevice& device(std::size_t g) {
    return *devices_[g];
  }
  [[nodiscard]] const gpu::GpuDevice& device(std::size_t g) const {
    return *devices_[g];
  }
  [[nodiscard]] gpu::GpuNode& node(std::size_t n) { return nodes_[n]; }
  [[nodiscard]] const gpu::GpuNode& node(std::size_t n) const {
    return nodes_[n];
  }
  [[nodiscard]] NodeId node_of(std::size_t g) const noexcept {
    return NodeId{static_cast<std::int32_t>(
        g / static_cast<std::size_t>(cfg_.gpus_per_node))};
  }
  [[nodiscard]] bool gpu_online(std::size_t g) const {
    return nodes_[static_cast<std::size_t>(node_of(g).value)].online();
  }
  /// Residents in attach order (the crash victim is the front — FIFO).
  /// This is an *index* over GpuDevice residency, not a device model: the
  /// GpuDevice stays the source of truth for capacity, memory and power.
  [[nodiscard]] const std::vector<int>& residents(std::size_t g) const {
    return residents_[g];
  }
  [[nodiscard]] int load(std::size_t g) const noexcept {
    return static_cast<int>(residents_[g].size());
  }
  [[nodiscard]] SimTime paused_until(std::size_t g) const noexcept {
    return paused_until_[g];
  }
  /// Extends the GPU's pause window (max-merge, never shortens).
  void pause_gpu(std::size_t g, SimTime until);
  [[nodiscard]] int free_gpu_count() const;
  /// Online, empty, unpaused, and with room for one trainer.
  [[nodiscard]] bool gpu_serviceable(std::size_t g) const;
  /// First serviceable GPU in index order, or npos (Gandiva's migration
  /// target scan).
  [[nodiscard]] std::size_t first_serviceable_gpu() const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // -- Mutations (digest/trace emitting) --
  /// Places a job gang on `count` GPUs, lowest-load first, skipping
  /// offline/full devices and those failing `eligible`. All-or-nothing;
  /// emits kPlace per GPU on success. Does not set job.running.
  bool place(int job, int count, int max_share = 1,
             const std::function<bool(std::size_t)>& eligible = nullptr);
  /// Detaches the job from its GPUs (no digest record — policy-internal
  /// reshuffles like Tiresias' quantum rebuild use this).
  void evict(int job);
  /// Evicts (if placed) and requeues the job at the back; emits kRequeue.
  void requeue(int job);
  /// Moves a single-GPU job between devices; emits kPlace for the target.
  void migrate(int job, std::size_t from, std::size_t to);
  /// Checkpoint rollback + requeue at the back; emits kCrash + kRequeue.
  void crash_job(int job);

  /// One policy scheduling round against the current state (tests drive
  /// this directly; run() calls it every tick).
  void schedule_round();
  [[nodiscard]] DlSchedView& view() noexcept { return *view_; }

  [[nodiscard]] const verify::RunDigest& digest() const noexcept {
    return digest_;
  }
  [[nodiscard]] const fault::FaultStats& fault_stats() const noexcept {
    return injector_.stats();
  }

  // -- Fabric queries --
  /// The live fabric, or nullptr when the config declared none.
  [[nodiscard]] const net::Fabric* fabric() const noexcept {
    return fabric_.get();
  }
  /// True when gang all-reduce / migration traffic is actually charged.
  [[nodiscard]] bool fabric_active() const noexcept {
    return fabric_ != nullptr && !fabric_->inert();
  }
  /// ToR the node hangs off (0 without a fabric) — cbp-local's locality key.
  [[nodiscard]] int tor_of(NodeId node) const {
    return fabric_ ? fabric_->tor_of(node.value) : 0;
  }
  /// Communication efficiency factor in effect for a job (1 =
  /// communication-free; tests read this).
  [[nodiscard]] double comm_factor(int job) const noexcept {
    const auto j = static_cast<std::size_t>(job);
    return j < comm_factor_.size() ? comm_factor_[j] : 1.0;
  }

  /// Test helper: advances simulated time to `t` without running ticks.
  void advance_to(SimTime t);

 private:
  // -- net::FabricObserver (link-state edges → digest/trace) --
  void on_link_state(std::size_t link, bool up, SimTime now) override;

  bool tick(SimTime t);
  /// Serial pre-advance pass: keeps comm_factor_ equal to
  /// solve_comm_factors(), re-solving only when the placement epoch or the
  /// fabric's link-event count moved since the last solve. Lanes read the
  /// factors concurrently in job_speed.
  void refresh_comm_factors();
  /// Per-job all-reduce efficiency factors from one joint max-min share of
  /// the fabric over every running multi-GPU gang; requires a live fabric
  /// and all-reduce traffic (without them comm_factor_ stays empty = all
  /// 1.0). Pure: the deep audit re-solves into scratch to cross-check the
  /// cached factors.
  [[nodiscard]] std::vector<double> solve_comm_factors() const;
  /// True when comm_factor_ was solved at the current placement epoch and
  /// link-event count.
  [[nodiscard]] bool comm_factors_current() const;
  void apply_fault(const fault::FaultEvent& event);
  void recover_node(NodeId node_id);
  void crash_node(const fault::FaultEvent& event);
  void apply_ecc(const fault::FaultEvent& event);
  void advance_jobs(SimTime t);
  [[nodiscard]] double job_speed(const DltJob& job, SimTime t,
                                 bool fault_effects) const;
  void serve_queries(SimTime t);
  void complete_job(DltJob& job, SimTime t);
  void attach_job(int job, std::size_t g);
  void detach_job(int job, std::size_t g);
  void audit(bool deep);
  [[nodiscard]] cluster::SchedulingContext make_context();
  [[nodiscard]] double cluster_watts() const;

  DlClusterConfig cfg_;
  DlScheduler* policy_;
  Rng policy_rng_;
  sim::Simulation sim_;
  std::vector<gpu::GpuNode> nodes_;
  std::vector<gpu::GpuDevice*> devices_;  ///< Flat GPU index over nodes_.
  std::vector<std::vector<int>> residents_;  ///< Attach-ordered, per GPU.
  std::vector<SimTime> paused_until_;

  std::vector<DltJob> jobs_;
  std::vector<DliQuery> queries_;
  std::vector<int> pending_;
  SimTime horizon_ = 12 * kHour;
  SimTime deadline_ = 0;
  std::size_t next_job_ = 0;
  std::size_t next_query_ = 0;
  std::size_t completed_ = 0;
  std::vector<DliRecord> records_;

  fault::FaultInjector injector_;
  fault::FaultPlan plan_;
  std::vector<fault::FaultNotice> fault_feed_;
  verify::RunDigest digest_;
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<DlSchedView> view_;

  std::unique_ptr<sim::LaneExecutor> lane_exec_;  ///< null when lanes == 1
  std::vector<SimTime> delta_scratch_;  ///< per-job precomputed progress

  std::unique_ptr<net::Fabric> fabric_;  ///< null when cfg_.fabric empty
  std::vector<double> comm_factor_;      ///< per-job, see refresh_comm_factors
  /// Bumped on every attach/detach. Every place, evict, migrate, crash,
  /// requeue and completion goes through those two, and the deep audit
  /// holds running ⇔ fully placed, so an unchanged epoch means an
  /// unchanged set of running gangs.
  std::uint64_t placement_epoch_ = 0;
  std::uint64_t solved_placement_epoch_ = 0;
  std::uint64_t solved_link_epoch_ = 0;  ///< Fabric::Stats::link_events
  std::uint64_t comm_solves_ = 0;
  std::uint64_t flow_seq_ = 0;  ///< Migration-charge flow ids (digest/trace).

  std::uint64_t jobs_evicted_ = 0;
  std::uint64_t capacity_crashes_ = 0;
  std::uint64_t ticks_ = 0;
  double energy_joules_ = 0;
  std::uint64_t invariant_checks_ = 0;
  std::uint64_t invariant_violations_ = 0;
  SimTime last_audit_time_ = -1;
};

/// The curated view a DL policy receives each round, carried through
/// SchedulingContext::extension. Thin inline delegation onto the engine —
/// policies never touch devices or the event queue directly.
class DlSchedView final : public cluster::ContextExtension {
 public:
  explicit DlSchedView(DlEngine& engine) : engine_(engine) {}

  [[nodiscard]] const DlClusterConfig& config() const {
    return engine_.config();
  }
  [[nodiscard]] SimTime now() const { return engine_.now(); }
  [[nodiscard]] Rng& rng() { return engine_.policy_rng(); }
  [[nodiscard]] std::vector<DltJob>& jobs() { return engine_.jobs(); }
  [[nodiscard]] DltJob& job(int id) {
    return engine_.jobs()[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::vector<int>& pending() { return engine_.pending(); }
  [[nodiscard]] std::size_t gpu_count() const { return engine_.gpu_count(); }
  [[nodiscard]] int load(std::size_t g) const { return engine_.load(g); }
  [[nodiscard]] bool free(std::size_t g) const {
    return engine_.load(g) == 0;
  }
  [[nodiscard]] const std::vector<int>& residents(std::size_t g) const {
    return engine_.residents(g);
  }
  [[nodiscard]] SimTime paused_until(std::size_t g) const {
    return engine_.paused_until(g);
  }
  void pause_gpu(std::size_t g, SimTime until) {
    engine_.pause_gpu(g, until);
  }
  [[nodiscard]] int free_gpu_count() const {
    return engine_.free_gpu_count();
  }
  [[nodiscard]] bool gpu_serviceable(std::size_t g) const {
    return engine_.gpu_serviceable(g);
  }
  [[nodiscard]] std::size_t first_serviceable_gpu() const {
    return engine_.first_serviceable_gpu();
  }
  [[nodiscard]] NodeId node_of(std::size_t g) const {
    return engine_.node_of(g);
  }
  /// ToR of a node (0 for every node without a fabric) — the locality key
  /// cbp-local packs gangs by.
  [[nodiscard]] int tor_of(NodeId node) const { return engine_.tor_of(node); }
  bool place(int job, int count, int max_share = 1,
             const std::function<bool(std::size_t)>& eligible = nullptr) {
    return engine_.place(job, count, max_share, eligible);
  }
  void evict(int job) { engine_.evict(job); }
  void requeue(int job) { engine_.requeue(job); }
  void migrate(int job, std::size_t from, std::size_t to) {
    engine_.migrate(job, from, to);
  }
  void crash_job(int job) { engine_.crash_job(job); }

 private:
  DlEngine& engine_;
};

/// Runs one DL policy (a sched::registry key: "resag", "gandiva",
/// "tiresias", "cbp-pp") over a generated workload. Thin adapter: forks the
/// workload/policy RNG streams exactly as the pre-substrate simulator did,
/// builds a DlEngine, and distils its result.
DlResult run_dl_simulation(const std::string& policy,
                           const DlClusterConfig& cluster,
                           const DlWorkloadConfig& workload,
                           std::uint64_t seed = 42,
                           const DlRunOptions& options = {});

/// Runs a caller-built workload (hand-crafted job/query lists, edge-case
/// tests). Bit-identical to the config overload when handed the workload it
/// would have generated: the policy RNG is forked from the same stream.
DlResult run_dl_simulation(const std::string& policy,
                           const DlClusterConfig& cluster,
                           const DlWorkload& workload,
                           std::uint64_t seed = 42,
                           const DlRunOptions& options = {});

}  // namespace knots::dlsim
