#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>

#include "core/check.hpp"
#include "gpu/device_model.hpp"
#include "obs/profile.hpp"

namespace knots::cluster {

using obs::EventKind;

Cluster::Cluster(const ClusterConfig& config, Scheduler& scheduler)
    : config_(config), scheduler_(&scheduler), rng_(config.seed) {
  KNOTS_CHECK(config_.gpus_per_node > 0);
  // The per-node build list. Homogeneous (the historical default, taken
  // whenever node_classes is empty) repeats node_spec; a heterogeneous
  // cluster expands its classes in list order, so node ids are contiguous
  // per class and the layout is deterministic in the config alone.
  std::vector<gpu::NodeSpec> node_specs;
  if (config_.node_classes.empty()) {
    KNOTS_CHECK(config_.nodes > 0);
    gpu::NodeSpec node_spec = config_.node_spec;
    node_spec.gpus_per_node = config_.gpus_per_node;
    node_specs.assign(static_cast<std::size_t>(config_.nodes), node_spec);
  } else {
    for (const NodeClass& cls : config_.node_classes) {
      const auto model = gpu::find_device_model(cls.device_model);
      KNOTS_CHECK_MSG(model.has_value(),
                      "node class names an unknown device model");
      KNOTS_CHECK_MSG(cls.count > 0, "node class must have a positive count");
      gpu::NodeSpec node_spec = config_.node_spec;
      node_spec.gpu = model->gpu;
      node_spec.gpus_per_node =
          cls.gpus_per_node > 0 ? cls.gpus_per_node : config_.gpus_per_node;
      node_spec.preemptible = cls.preemptible;
      node_spec.spot_notice = cls.spot_notice;
      node_specs.insert(node_specs.end(), static_cast<std::size_t>(cls.count),
                        node_spec);
    }
    // Keep node_count() (and everything downstream: fault validation, lane
    // partition, fabric sizing) consistent with the expanded class list.
    config_.nodes = static_cast<int>(node_specs.size());
  }

  std::int32_t next_gpu = 0;
  for (int n = 0; n < config_.nodes; ++n) {
    const gpu::NodeSpec& node_spec = node_specs[static_cast<std::size_t>(n)];
    nodes_.push_back(std::make_unique<gpu::GpuNode>(NodeId{n}, node_spec,
                                                    next_gpu));
    dbs_.push_back(std::make_unique<telemetry::TimeSeriesDb>(
        config_.telemetry_retention, &telemetry_arena_));
    for (int g = 0; g < node_spec.gpus_per_node; ++g) {
      gpu_index_.emplace_back(static_cast<std::size_t>(n),
                              static_cast<std::size_t>(g));
      ++next_gpu;
    }
  }
  devices_.reserve(gpu_index_.size());
  compute_factor_.reserve(gpu_index_.size());
  for (const auto& [n, g] : gpu_index_) {
    devices_.push_back(&nodes_[n]->gpu(g));
    compute_factor_.push_back(nodes_[n]->gpu(g).spec().compute_factor);
  }
  for (const auto& node : nodes_) {
    if (node->spec().preemptible) has_preemptible_ = true;
  }
  for (const TenantQuotaSpec& quota : config_.tenant_quotas) {
    ledger_.set_quota(quota);
  }
  samplers_.reserve(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    samplers_.emplace_back(*nodes_[n], *dbs_[n],
                           rng_.fork(1000 + n), config_.telemetry_noise);
    aggregator_.register_node(*nodes_[n], *dbs_[n]);
  }
  metrics_ = std::make_unique<MetricsCollector>(gpu_index_.size());
  occupied_bits_.assign((gpu_index_.size() + 63) / 64, 0);
  parked_bits_.assign((gpu_index_.size() + 63) / 64, 0);
  aggregator_.set_live_epoch(&device_epoch_);
  gpu_last_busy_.assign(gpu_index_.size(), 0);
  injector_ = std::make_unique<fault::FaultInjector>(nodes_.size());
  gpu_stale_.assign(gpu_index_.size(), false);
  aggregator_.set_staleness_horizon(
      static_cast<SimTime>(config_.stale_after_heartbeats) * config_.tick);

  // Carve the node set into event lanes. The partition is by node, so pods
  // sharing a GPU (the only intra-tick coupling) always land in one lane.
  KNOTS_CHECK_MSG(config_.lanes >= 1, "lanes must be >= 1");
  const auto lanes = static_cast<std::size_t>(config_.lanes);
  if (config_.lane_assignment.empty()) {
    shard_ = sim::ShardPlan::contiguous(nodes_.size(), lanes);
  } else {
    KNOTS_CHECK_MSG(config_.lane_assignment.size() == nodes_.size(),
                    "lane_assignment must map every node");
    std::vector<std::uint32_t> lane_of;
    lane_of.reserve(nodes_.size());
    for (const int lane : config_.lane_assignment) {
      KNOTS_CHECK_MSG(lane >= 0 && lane < config_.lanes,
                      "lane_assignment entry out of range");
      lane_of.push_back(static_cast<std::uint32_t>(lane));
    }
    shard_ = sim::ShardPlan::from_assignment(std::move(lane_of), lanes);
  }
  if (lanes > 1) lane_exec_ = std::make_unique<sim::LaneExecutor>(lanes);
  commit_.reset(lanes);
  lane_members_.resize(lanes);
  lane_sampled_.assign(lanes, 0);

  // Mirror the node shard into the aggregator so its sorted-by-free-memory
  // runs partition the same way as telemetry sampling; refresh_lane() can
  // then piggyback on the lane-parallel scrape phase.
  std::vector<std::uint32_t> agg_lanes;
  agg_lanes.reserve(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    agg_lanes.push_back(static_cast<std::uint32_t>(shard_.lane_of(n)));
  }
  aggregator_.set_lane_partition(std::move(agg_lanes), lanes);

  if (!config_.fabric.empty()) {
    fabric_ = std::make_unique<net::Fabric>(config_.fabric, config_.nodes);
    fabric_->bind(&sim_);
    fabric_->set_observer(this);
  }
}

void Cluster::set_fault_plan(fault::FaultPlan plan) {
  std::vector<bool> preemptible(nodes_.size(), false);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    preemptible[n] = nodes_[n]->spec().preemptible;
  }
  plan.validate(config_.nodes,
                fabric_ ? fabric_->link_names() : std::vector<std::string>{},
                preemptible);
  fault_plan_ = std::move(plan);
}

// Fabric events fan out through the cluster observer chain (digest, audit)
// and the trace. The fabric only fires these while non-inert, so inert runs
// stay bit-identical to fabric-free ones.
void Cluster::on_flow_start(std::uint64_t flow, net::FlowKind kind,
                            int src_node, int dst_node, double mb,
                            SimTime /*now*/) {
  for (auto* o : observers_) {
    o->on_flow_start(*this, flow, static_cast<int>(kind), src_node, dst_node,
                     mb);
  }
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kFlowStart,
                   static_cast<std::int32_t>(flow), dst_node, mb,
                   net::to_string(kind));
  }
}

void Cluster::on_flow_finish(std::uint64_t flow, net::FlowKind kind,
                             bool contended, SimTime /*now*/) {
  for (auto* o : observers_) o->on_flow_finish(*this, flow, contended);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kFlowFinish,
                   static_cast<std::int32_t>(flow), contended ? 1 : 0, 0.0,
                   net::to_string(kind));
  }
}

void Cluster::on_link_state(std::size_t link, bool up, SimTime /*now*/) {
  for (auto* o : observers_) {
    if (up) {
      o->on_link_up(*this, link);
    } else {
      o->on_link_down(*this, link);
    }
  }
  if (trace_ != nullptr) {
    trace_->record(now(), up ? EventKind::kLinkUp : EventKind::kLinkDown,
                   static_cast<std::int32_t>(link));
  }
}

void Cluster::load(std::vector<workload::PodSpec> specs) {
  KNOTS_CHECK_MSG(pods_.empty(), "load() must be called once");
  std::sort(specs.begin(), specs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  pods_.reserve(specs.size());
  for (auto& spec : specs) {
    KNOTS_CHECK_MSG(spec.id.value == static_cast<std::int32_t>(pods_.size()),
                    "pod ids must be dense and zero-based");
    last_arrival_ = std::max(last_arrival_, spec.arrival);
    const SimTime arrival = spec.arrival;
    const PodId id = spec.id;
    pods_.push_back(pod_arena_.create(std::move(spec)));
    sim_.schedule_at(arrival, [this, id] { on_arrival(id); });
  }
  pod_states_.assign(pods_.size(),
                     static_cast<std::uint8_t>(PodState::kPending));
}

void Cluster::run() {
  // Fault events land before the tick at the same timestamp: the scheduler
  // sees a consistent post-fault world in its next round.
  for (const fault::FaultEvent& event : fault_plan_.events) {
    sim_.schedule_at(event.at, [this, event] { apply_fault(event); });
  }
  // The drain deadline is evaluated per tick (not captured once) so pods
  // submitted mid-run via submit_pod() extend it.
  sim::schedule_periodic(sim_, config_.tick, config_.tick,
                         [this](SimTime now) {
                           tick();
                           return !(all_terminal() ||
                                    now >= last_arrival_ + config_.drain_grace);
                         });
  sim_.run_all();
}

PodId Cluster::submit_pod(workload::PodSpec spec) {
  const PodId id{static_cast<std::int32_t>(pods_.size())};
  spec.id = id;
  spec.arrival = std::max(spec.arrival, now());
  last_arrival_ = std::max(last_arrival_, spec.arrival);
  const SimTime arrival = spec.arrival;
  pods_.push_back(pod_arena_.create(std::move(spec)));
  pod_states_.push_back(static_cast<std::uint8_t>(PodState::kPending));
  sim_.schedule_at(arrival, [this, id] { on_arrival(id); });
  return id;
}

bool Cluster::finish_pod(PodId id) {
  KNOTS_CHECK(id.valid() && static_cast<std::size_t>(id.value) < pods_.size());
  auto& p = *pods_[static_cast<std::size_t>(id.value)];
  if (p.state() != PodState::kRunning) return false;
  const GpuId g = p.gpu();
  device(g).detach(id);
  p.complete(now());
  note_state(p);
  note_detach(g);
  gpu_last_busy_[static_cast<std::size_t>(g.value)] = now();
  std::erase(active_, id);
  commit_complete(p);
  return true;
}

const Pod& Cluster::pod(PodId id) const {
  KNOTS_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value) < pods_.size());
  return *pods_[static_cast<std::size_t>(id.value)];
}

std::vector<GpuId> Cluster::all_gpus() const {
  std::vector<GpuId> out;
  out.reserve(gpu_index_.size());
  for (std::size_t i = 0; i < gpu_index_.size(); ++i) {
    out.push_back(GpuId{static_cast<std::int32_t>(i)});
  }
  return out;
}

std::size_t Cluster::gpu_dense_index(GpuId id) const {
  KNOTS_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value) < gpu_index_.size());
  return static_cast<std::size_t>(id.value);
}

NodeId Cluster::node_of_gpu(GpuId id) const {
  const auto [n, g] = gpu_index_.at(static_cast<std::size_t>(id.value));
  return nodes_[n]->id();
}

NodeHealth Cluster::node_health(NodeId id) const {
  return injector_->node_down(id) ? NodeHealth::kDown : NodeHealth::kHealthy;
}

double Cluster::total_power_watts() const {
  double watts = 0;
  for (const auto& node : nodes_) watts += node->power_watts();
  return watts;
}

bool Cluster::place(PodId id, GpuId gpu_id, double provisioned_mb) {
  auto& p = *pods_.at(static_cast<std::size_t>(id.value));
  if (p.state() != PodState::kPending) return false;
  auto it = std::find(pending_.begin(), pending_.end(), id);
  if (it == pending_.end()) return false;

  const auto [node_idx, gpu_in_node] =
      gpu_index_.at(static_cast<std::size_t>(gpu_id.value));
  if (!nodes_[node_idx]->online()) return false;
  // Central quota admission: whichever scheduler asked, a tenant over its
  // caps cannot place. The pod stays pending and retries when quota frees.
  if (ledger_.enforcing() &&
      !ledger_.admits(p.spec().tenant, provisioned_mb)) {
    ledger_.note_rejection(p.spec().tenant);
    return false;
  }
  auto& dev = device(gpu_id);
  if (!dev.attach(id, provisioned_mb)) return false;
  ledger_.charge(p.spec().tenant, id, provisioned_mb);
  note_attach(gpu_id);
  pending_.erase(it);

  const auto cache_key = std::make_pair(node_idx, p.spec().app);
  // Inference services (queries and serving replicas alike) are long-lived
  // deployments whose images are pre-pulled (§V-B: only the first-ever
  // query pays the docker pull); batch images cold-start once per node.
  const bool cached = p.spec().klass != workload::PodClass::kBatch ||
                      image_cache_.contains(cache_key);
  image_cache_.insert(cache_key);
  const SimTime start_latency = cached ? config_.warm_start : config_.cold_start;
  p.begin_start(gpu_id, provisioned_mb, now(), now() + start_latency);
  note_state(p);
  active_.push_back(id);
  starting_.push_back(id);
  gpu_last_busy_[static_cast<std::size_t>(gpu_id.value)] = now();
  for (auto* o : observers_) o->on_place(*this, id, gpu_id, provisioned_mb);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kPlace, id.value, gpu_id.value,
                   provisioned_mb);
  }
  if (placements_counter_ != nullptr) placements_counter_->inc();

  // Cold pulls on a live fabric are real registry→node flows: readiness is
  // gated on the transfer landing (never earlier than the base cold-start).
  // The callback guards against the pod having moved on — an eviction or
  // crash mid-pull invalidates the transfer.
  if (!cached && fabric_active() && config_.image_mb > 0) {
    p.set_ready_at(kNever);
    const SimTime floor_ready = now() + start_latency;
    const int restarts = p.crash_count() + p.evict_count();
    fabric_->start_flow(
        net::FlowKind::kImagePull, net::Fabric::kRegistry,
        static_cast<int>(node_idx), config_.image_mb,
        [this, id, gpu_id, floor_ready, restarts](SimTime t) {
          auto& pod_ref = *pods_[static_cast<std::size_t>(id.value)];
          if (pod_ref.state() != PodState::kStarting) return;
          if (pod_ref.gpu() != gpu_id) return;
          if (pod_ref.crash_count() + pod_ref.evict_count() != restarts) {
            return;
          }
          pod_ref.set_ready_at(std::max(floor_ready, t));
        });
  }
  return true;
}

bool Cluster::resize_pod(PodId id, double provisioned_mb) {
  auto& p = *pods_.at(static_cast<std::size_t>(id.value));
  if (p.state() != PodState::kRunning && p.state() != PodState::kStarting) {
    return false;
  }
  // Growth is quota-gated like a fresh placement; shrinking always admits
  // (it frees quota).
  const double growth = provisioned_mb - p.provisioned_mb();
  if (growth > 0 && ledger_.enforcing() &&
      !ledger_.admits(p.spec().tenant, growth)) {
    ledger_.note_rejection(p.spec().tenant);
    return false;
  }
  if (!device(p.gpu()).resize(id, provisioned_mb)) return false;
  ledger_.recharge(id, provisioned_mb);
  p.set_provisioned_mb(provisioned_mb);
  for (auto* o : observers_) o->on_resize(*this, id, provisioned_mb);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kResize, id.value, -1, provisioned_mb);
  }
  return true;
}

bool Cluster::park(GpuId id) {
  const auto [node_idx, gpu_in_node] =
      gpu_index_.at(static_cast<std::size_t>(id.value));
  if (!nodes_[node_idx]->online()) return false;
  auto& dev = device(id);
  if (dev.totals().residents > 0) return false;
  dev.set_parked(true);
  note_parked(id);
  for (auto* o : observers_) o->on_park(*this, id);
  if (trace_ != nullptr) trace_->record(now(), EventKind::kPark, id.value);
  return true;
}

void Cluster::evict_node(NodeId id) {
  auto& node = *nodes_.at(static_cast<std::size_t>(id.value));
  std::uint64_t evicted = 0;
  for (std::size_t g = 0; g < node.gpu_count(); ++g) {
    auto& dev = node.gpu(g);
    for (PodId pod_id : dev.resident_pods()) {
      auto& p = *pods_[static_cast<std::size_t>(pod_id.value)];
      dev.detach(pod_id);
      note_detach(dev.id());
      ledger_.release(pod_id);
      p.evict(now());
      note_state(p);
      ++evicted;
      for (auto* o : observers_) o->on_evict(*this, pod_id, id);
      if (trace_ != nullptr) {
        trace_->record(now(), EventKind::kEvict, pod_id.value, id.value);
      }
      sim_.schedule_after(config_.evict_relaunch_delay, [this, pod_id] {
        auto& pod_ref = *pods_[static_cast<std::size_t>(pod_id.value)];
        pod_ref.requeue();
        note_state(pod_ref);
        pending_.push_back(pod_id);
        for (auto* o : observers_) o->on_requeue(*this, pod_id);
        if (trace_ != nullptr) {
          trace_->record(now(), EventKind::kRequeue, pod_id.value);
        }
      });
    }
  }
  std::erase_if(active_, [this](PodId pid) {
    return pods_[static_cast<std::size_t>(pid.value)]->state() ==
           PodState::kEvicted;
  });
  // Images die with the node: after recovery, pulls cold-start again.
  const auto node_idx = static_cast<std::size_t>(id.value);
  std::erase_if(image_cache_, [node_idx](const auto& key) {
    return key.first == node_idx;
  });
  injector_->note_evictions(evicted);
  if (evictions_counter_ != nullptr) evictions_counter_->inc(evicted);
}

void Cluster::add_observer(ClusterObserver* observer) {
  KNOTS_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void Cluster::set_trace_sink(obs::TraceSink* sink) noexcept { trace_ = sink; }

void Cluster::set_metrics_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    sched_profile_ = nullptr;
    advance_profile_ = scrape_profile_ = merge_profile_ = nullptr;
    aggregator_.set_sort_profile(nullptr);
    sim_.set_dispatch_profile(nullptr);
    ticks_counter_ = placements_counter_ = completions_counter_ = nullptr;
    crashes_counter_ = evictions_counter_ = faults_counter_ = nullptr;
    pending_gauge_ = active_gauge_ = completed_gauge_ = nullptr;
    power_gauge_ = parked_gauge_ = nullptr;
    return;
  }
  sched_profile_ = &registry->histogram("sched.on_schedule_ns");
  // Per-phase tick breakdown (bench_scale --json reads these): pod advance,
  // telemetry scrape, barrier merge, plus the existing scheduler round /
  // aggregator sort / event dispatch timers.
  advance_profile_ = &registry->histogram("cluster.advance_ns");
  scrape_profile_ = &registry->histogram("telemetry.scrape_ns");
  merge_profile_ = &registry->histogram("cluster.barrier_merge_ns");
  aggregator_.set_sort_profile(&registry->histogram("telemetry.agg_sort_ns"));
  sim_.set_dispatch_profile(&registry->histogram("sim.dispatch_ns"));
  // Resolve every hot-path instrument once; registry handles stay valid for
  // the registry's lifetime, so per-tick paths skip the name lookup.
  ticks_counter_ = &registry->counter("cluster.ticks");
  placements_counter_ = &registry->counter("cluster.placements");
  completions_counter_ = &registry->counter("cluster.completions");
  crashes_counter_ = &registry->counter("cluster.crashes");
  evictions_counter_ = &registry->counter("cluster.evictions");
  faults_counter_ = &registry->counter("cluster.faults_injected");
  pending_gauge_ = &registry->gauge("cluster.pending_pods");
  active_gauge_ = &registry->gauge("cluster.active_pods");
  completed_gauge_ = &registry->gauge("cluster.completed_pods");
  power_gauge_ = &registry->gauge("cluster.power_watts");
  parked_gauge_ = &registry->gauge("cluster.parked_gpus");
}

void Cluster::on_arrival(PodId id) {
  pending_.push_back(id);
  if (trace_ != nullptr) trace_->record(now(), EventKind::kSubmit, id.value);
}

SchedulingContext Cluster::make_context() {
  SchedulingContext ctx;
  ctx.cluster = this;
  ctx.now = now();
  ctx.pending = &pending_;
  ctx.aggregator = &aggregator_;
  ctx.profiles = &profile_store_;
  ctx.fault_feed = &fault_feed_;
  ctx.trace = trace_;
  // Exposed only while quotas are actually enforced, so policies behave
  // bit-identically on quota-free runs.
  ctx.tenants = ledger_.enforcing() ? &ledger_ : nullptr;
  return ctx;
}

void Cluster::apply_fault(const fault::FaultEvent& event) {
  const auto node_idx = static_cast<std::size_t>(event.node.value);
  // A node-crash on an already-down node is absorbed below without effect;
  // its kFaultInject record still lands, mirroring the injector's view.
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kFaultInject, event.node.value, -1,
                   event.severity, fault::to_string(event.kind));
  }
  if (faults_counter_ != nullptr) faults_counter_->inc();
  switch (event.kind) {
    case fault::FaultKind::kNodeCrash: {
      // A crash while already down (overlapping random-plan intervals) is
      // absorbed by the outstanding outage.
      if (injector_->node_down(event.node)) return;
      injector_->note_node_down(event.node);
      nodes_[node_idx]->set_online(false);
      evict_node(event.node);
      fault_feed_.push_back(
          {now(), fault::FaultKind::kNodeCrash, event.node, false});
      for (auto* o : observers_) o->on_node_down(*this, event.node);
      if (trace_ != nullptr) {
        trace_->record(now(), EventKind::kNodeDown, event.node.value);
      }
      SchedulingContext ctx = make_context();
      scheduler_->on_node_down(ctx, event.node);
      if (event.duration > 0) {
        sim_.schedule_after(event.duration,
                            [this, node = event.node] { recover_node(node); });
      }
      break;
    }
    case fault::FaultKind::kGpuEccDegrade: {
      auto& node = *nodes_[node_idx];
      for (std::size_t g = 0; g < node.gpu_count(); ++g) {
        node.gpu(g).retire_memory_mb(event.severity);
      }
      ++device_epoch_;  // usable capacity moved → aggregator views stale
      injector_->note_ecc_degrade(event.node);
      fault_feed_.push_back(
          {now(), fault::FaultKind::kGpuEccDegrade, event.node, false});
      break;
    }
    case fault::FaultKind::kHeartbeatLoss: {
      injector_->note_heartbeat_gap(event.node, event.at + event.duration);
      fault_feed_.push_back(
          {now(), fault::FaultKind::kHeartbeatLoss, event.node, false});
      sim_.schedule_after(event.duration, [this, node = event.node] {
        if (!injector_->heartbeat_muted(node, now())) {
          fault_feed_.push_back(
              {now(), fault::FaultKind::kHeartbeatLoss, node, true});
          if (trace_ != nullptr) {
            trace_->record(now(), EventKind::kFaultRecover, node.value, -1,
                           0.0, "heartbeat-loss");
          }
        }
      });
      break;
    }
    case fault::FaultKind::kPcieStall: {
      injector_->note_pcie_stall(event.node, now(), event.at + event.duration,
                                 event.severity);
      fault_feed_.push_back(
          {now(), fault::FaultKind::kPcieStall, event.node, false});
      sim_.schedule_after(event.duration, [this, node = event.node] {
        if (injector_->pcie_slowdown(node, now()) == 1.0) {
          fault_feed_.push_back(
              {now(), fault::FaultKind::kPcieStall, node, true});
          if (trace_ != nullptr) {
            trace_->record(now(), EventKind::kFaultRecover, node.value, -1,
                           0.0, "pcie-stall");
          }
        }
      });
      break;
    }
    case fault::FaultKind::kSpotReclaim: {
      // Stage 1: the reclaim *notice*. Schedulers (and serve's autoscaler,
      // through the feed) get the node's spot_notice grace to drain or
      // re-place before the capacity actually disappears.
      if (injector_->node_down(event.node)) return;
      fault_feed_.push_back(
          {now(), fault::FaultKind::kSpotReclaim, event.node, false});
      const SimTime notice = nodes_[node_idx]->spec().spot_notice;
      sim_.schedule_after(notice,
                          [this, node = event.node, d = event.duration] {
                            reclaim_node(node, d);
                          });
      break;
    }
    case fault::FaultKind::kLinkDown:
    case fault::FaultKind::kLinkDegrade: {
      // set_fault_plan already validated the name against the fabric.
      KNOTS_CHECK_MSG(fabric_ != nullptr,
                      "link fault installed without a fabric");
      const auto link = fabric_->link_index(event.link);
      KNOTS_CHECK_MSG(link.has_value(), "link fault names an unknown link");
      const bool hard = event.kind == fault::FaultKind::kLinkDown;
      if (hard) {
        fabric_->set_link_down(*link);
      } else {
        fabric_->degrade_link(*link, event.severity);
      }
      fault_feed_.push_back({now(), event.kind, event.node, false});
      if (event.duration > 0) {
        sim_.schedule_after(
            event.duration, [this, l = *link, hard, kind = event.kind] {
              if (hard) {
                fabric_->set_link_up(l);
              } else {
                fabric_->restore_link(l);
              }
              fault_feed_.push_back({now(), kind, NodeId{}, true});
              if (trace_ != nullptr) {
                trace_->record(now(), EventKind::kFaultRecover,
                               static_cast<std::int32_t>(l), -1, 0.0,
                               fault::to_string(kind));
              }
            });
      }
      break;
    }
  }
}

void Cluster::reclaim_node(NodeId id, SimTime duration) {
  // Stage 2: the notice grace elapsed; the provider takes the node. From
  // here it is a node-crash in every observable way — evictions ride the
  // kEvicted requeue path, telemetry goes dark, power drops to zero — so
  // every conservation invariant and observer contract holds unchanged.
  if (injector_->node_down(id)) return;  // crashed during the notice window
  injector_->note_node_down(id);
  nodes_[static_cast<std::size_t>(id.value)]->set_online(false);
  evict_node(id);
  for (auto* o : observers_) o->on_node_down(*this, id);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kNodeDown, id.value);
  }
  SchedulingContext ctx = make_context();
  scheduler_->on_node_down(ctx, id);
  if (duration > 0) {
    sim_.schedule_after(duration, [this, id] { recover_node(id); });
  }
}

void Cluster::recover_node(NodeId id) {
  injector_->note_node_up(id);
  nodes_[static_cast<std::size_t>(id.value)]->set_online(true);
  fault_feed_.push_back({now(), fault::FaultKind::kNodeCrash, id, true});
  for (auto* o : observers_) o->on_node_up(*this, id);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kNodeUp, id.value);
    trace_->record(now(), EventKind::kFaultRecover, id.value, -1, 0.0,
                   "node-crash");
  }
  SchedulingContext ctx = make_context();
  scheduler_->on_node_up(ctx, id);
}

void Cluster::detect_stale_transitions(SchedulingContext& ctx) {
  for (std::size_t i = 0; i < gpu_index_.size(); ++i) {
    const GpuId gpu{static_cast<std::int32_t>(i)};
    const bool is_stale = aggregator_.stale(gpu);
    if (is_stale && !gpu_stale_[i]) {
      injector_->note_stale_transition();
      scheduler_->on_telemetry_stale(ctx, gpu);
    }
    gpu_stale_[i] = is_stale;
  }
}

gpu::Usage Cluster::jittered(const gpu::Usage& usage, Rng& rng) const {
  if (config_.usage_jitter <= 0) return usage;
  gpu::Usage out = usage;
  const double j = 1.0 + rng.normal(0.0, config_.usage_jitter);
  const double f = std::clamp(j, 0.5, 1.5);
  out.sm = std::clamp(out.sm * f, 0.0, 1.2);
  out.memory_mb *= f;
  out.tx_mbps *= f;
  out.rx_mbps *= f;
  return out;
}

void Cluster::advance_running_pods() {
  // Phase A — snapshot. Slowdowns and co-resident batch SM pressure are
  // computed from the device state at tick entry, so pod advance order
  // within the tick cannot feed back into this tick's factors.
  const std::size_t gpus = gpu_index_.size();
  slowdown_scratch_.assign(gpus, 1.0);
  batch_sm_scratch_.assign(gpus, 0.0);
  const bool faults_live = injector_->any_effects();
  for (std::size_t i = 0; i < gpus; ++i) {
    slowdown_scratch_[i] =
        device(GpuId{static_cast<std::int32_t>(i)}).slowdown();
    if (faults_live) {
      slowdown_scratch_[i] *= injector_->pcie_slowdown(
          nodes_[gpu_index_[i].first]->id(), now());
    }
  }
  for (PodId id : active_) {
    const auto& p = *pods_[static_cast<std::size_t>(id.value)];
    if (p.state() == PodState::kRunning && !p.latency_critical()) {
      batch_sm_scratch_[static_cast<std::size_t>(p.gpu().value)] +=
          p.current_usage().sm;
    }
  }

  if (lane_exec_ == nullptr) {
    advance_fused();
    return;
  }

  // Phase B1 — lane-parallel pre-pass. Every lane scans the full active_
  // list and fills the slots of its own pods (dt, run, needs_stream) plus
  // its member list; canonical order is preserved because members are
  // pushed in ascending active_ index. No lane touches RNG state — stream
  // ranks come from the serial prefix scan below.
  advance_slots_.resize(active_.size());
  for (auto& members : lane_members_) members.clear();
  const auto plan_lane = [&](std::size_t lane) {
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const auto& p = *pods_[static_cast<std::size_t>(active_[i].value)];
      const auto gi = static_cast<std::size_t>(p.gpu().value);
      if (shard_.lane_of(gpu_index_[gi].first) != lane) continue;
      auto& slot = advance_slots_[i];
      slot = AdvanceSlot{};
      if (p.state() != PodState::kRunning) {
        slot.keep = p.state() == PodState::kStarting ? 1 : 0;
        continue;
      }
      double factor = slowdown_scratch_[gi];
      if (p.latency_critical()) {
        // Non-preemptive blocking behind co-resident batch kernels.
        factor *= 1.0 + config_.lc_blocking_tax * batch_sm_scratch_[gi];
      }
      const auto dt = static_cast<SimTime>(
          static_cast<double>(config_.tick) / factor);
      slot.dt = std::max<SimTime>(1, dt);
      // Device generation: a faster GPU retires proportionally more profile
      // time per wall tick. Applied after quantization so the homogeneous
      // P100 path (factor 1.0) is an exact no-op, and power-of-two factors
      // scale dt exactly (the heterogeneity metamorphic law leans on both).
      const double cf = compute_factor_[gi];
      if (cf != 1.0) {
        slot.dt = std::max<SimTime>(
            1, static_cast<SimTime>(static_cast<double>(slot.dt) * cf));
      }
      slot.run = 1;
      // A pod that will finish this tick draws no jitter; one that will
      // crash still draws (jitter is what crashes it).
      slot.needs_stream = p.would_finish(slot.dt) ? 0 : 1;
      lane_members_[lane].push_back(static_cast<std::uint32_t>(i));
    }
  };
  lane_exec_->for_each_lane(plan_lane);

  // Phase B2 — serial stream-rank prefix scan in canonical active_ order.
  // fork_at's counter-based derivation makes the rank the only serial part:
  // the i-th needs_stream pod gets the i-th stream, exactly the sequence
  // the old full sequential pre-pass produced.
  for (auto& slot : advance_slots_) {
    if (slot.needs_stream != 0) {
      slot.rng_stream = 0x9000 + pod_rng_counter_++;
    }
  }

  // Phase C — lane-parallel advance. Everything touched here is lane-local
  // (a node's pods, devices and gpu_last_busy_ slots belong to one lane) or
  // a disjoint advance_slots_ write; completions and crashes detach and
  // edge the pod locally, then defer their global half to the barrier with
  // seq = canonical active_ index.
  commit_.reset(shard_.lanes());
  const SimTime tick_now = now();
  const auto run_lane = [&](std::size_t lane) {
    for (const std::uint32_t i : lane_members_[lane]) {
      const PodId id = active_[i];
      auto& p = *pods_[static_cast<std::size_t>(id.value)];
      auto& slot = advance_slots_[i];
      p.advance(slot.dt);
      if (p.finished_profile()) {
        const GpuId g = p.gpu();
        device(g).detach(id);
        p.complete(tick_now);
        note_state(p);
        commit_.push(lane, tick_now, i, PodEffect{id, /*crashed=*/false, g});
        continue;
      }
      Rng jrng = rng_.fork(slot.rng_stream);
      gpu::Usage usage = jittered(p.current_usage(), jrng);
      if (p.spec().tf_greedy) {
        // TF never allocates past its own earmark, jitter or not.
        usage.memory_mb =
            std::min(usage.memory_mb, 0.995 * p.provisioned_mb());
      }
      if (!device(p.gpu()).set_usage(id, usage)) {
        const GpuId g = p.gpu();
        device(g).detach(id);
        p.crash(tick_now);
        note_state(p);
        commit_.push(lane, tick_now, i, PodEffect{id, /*crashed=*/true, g});
        continue;
      }
      gpu_last_busy_[static_cast<std::size_t>(p.gpu().value)] = tick_now;
      slot.keep = 1;
    }
  };
  lane_exec_->for_each_lane(run_lane);

  // Phase D — deterministic commit. Draining in (time, seq, partition)
  // order — seq is the canonical active_ index — replays the global halves
  // (metrics, profile store, observers, traces, relaunch scheduling) in
  // exactly the order the single-lane loop interleaved them.
  {
    KNOTS_PROF_SCOPE(merge_profile_);
    commit_.drain([this](SimTime, std::uint64_t, std::size_t, PodEffect& e) {
      note_detach(e.gpu);  // serial half of the lane's detach
      auto& p = *pods_[static_cast<std::size_t>(e.id.value)];
      if (e.crashed) {
        commit_crash(p);
      } else {
        commit_complete(p);
      }
    });
  }

  // Rebuild active_ in canonical order: kept runners plus starting pods.
  still_active_scratch_.clear();
  still_active_scratch_.reserve(active_.size());
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (advance_slots_[i].keep != 0) still_active_scratch_.push_back(active_[i]);
  }
  std::swap(active_, still_active_scratch_);
}

void Cluster::advance_fused() {
  // Single-lane fast path: one pass over active_, completions and crashes
  // committed inline. Equivalent to the phased path run at one lane — the
  // commit halves fire in the same canonical active_ order (barrier drain
  // order equals push order at one lane), the stream-rank sequence matches
  // the prefix scan (same predicate, same order), and pod advancement
  // never reads another pod's state (factors were snapshotted in Phase A),
  // so interleaving commits with advances changes no recorded value.
  still_active_scratch_.clear();
  still_active_scratch_.reserve(active_.size());
  const SimTime tick_now = now();
  for (const PodId id : active_) {
    auto& p = *pods_[static_cast<std::size_t>(id.value)];
    if (p.state() != PodState::kRunning) {
      if (p.state() == PodState::kStarting) {
        still_active_scratch_.push_back(id);
      }
      continue;
    }
    const auto gi = static_cast<std::size_t>(p.gpu().value);
    double factor = slowdown_scratch_[gi];
    if (p.latency_critical()) {
      // Non-preemptive blocking behind co-resident batch kernels.
      factor *= 1.0 + config_.lc_blocking_tax * batch_sm_scratch_[gi];
    }
    const auto scaled = static_cast<SimTime>(
        static_cast<double>(config_.tick) / factor);
    SimTime dt = std::max<SimTime>(1, scaled);
    // Same compute-factor application as the phased path (see plan_lane).
    const double cf = compute_factor_[gi];
    if (cf != 1.0) {
      dt = std::max<SimTime>(
          1, static_cast<SimTime>(static_cast<double>(dt) * cf));
    }
    // A pod that will finish this tick draws no jitter; one that will
    // crash still draws (jitter is what crashes it). The rank must be
    // consumed before the outcome is known to match the phased pre-pass.
    std::uint64_t stream = 0;
    if (!p.would_finish(dt)) stream = 0x9000 + pod_rng_counter_++;
    p.advance(dt);
    if (p.finished_profile()) {
      const GpuId g = p.gpu();
      device(g).detach(id);
      p.complete(tick_now);
      note_state(p);
      note_detach(g);
      commit_complete(p);
      continue;
    }
    Rng jrng = rng_.fork(stream);
    gpu::Usage usage = jittered(p.current_usage(), jrng);
    if (p.spec().tf_greedy) {
      // TF never allocates past its own earmark, jitter or not.
      usage.memory_mb = std::min(usage.memory_mb, 0.995 * p.provisioned_mb());
    }
    if (!device(p.gpu()).set_usage(id, usage)) {
      const GpuId g = p.gpu();
      device(g).detach(id);
      p.crash(tick_now);
      note_state(p);
      note_detach(g);
      commit_crash(p);
      continue;
    }
    gpu_last_busy_[gi] = tick_now;
    still_active_scratch_.push_back(id);
  }
  std::swap(active_, still_active_scratch_);
}

void Cluster::start_ready_pods() {
  // Sweep the starting_ list instead of all of active_. Entries whose pod
  // moved on (evicted/crashed elsewhere) are dropped here; list order is
  // placement order, which is exactly the relative order these pods hold
  // in active_, so begin_running fires in the same sequence the full
  // active_ scan produced.
  if (starting_.empty()) return;
  bool any_crashed = false;
  std::size_t w = 0;
  for (std::size_t r = 0; r < starting_.size(); ++r) {
    const PodId id = starting_[r];
    auto& p = *pods_[static_cast<std::size_t>(id.value)];
    if (p.state() != PodState::kStarting) continue;  // stale entry
    if (p.ready_at() > now()) {
      starting_[w++] = id;  // still warming up
      continue;
    }
    p.begin_running(now());
    note_state(p);
    if (trace_ != nullptr) {
      trace_->record(now(), EventKind::kStart, id.value, p.gpu().value);
    }
    if (!device(p.gpu()).set_usage(id, p.current_usage())) {
      crash_pod(p);
      any_crashed = true;
    }
  }
  starting_.resize(w);
  if (any_crashed) {
    std::erase_if(active_, [this](PodId id) {
      return pods_[static_cast<std::size_t>(id.value)]->state() ==
             PodState::kCrashed;
    });
  }
}

void Cluster::commit_complete(Pod& p) {
  ++completed_;
  ledger_.release(p.id());

  const auto& spec = p.spec();
  profile_store_.record_run(
      p.profile_key(), spec.profile.memory_percentile_mb(80.0),
      spec.profile.peak_memory_mb(), spec.profile.mean_sm(),
      spec.profile.peak_sm(), spec.profile.memory_signature(),
      spec.profile.sm_signature());

  if (p.latency_critical()) {
    QueryRecord q;
    q.arrival = spec.arrival;
    q.latency = p.completion() - spec.arrival;
    q.violated = spec.qos_latency > 0 && q.latency > spec.qos_latency;
    metrics_->record_query(q);
  } else if (spec.klass == workload::PodClass::kBatch) {
    BatchRecord b;
    b.arrival = spec.arrival;
    b.jct = p.completion() - spec.arrival;
    b.crashes = p.crash_count();
    metrics_->record_batch(b);
  }
  // kService replicas report per-request latency through knots::serve;
  // neither query nor batch-JCT metrics apply to the replica lifetime.
  for (auto* o : observers_) o->on_complete(*this, p.id());
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kComplete, p.id().value, -1,
                   p.progress());
  }
  if (completions_counter_ != nullptr) completions_counter_->inc();
}

void Cluster::crash_pod(Pod& p) {
  const GpuId g = p.gpu();
  device(g).detach(p.id());
  p.crash(now());
  note_state(p);
  note_detach(g);
  commit_crash(p);
}

void Cluster::commit_crash(Pod& p) {
  ledger_.release(p.id());
  metrics_->record_crash();
  const PodId id = p.id();
  for (auto* o : observers_) o->on_crash(*this, id);
  if (trace_ != nullptr) trace_->record(now(), EventKind::kCrash, id.value);
  if (crashes_counter_ != nullptr) crashes_counter_->inc();
  sim_.schedule_after(config_.relaunch_delay, [this, id] {
    auto& pod_ref = *pods_[static_cast<std::size_t>(id.value)];
    pod_ref.requeue();
    note_state(pod_ref);
    pending_.push_back(id);
    for (auto* o : observers_) o->on_requeue(*this, id);
    if (trace_ != nullptr) trace_->record(now(), EventKind::kRequeue, id.value);
  });
}

void Cluster::sample_figure_metrics() {
  // Utilization/power figures sample the trace-replay window only; the
  // drain tail (no arrivals left) would otherwise dilute every scheduler's
  // percentiles with idle samples. Energy keeps integrating over the full
  // run (makespan differences are the point of Fig 11a).
  if (now() > last_arrival_) return;
  metrics_->add_power_sample(total_power_watts());
  for (std::size_t i = 0; i < gpu_index_.size(); ++i) {
    const auto& dev = device(GpuId{static_cast<std::int32_t>(i)});
    // Percentiles are over utilization *while serving work*: parked and
    // empty GPUs contribute no sample. This profiles how well a scheduler
    // uses the GPUs it occupies — fragmentation shows up as low in-service
    // utilization, consolidation as high.
    const bool inactive = dev.parked() || dev.totals().residents == 0;
    metrics_->sample_gpu_util(i, dev.totals().sm_util, inactive);
  }
}

void Cluster::maybe_park_idle_gpus() {
  if (!scheduler_->parks_idle_gpus()) return;
  // Park candidates are exactly the unoccupied, unparked devices — walk the
  // bitmap complement (ascending, matching the historical full scan) so the
  // sweep costs O(idle) instead of O(gpus) once the datacenter warms up.
  const std::size_t gpus = gpu_index_.size();
  for (std::size_t w = 0; w < parked_bits_.size(); ++w) {
    std::uint64_t cand = ~(occupied_bits_[w] | parked_bits_[w]);
    if (w + 1 == parked_bits_.size() && (gpus & 63) != 0) {
      cand &= (std::uint64_t{1} << (gpus & 63)) - 1;  // mask tail padding
    }
    while (cand != 0) {
      const std::size_t i =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(cand));
      cand &= cand - 1;
      if (!nodes_[gpu_index_[i].first]->online()) continue;
      if (now() - gpu_last_busy_[i] < config_.idle_park_after) continue;
      const GpuId id{static_cast<std::int32_t>(i)};
      device(id).set_parked(true);
      note_parked(id);
      for (auto* o : observers_) o->on_park(*this, id);
      if (trace_ != nullptr) {
        trace_->record(now(), EventKind::kPark, id.value);
      }
    }
  }
}

bool Cluster::all_terminal() const {
  return completed_ == pods_.size() && now() >= last_arrival_;
}

void Cluster::tick() {
  ++ticks_;
  {
    KNOTS_PROF_SCOPE(advance_profile_);
    advance_running_pods();
  }
  start_ready_pods();
  // Telemetry heartbeats shard cleanly: each sampler owns its node's
  // time-series store and RNG, and the injector queries are const, so lanes
  // sample concurrently. Down or heartbeat-muted nodes stop reporting;
  // their series age toward the staleness horizon while last-known-good
  // values persist.
  // Advance the aggregator's clock before the scrape so refresh_lane stamps
  // its freshness under this tick's `now` — the scheduler's first query then
  // skips re-checking every db stamp the scrape just refreshed.
  aggregator_.begin_tick(now());
  {
    KNOTS_PROF_SCOPE(scrape_profile_);
    const bool muting = injector_->any_effects();
    const auto sample_lane = [&](std::size_t lane) {
      std::size_t count = 0;
      for (const std::size_t n : shard_.members(lane)) {
        if (muting && injector_->heartbeat_muted(nodes_[n]->id(), now())) {
          continue;
        }
        samplers_[n].sample(now());
        ++count;
      }
      lane_sampled_[lane] = count;
      // Pull the fresh samples into the aggregator's per-lane series cache
      // and sorted run while we are still lane-parallel; the scheduler's
      // first query then reduces to a k-way merge. No-op for policies that
      // never query the aggregator.
      aggregator_.refresh_lane(lane);
    };
    if (lane_exec_ != nullptr) {
      lane_exec_->for_each_lane(sample_lane);
    } else {
      for (std::size_t lane = 0; lane < shard_.lanes(); ++lane) {
        sample_lane(lane);
      }
    }
  }
  std::size_t nodes_sampled = 0;
  for (const std::size_t count : lane_sampled_) nodes_sampled += count;
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kScrape, -1, -1,
                   static_cast<double>(nodes_sampled));
  }
  SchedulingContext ctx = make_context();
  if (injector_->any_effects()) detect_stale_transitions(ctx);
  {
    KNOTS_PROF_SCOPE(sched_profile_);
    scheduler_->on_schedule(ctx);
  }
  fault_feed_.clear();
  maybe_park_idle_gpus();

  // Energy integrates every tick; figure metrics sample at 1 s cadence.
  const double cluster_watts = total_power_watts();
  metrics_->add_energy(cluster_watts * to_seconds(config_.tick));
  // GPU-seconds accounting for tracked tenants (the ledger is empty — and
  // this loop skipped — on default single-tenant runs).
  if (!ledger_.empty()) {
    const double tick_seconds = to_seconds(config_.tick);
    for (const PodId id : active_) {
      const auto& p = *pods_[static_cast<std::size_t>(id.value)];
      if (p.state() == PodState::kRunning) {
        ledger_.accrue_gpu_seconds(p.spec().tenant, tick_seconds);
      }
    }
  }
  if (config_.metrics_period > 0 &&
      (now() / config_.tick) % (config_.metrics_period / config_.tick) == 0) {
    sample_figure_metrics();
  }
  if (registry_ != nullptr) update_tick_metrics(cluster_watts);
  for (auto* o : observers_) o->on_tick_end(*this);
}

void Cluster::update_tick_metrics(double cluster_watts) {
  ticks_counter_->inc();
  pending_gauge_->set(static_cast<double>(pending_.size()));
  active_gauge_->set(static_cast<double>(active_.size()));
  completed_gauge_->set(static_cast<double>(completed_));
  std::size_t parked = 0;
  for (const std::uint64_t w : parked_bits_) {
    parked += static_cast<std::size_t>(std::popcount(w));
  }
  power_gauge_->set(cluster_watts);
  parked_gauge_->set(static_cast<double>(parked));
}

}  // namespace knots::cluster
