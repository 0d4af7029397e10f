#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "sim/worker_pool.hpp"
#include "util/logging.hpp"

namespace identxx::sim {

namespace {

/// Which simulator/lane the current thread is executing an event for, and
/// (during the shard-lane phase) where its newly scheduled events go.
/// Thread-local so shard-lane handlers on pool threads stage instead of
/// touching the shared queues.  `origin` is the shard lane the current
/// event is attributed to for schedule-exploration footprints: the
/// executing lane for shard work, or — for global-lane events such as
/// staged decision commits — the shard lane whose execution scheduled
/// them, propagated transitively through schedule_on.
struct ExecContext {
  Simulator* sim = nullptr;
  LaneId lane = kGlobalLane;
  std::vector<Simulator::StagedEvent>* staging = nullptr;
  LaneId origin = kGlobalLane;
};
thread_local ExecContext t_exec;

class ExecScope {
 public:
  ExecScope(Simulator* sim, LaneId lane,
            std::vector<Simulator::StagedEvent>* staging,
            LaneId origin) noexcept
      : saved_(t_exec) {
    t_exec = ExecContext{sim, lane, staging, origin};
  }
  ~ExecScope() noexcept { t_exec = saved_; }
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  ExecContext saved_;
};

}  // namespace

void note_access(const LaneAccess& access) noexcept {
  if (t_exec.sim == nullptr) return;
  ScheduleController* controller = t_exec.sim->schedule_controller();
  if (controller == nullptr) return;
  controller->on_access(t_exec.origin, access);
}

Simulator::Simulator() : lanes_(1) {}
Simulator::~Simulator() = default;

NodeId Simulator::add_node(std::unique_ptr<Node> node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  node->attach(this, id);
  nodes_.push_back(std::move(node));
  return id;
}

void Simulator::configure_shard_lanes(std::uint32_t shard_lanes) {
  while (lanes_.size() < static_cast<std::size_t>(shard_lanes) + 1) {
    lanes_.emplace_back();
  }
}

void Simulator::set_workers(std::uint32_t workers) {
  if (workers > workers_) {
    workers_ = workers;
    pool_.reset();  // rebuilt at the right size on the next parallel wave
  }
}

void Simulator::ensure_pool() {
  if (!pool_) pool_ = std::make_unique<WorkerPool>(workers_);
}

void Simulator::connect(NodeId a, PortId a_port, NodeId b, PortId b_port,
                        SimTime latency, std::uint64_t bandwidth_bps) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw SimError("connect: unknown node id");
  }
  if (a_port == 0 || b_port == 0) {
    throw SimError("connect: port 0 is reserved");
  }
  if (latency < 0) {
    throw SimError("connect: negative latency");
  }
  const auto key_a = port_key(a, a_port);
  const auto key_b = port_key(b, b_port);
  if (links_.contains(key_a) || links_.contains(key_b)) {
    throw SimError("connect: port already wired");
  }
  links_[key_a] = LinkEnd{b, b_port, latency, bandwidth_bps};
  links_[key_b] = LinkEnd{a, a_port, latency, bandwidth_bps};
}

SimTime serialization_delay(const net::Packet& packet,
                            std::uint64_t bandwidth_bps) noexcept {
  if (bandwidth_bps == 0) return 0;
  const std::uint64_t wire_bits =
      (net::EthernetHeader::kSize + net::Ipv4Header::kSize +
       packet.payload.size() + 20 /* transport approx */) * 8;
  return static_cast<SimTime>(wire_bits * static_cast<std::uint64_t>(kSecond) /
                              bandwidth_bps);
}

void Simulator::send(NodeId from, PortId port, net::Packet packet) {
  const auto it = links_.find(port_key(from, port));
  if (it == links_.end()) {
    ++stats_.packets_dropped_no_link;
    IDXX_LOG(kDebug, "sim") << nodes_[from]->name() << " port " << port
                            << ": send on unwired port dropped";
    return;
  }
  const LinkEnd link = it->second;
  const SimTime delay =
      link.latency + serialization_delay(packet, link.bandwidth_bps);
  schedule_after(delay, [this, from, port, link,
                         packet = std::move(packet)]() mutable {
    ++stats_.packets_delivered;
    if (tracer_) {
      tracer_(now_, from, port, link.peer, link.peer_port, packet);
    }
    nodes_[link.peer]->on_packet(packet, link.peer_port);
  });
}

void Simulator::push_event(LaneId lane, SimTime when, LaneId origin,
                           std::function<void()> action) {
  lanes_[lane].queue.push(
      Event{when, next_sequence_++, origin, std::move(action)});
}

void Simulator::schedule_on(LaneId lane, SimTime when,
                            std::function<void()> callback) {
  if (lane >= lanes_.size()) {
    throw SimError("schedule_on: unknown lane");
  }
  if (when < now_) {
    throw SimError("schedule_at: time in the past");
  }
  // Shard attribution: work scheduled from an event with shard ancestry
  // keeps that ancestry (so a staged commit's effects count against its
  // origin lane); fresh work is attributed to its target lane.
  LaneId origin = t_exec.sim == this ? t_exec.origin : kGlobalLane;
  if (origin == kGlobalLane) origin = lane;
  if (t_exec.sim == this && t_exec.staging != nullptr) {
    // Shard-lane phase: stage; the epoch barrier merges in lane order.
    t_exec.staging->push_back(
        StagedEvent{lane, when, origin, std::move(callback)});
    return;
  }
  push_event(lane, when, origin, std::move(callback));
}

void Simulator::schedule_at(SimTime when, std::function<void()> callback) {
  const LaneId lane = t_exec.sim == this ? t_exec.lane : kGlobalLane;
  schedule_on(lane, when, std::move(callback));
}

void Simulator::schedule_after(SimTime delay, std::function<void()> callback) {
  schedule_at(now_ + delay, std::move(callback));
}

bool Simulator::idle() const noexcept {
  for (const Lane& lane : lanes_) {
    if (!lane.queue.empty()) return false;
  }
  return true;
}

SimTime Simulator::next_event_time() const noexcept {
  SimTime t = -1;
  for (const Lane& lane : lanes_) {
    if (lane.queue.empty()) continue;
    if (t < 0 || lane.queue.top().when < t) t = lane.queue.top().when;
  }
  return t;
}

std::uint64_t Simulator::run_wave(SimTime t) {
  // The wave is every event at exactly `t` queued before it starts, per
  // lane in FIFO sequence order.  Work the wave schedules at `t` carries a
  // later sequence number and runs in the next wave.
  ++waves_;
  const std::uint64_t wave_end = next_sequence_;
  const auto in_wave = [this, t, wave_end](LaneId lane) {
    const auto& queue = lanes_[lane].queue;
    return !queue.empty() && queue.top().when == t &&
           queue.top().sequence < wave_end;
  };
  const auto pop = [this](LaneId lane) {
    auto& queue = lanes_[lane].queue;
    Event event = std::move(const_cast<Event&>(queue.top()));
    queue.pop();
    return event;
  };

  // Global-lane phase: serial, straight off the queue, so a wave with no
  // shard work allocates nothing; schedules go straight into the queues.
  // Each event runs with its own shard attribution so a staged commit's
  // effects (and, under a schedule controller, its accesses) count
  // against its origin lane.
  std::uint64_t executed = 0;
  while (in_wave(kGlobalLane)) {
    Event event = pop(kGlobalLane);
    ExecScope scope(this, kGlobalLane, nullptr, event.origin);
    event.action();
    ++executed;
  }

  // Shard-lane phase: lanes touch disjoint shard-local state, so they may
  // run in any order or in parallel.  New events are staged per lane and
  // merged at the barrier in ascending lane order, so the result is
  // independent of the worker count and of the order a schedule
  // controller dictates (DESIGN.md §13).
  std::vector<LaneId> order;
  for (LaneId lane = 1; lane < lanes_.size(); ++lane) {
    if (in_wave(lane)) order.push_back(lane);
  }
  if (order.empty()) {
    stats_.events_executed += executed;
    return executed;
  }
  std::vector<std::vector<Event>> batches(lanes_.size());
  for (const LaneId lane : order) {
    while (in_wave(lane)) batches[lane].push_back(pop(lane));
  }
  if (schedule_controller_ != nullptr) {
    schedule_controller_->plan_wave(t, order);
  }
  std::vector<std::vector<StagedEvent>> staged(batches.size());
  std::vector<std::exception_ptr> errors(batches.size());
  const auto run_lane = [this, &batches, &staged, &errors](LaneId lane) {
    ExecScope scope(this, lane, &staged[lane], lane);
    try {
      for (Event& event : batches[lane]) event.action();
    } catch (...) {
      errors[lane] = std::current_exception();
    }
  };
  if (schedule_controller_ == nullptr && workers_ > 1 && order.size() > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(order.size());
    for (const LaneId lane : order) {
      tasks.push_back([&run_lane, lane]() noexcept { run_lane(lane); });
    }
    ensure_pool();
    pool_->run(tasks);
  } else {
    for (const LaneId lane : order) run_lane(lane);
  }
  for (const LaneId lane : order) executed += batches[lane].size();

  // The one merge site: ascending lane order.  Under the injected
  // mutation (checker self-test) staged events commit in modeled arrival
  // order instead.
  if (!fault_merge_arrival_order_) std::sort(order.begin(), order.end());
  for (const LaneId lane : order) {
    for (StagedEvent& event : staged[lane]) {
      push_event(event.lane, event.when, event.origin,
                 std::move(event.action));
    }
  }
  for (const LaneId lane : order) {
    if (errors[lane]) std::rethrow_exception(errors[lane]);
  }

  stats_.events_executed += executed;
  return executed;
}

std::uint64_t Simulator::run(SimTime deadline) {
  std::uint64_t executed = 0;
  for (;;) {
    const SimTime t = next_event_time();
    if (t < 0) break;
    if (deadline >= 0 && t > deadline) break;
    now_ = t;
    executed += run_wave(t);
  }
  if (deadline >= 0 && now_ < deadline && idle()) {
    now_ = deadline;
  }
  return executed;
}

Node& Simulator::node(NodeId id) {
  if (id >= nodes_.size()) throw SimError("node: unknown id");
  return *nodes_[id];
}

const Node& Simulator::node(NodeId id) const {
  if (id >= nodes_.size()) throw SimError("node: unknown id");
  return *nodes_[id];
}

const LinkEnd* Simulator::link_at(NodeId node, PortId port) const noexcept {
  const auto it = links_.find(port_key(node, port));
  return it == links_.end() ? nullptr : &it->second;
}

}  // namespace identxx::sim
