#include "sim/event_core.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace hetsched {

double SimResult::finish_spread() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const auto& w : workers) {
    if (w.tasks_done == 0) continue;
    lo = std::min(lo, w.finish_time);
    hi = std::max(hi, w.finish_time);
  }
  if (hi <= 0.0 || makespan <= 0.0) return 0.0;
  return (hi - lo) / makespan;
}

double SimResult::starvation_fraction() const {
  double starved = 0.0;
  double active = 0.0;
  for (const auto& w : workers) {
    starved += w.starved_time;
    active += w.finish_time;
  }
  return active > 0.0 ? starved / active : 0.0;
}

void EventCoreClient::on_message(std::uint32_t worker, double now) {
  (void)worker;
  (void)now;
}

void EventCoreClient::on_batch_done(std::uint32_t worker, double now) {
  (void)worker;
  (void)now;
}

void EventCoreClient::on_speed_change(std::uint32_t worker, double now) {
  (void)worker;
  (void)now;
}

void EventCoreClient::collect_pending(std::uint32_t worker,
                                      std::vector<TaskId>& out) {
  (void)worker;
  (void)out;
}

bool EventCoreClient::requeue(std::vector<TaskId>& tasks) {
  (void)tasks;
  return false;
}

void EventCore::validate_faults(const std::vector<WorkerFault>& faults,
                                std::uint32_t workers,
                                const char* error_prefix) {
  const std::string prefix(error_prefix);
  for (const WorkerFault& fault : faults) {
    if (fault.worker >= workers) {
      throw std::invalid_argument(prefix + ": fault targets unknown worker");
    }
    if (fault.factor < 0.0 || fault.factor >= 1.0) {
      throw std::invalid_argument(
          prefix + ": fault factor must be 0 (crash) or in (0, 1)");
    }
    if (fault.time < 0.0) {
      throw std::invalid_argument(prefix + ": fault time must be >= 0");
    }
  }
}

EventCore::EventCore(const Platform& platform, const EventCoreOptions& options,
                     EventCoreClient& client)
    : client_(client),
      trace_(options.trace),
      metrics_(options.metrics),
      metrics_comm_bandwidth_(options.metrics_comm_bandwidth),
      error_prefix_(options.error_prefix),
      perturbation_(options.perturbation),
      perturb_rng_(derive_stream(options.seed, options.perturb_stream)) {
  const auto p = static_cast<std::uint32_t>(platform.size());
  validate_faults(options.faults, p, options.error_prefix);
  workers_.resize(p);
  result_.workers.resize(p);
  for (std::uint32_t k = 0; k < p; ++k) {
    workers_[k].speed = platform.speed(k);
    workers_[k].base_speed = platform.speed(k);
  }
  faults_ = options.faults;
  std::stable_sort(faults_.begin(), faults_.end(),
                   [](const WorkerFault& a, const WorkerFault& b) {
                     return a.time < b.time;
                   });
  events_.reset(p);
}

void EventCore::start_task(std::uint32_t k, double now, double duration,
                           TaskId task) {
  Worker& w = workers_[k];
  assert(!w.running && !w.failed);
  w.current = task;
  w.running = true;
  w.current_duration = duration;
  result_.workers[k].busy_time += duration;
  events_.set(k << slot_shift_, now + duration);
}

void EventCore::push_message(std::uint32_t k, double time) {
  assert(!workers_[k].failed);
  if (slot_shift_ == 0) {
    // First message: re-lay the queue out as (compute, message) slot
    // pairs, carrying over any pending compute events.
    const std::uint32_t p = num_workers();
    std::vector<double> compute(p);
    for (std::uint32_t w = 0; w < p; ++w) compute[w] = events_.time(w);
    events_.reset(2 * p);
    slot_shift_ = 1;
    for (std::uint32_t w = 0; w < p; ++w) {
      if (compute[w] != SlotQueue::kEmpty) events_.set(2 * w, compute[w]);
    }
  }
  const std::uint32_t slot = 2 * k + 1;
  // One outstanding request per worker: its message slot must be free.
  assert(events_.time(slot) == SlotQueue::kEmpty);
  events_.set(slot, time);
}

void EventCore::retire_worker(std::uint32_t k, double now) {
  workers_[k].retired = true;
  if (trace_ != nullptr) trace_->on_retire(k, now);
}

// Crashes return the victim's unfinished tasks to the master; any
// worker that had already retired (empty pool at the time) must be
// woken so the requeued tasks still complete.
void EventCore::crash_worker(std::uint32_t k, double now) {
  Worker& w = workers_[k];
  if (w.failed) return;
  std::vector<TaskId> unfinished(w.queue.begin(), w.queue.end());
  w.queue.clear();
  client_.collect_pending(k, unfinished);
  if (w.running) {
    unfinished.push_back(w.current);
    // The aborted task's time was pre-charged at start; refund it.
    result_.workers[k].busy_time -= w.current_duration;
    w.running = false;
  }
  w.failed = true;
  // Empty the victim's slots: nothing it had pending fires any more.
  events_.clear(k << slot_shift_);
  if (slot_shift_ != 0) events_.clear(2 * k + 1);
  ++result_.crashed_workers;
  if (trace_ != nullptr) trace_->on_retire(k, now);
  if (unfinished.empty()) return;
  if (!client_.requeue(unfinished)) {
    throw std::invalid_argument(
        std::string(error_prefix_) +
        ": crash injected but the strategy cannot requeue tasks");
  }
  result_.requeued_tasks += unfinished.size();
  client_.after_requeue(now);
}

void EventCore::apply_fault(const WorkerFault& fault) {
  now_ = fault.time;
  if (fault.factor == 0.0) {
    crash_worker(fault.worker, fault.time);
    return;
  }
  Worker& w = workers_[fault.worker];
  if (w.failed) return;
  // Straggler: the current task keeps its old finish time (the
  // slowdown applies from the next task on). Batch-scheduling clients
  // re-time their in-flight batch in on_speed_change.
  w.speed *= fault.factor;
  w.base_speed *= fault.factor;
  client_.on_speed_change(fault.worker, fault.time);
}

void EventCore::publish_metrics() {
  MetricsRegistry& m = *metrics_;
  m.counter("sim.tasks_done").add(result_.total_tasks_done);
  m.counter("sim.blocks").add(result_.total_blocks);
  m.counter("sim.requeued_tasks").add(result_.requeued_tasks);
  m.counter("sim.crashed_workers").add(result_.crashed_workers);
  m.gauge("sim.makespan").set(result_.makespan);
  std::string name;
  name.reserve(32);
  const auto worker_gauge = [&](const std::string& prefix,
                                const char* suffix) -> Gauge& {
    name.assign(prefix);
    name.append(suffix);
    return m.gauge(name);
  };
  for (std::uint32_t k = 0; k < num_workers(); ++k) {
    const WorkerSimStats& s = result_.workers[k];
    const std::string prefix = "worker." + std::to_string(k) + ".";
    worker_gauge(prefix, "busy_time").set(s.busy_time);
    // A demand-driven worker only waits between its last completion
    // and the global end of the run (or after a crash).
    worker_gauge(prefix, "idle_time")
        .set(std::max(0.0, result_.makespan - s.busy_time));
    worker_gauge(prefix, "comm_time")
        .set(static_cast<double>(s.blocks_received) /
             metrics_comm_bandwidth_);
    worker_gauge(prefix, "blocks").set(static_cast<double>(s.blocks_received));
    worker_gauge(prefix, "tasks").set(static_cast<double>(s.tasks_done));
  }
}

SimResult EventCore::finish() {
  for (std::uint32_t k = 0; k < num_workers(); ++k) {
    result_.workers[k].final_speed = workers_[k].speed;
  }
  if (metrics_ != nullptr) publish_metrics();
  return std::move(result_);
}

}  // namespace hetsched
