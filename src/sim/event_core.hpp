// The one discrete-event core under every engine.
//
// Before this file existed the repo carried four independently written
// event loops (flat sim, timed sim, DAG, plus ad-hoc drivers), and only
// the flat one knew about fault injection, speed perturbation, metrics
// gauges and trace sinks. EventCore owns the machinery those loops
// share — the event queue and its canonical tie rule, the unified
// per-worker state (speed, base speed, in-flight task), scripted
// `WorkerFault` handling (crash -> requeue through the client,
// straggler -> speed scaling), `PerturbationModel` application after
// each completion, and optional `TraceSink` / `MetricsRegistry`
// publication — while the engines keep only what genuinely differs:
// how a worker obtains its next task.
//
// An engine is an `EventCoreClient`: the core drives the clock and
// calls back into the client to refill workers after completions,
// deliver non-compute events (message arrivals), and return a crash
// victim's unfinished tasks to the master. A pinned-seed golden test
// enforces the flat engine's observable behaviour (event order, RNG
// draw order, stats).
//
// The queue (see docs/performance.md) is a tournament tree with one
// slot per pending event source: a compute slot per worker (its task
// completion or batch end) and, once the timed engine sends its first
// message, a message slot per worker. Each worker has at most one
// outstanding completion and one outstanding request, so a slot holds
// at most one event and refilling it is a single leaf-to-root walk.
// Events fire in canonical `(time, worker, kind)` order, compute before
// message. That order does not depend on how many events were pushed
// before, so batching a worker's completions into one event schedules
// exactly what per-task events would: attaching a TraceSink (which
// forces per-task events) never changes the simulated run. Scripted
// faults are not slots: they live in a pre-sorted side list and win
// every exact-time tie against a slot event. A crash empties the
// victim's slots, so no stale event can fire after it. Worker run
// queues are vectors with a consumed-prefix head instead of std::deque
// so the steady state allocates nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "platform/platform.hpp"
#include "platform/speed_model.hpp"
#include "sim/strategy.hpp"
#include "sim/trace.hpp"

namespace hetsched {

class MetricsRegistry;  // obs/metrics.hpp

/// A scripted worker fault. factor == 0 kills the worker at `time`
/// (its queued and in-flight tasks are requeued through the client);
/// 0 < factor < 1 is a straggler event multiplying the worker's speed.
struct WorkerFault {
  double time = 0.0;
  std::uint32_t worker = 0;
  double factor = 0.0;  // 0 = crash; else speed multiplier
};

/// Per-worker statistics, shared by every engine. The free-overlap
/// (flat) engine has no communication timing, so it reports the
/// timed-only fields (`messages_received`, `starved_time`) as 0.
struct WorkerSimStats {
  std::uint64_t tasks_done = 0;
  std::uint64_t blocks_received = 0;
  std::uint64_t messages_received = 0;  // timed engine; 0 elsewhere
  double busy_time = 0.0;    // total time spent computing
  double finish_time = 0.0;  // completion time of the worker's last task
  double starved_time = 0.0;  // timed engine: stall with empty queue
  double final_speed = 0.0;  // speed after the last perturbation
};

/// Result of one simulated run, shared by the flat and timed engines
/// (the DAG engine embeds the same worker stats in DagSimResult).
struct SimResult {
  double makespan = 0.0;
  std::uint64_t total_blocks = 0;
  std::uint64_t total_tasks_done = 0;
  std::uint64_t requeued_tasks = 0;   // returned to the pool by crashes
  std::uint32_t crashed_workers = 0;
  double link_busy_time = 0.0;  // timed engine: total uplink occupancy
  std::vector<WorkerSimStats> workers;

  /// Communication volume normalized by a lower bound (the paper's
  /// y-axis on every figure).
  double normalized_volume(double lower_bound) const {
    return static_cast<double>(total_blocks) / lower_bound;
  }

  /// (max finish - min finish) / makespan over workers that did any
  /// work; 0 for perfect balance.
  double finish_spread() const;

  /// Aggregate starvation as a fraction of total potential compute
  /// time; always 0 under the free-overlap engine.
  double starvation_fraction() const;
};

/// FIFO of runnable task ids: a contiguous vector with a consumed
/// prefix instead of std::deque, so pushes in the simulation steady
/// state reuse capacity instead of allocating deque chunks. The
/// consumed prefix is reclaimed when the queue empties or when it
/// outgrows the live suffix (amortized O(1) per pop).
class TaskQueue {
 public:
  bool empty() const noexcept { return head_ == buf_.size(); }
  std::size_t size() const noexcept { return buf_.size() - head_; }
  TaskId front() const {
    assert(!empty());
    return buf_[head_];
  }
  void push_back(TaskId t) { buf_.push_back(t); }
  void pop_front() {
    assert(!empty());
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }
  /// Appends every queued id to `out` (front to back) and empties the
  /// queue; capacity is retained on both sides.
  void drain_into(std::vector<TaskId>& out) {
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
               buf_.end());
    clear();
  }
  auto begin() const noexcept {
    return buf_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const noexcept { return buf_.end(); }

 private:
  std::vector<TaskId> buf_;
  std::size_t head_ = 0;
};

/// Engine-specific behaviour the core calls back into. Callbacks fire
/// with the core clock already advanced to the event time.
class EventCoreClient {
 public:
  virtual ~EventCoreClient() = default;

  /// Worker `worker` completed its task (stats, trace, perturbation
  /// already applied by the core); give it more work or let it idle.
  virtual void on_task_done(std::uint32_t worker, double now) = 0;

  /// A message event (pushed via EventCore::push_message) arrived for
  /// `worker`. A crash empties the worker's message slot, so nothing is
  /// delivered to a crashed worker. Default: nothing to do.
  virtual void on_message(std::uint32_t worker, double now);

  /// A batch event (pushed via EventCore::push_batch_event) fired for
  /// `worker`. A retime overwrites the worker's compute slot, so the
  /// event that fires is always the latest one pushed. Only clients
  /// that push batch events ever see this. Default: nothing to do.
  virtual void on_batch_done(std::uint32_t worker, double now);

  /// A straggler fault just rescaled `worker`'s speed. A client that
  /// schedules multi-task batch events must re-time the in-flight
  /// batch; per-task clients need nothing (queued tasks pick up the
  /// new speed when they start). Default: nothing to do.
  virtual void on_speed_change(std::uint32_t worker, double now);

  /// Crash support: append `worker`'s engine-side pending tasks (those
  /// NOT in the core's runnable queue or in flight on the worker — the
  /// core drains both itself) to `out` and forget them. Default: none.
  virtual void collect_pending(std::uint32_t worker,
                               std::vector<TaskId>& out);

  /// Returns a crash victim's unfinished tasks to the master. False =
  /// requeueing unsupported, which makes crash injection an error.
  virtual bool requeue(std::vector<TaskId>& tasks);

  /// Called after a successful crash requeue: the pool is non-empty
  /// again, so wake whatever workers the engine considers idle.
  virtual void after_requeue(double now) = 0;
};

/// Knobs shared by every engine; engines map their public configs onto
/// this and add their own (lookahead, comm model, policy, ...).
struct EventCoreOptions {
  std::uint64_t seed = 1;
  /// derive_stream tag for the perturbation RNG; per-engine so a port
  /// onto the core cannot silently change an engine's draw sequence.
  const char* perturb_stream = "engine.perturb";
  /// Prefix for validation error messages ("simulate", ...).
  const char* error_prefix = "simulate";
  PerturbationModel perturbation{};
  std::vector<WorkerFault> faults{};
  MetricsRegistry* metrics = nullptr;
  /// Blocks per time unit used to *estimate* per-worker comm time for
  /// the metrics gauges (reporting-only in the free-overlap engine;
  /// the timed engine passes its real CommModel bandwidth).
  double metrics_comm_bandwidth = 100.0;
  TraceSink* trace = nullptr;
};

class EventCore {
 public:
  /// Unified worker state. `queue` holds runnable tasks (the timed
  /// engine's in-transit messages stay client-side). `running` marks a
  /// task started by start_task; a filled compute slot with `running`
  /// clear is a batch end.
  struct Worker {
    TaskQueue queue;
    double speed = 0.0;
    double base_speed = 0.0;
    TaskId current = 0;
    double current_duration = 0.0;
    bool running = false;
    bool retired = false;
    bool failed = false;
  };

  /// Validates faults and stages their events; initial work must then
  /// be primed by the engine (start_task / push_message) before run().
  EventCore(const Platform& platform, const EventCoreOptions& options,
            EventCoreClient& client);

  /// Shared config validation: fault target, factor range, time sign.
  /// Throws std::invalid_argument prefixed with `error_prefix`.
  static void validate_faults(const std::vector<WorkerFault>& faults,
                              std::uint32_t workers,
                              const char* error_prefix);

  std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  Worker& worker(std::uint32_t k) { return workers_[k]; }
  SimResult& stats() noexcept { return result_; }
  TraceSink* trace() const noexcept { return trace_; }
  double now() const noexcept { return now_; }
  /// Stable pointer to the simulated clock, for
  /// Strategy::attach_observer; valid for the core's lifetime.
  const double* clock() const noexcept { return &now_; }
  bool perturbation_enabled() const noexcept {
    return perturbation_.enabled();
  }

  /// Starts `task` on worker `k`: records it in-flight, pre-charges
  /// busy time, and schedules the completion event.
  void start_task(std::uint32_t k, double now, double duration, TaskId task);

  /// Schedules one event at `time` standing for a whole run of tasks
  /// on worker `k`, in its compute slot (replacing any batch end
  /// already there). The client owns the batch contents and credits
  /// the individual completions via credit_batch_completion when the
  /// event fires (on_batch_done) or a fault splits the batch.
  void push_batch_event(std::uint32_t k, double time) {
    assert(!workers_[k].running && !workers_[k].failed);
    events_.set(k << slot_shift_, time);
  }

  /// Batched-mode replacement for the per-event completion
  /// bookkeeping: tasks-done counters, finish time, makespan. The
  /// caller must credit a worker's completions in start order so the
  /// busy-time float accumulation matches the per-event engine's.
  void credit_batch_completion(std::uint32_t k, double finish,
                               double duration) {
    WorkerSimStats& stats = result_.workers[k];
    stats.busy_time += duration;
    ++stats.tasks_done;
    ++result_.total_tasks_done;
    stats.finish_time = finish;
    if (finish > result_.makespan) result_.makespan = finish;
  }

  /// Bulk form of credit_batch_completion for an uninterrupted run of
  /// `count` tasks starting at `start`: the float accumulation is the
  /// identical sequential `+= duration` chain, but the counters, final
  /// finish time and makespan are settled once after the loop (their
  /// per-task intermediate values are never observable). Returns the
  /// last finish time.
  double credit_batch_run(std::uint32_t k, double start, double duration,
                          std::uint64_t count) {
    if (count == 0) return start;
    WorkerSimStats& stats = result_.workers[k];
    double t = start;
    for (std::uint64_t i = 0; i < count; ++i) {
      t += duration;
      stats.busy_time += duration;
    }
    stats.tasks_done += count;
    result_.total_tasks_done += count;
    stats.finish_time = t;
    if (t > result_.makespan) result_.makespan = t;
    return t;
  }

  /// Schedules a message-arrival event for worker `k` at `time`
  /// (delivered to EventCoreClient::on_message; dropped if the worker
  /// crashes before `time`). At most one message per worker may be
  /// outstanding. The first call adds the message slots.
  void push_message(std::uint32_t k, double time);

  /// Marks worker `k` retired (the master has nothing for it) and
  /// emits the trace retirement event.
  void retire_worker(std::uint32_t k, double now);

  /// Drains the event queue (and the staged fault list) to completion,
  /// dispatching callbacks through the EventCoreClient vtable.
  void run() { run_loop(client_); }

  /// Same loop, templated on the concrete client type: an engine that
  /// passes itself (declared `final`) gets its per-event callbacks
  /// devirtualized and inlined into the loop — worth ~10-20 ns/event
  /// on batch-size-1 workloads. Behaviour is identical to run().
  template <typename Client>
  void run_loop(Client& client) {
    for (;;) {
      const SlotQueue::Entry head = events_.top();
      // A fault wins every exact-time tie against a slot event.
      if (next_fault_ < faults_.size() &&
          faults_[next_fault_].time <= head.time) {
        apply_fault(faults_[next_fault_++]);
        continue;
      }
      if (head.time == SlotQueue::kEmpty) break;
      events_.pop();
      now_ = head.time;
      const std::uint32_t k = head.slot >> slot_shift_;
      Worker& w = workers_[k];
      if ((head.slot & slot_shift_) != 0) {
        client.on_message(k, head.time);
      } else if (!w.running) {
        client.on_batch_done(k, head.time);
      } else {
        w.running = false;
        WorkerSimStats& stats = result_.workers[k];
        ++stats.tasks_done;
        ++result_.total_tasks_done;
        stats.finish_time = head.time;
        if (head.time > result_.makespan) result_.makespan = head.time;
        if (trace_ != nullptr) {
          trace_->on_completion(k, head.time, w.current);
        }
        if (perturbation_.enabled()) {
          w.speed = perturbation_.perturb(w.speed, w.base_speed, perturb_rng_);
        }
        client.on_task_done(k, head.time);
      }
    }
  }

  /// Copies final speeds into the stats, publishes metrics (when a
  /// registry was attached), and returns the result.
  SimResult finish();

 private:
  /// Winner tree over one event time per slot, ordered by
  /// `(time, slot)`. Leaves sit at `nodes_[leaves_ + slot]` (an empty
  /// slot holds kEmpty); each internal node holds the earliest entry of
  /// its subtree, so the root is the next event. pop() only empties the
  /// root's leaf and defers its walk: the client almost always refills
  /// that slot during the callback, and set() then settles both changes
  /// with one leaf-to-root walk. Any other access settles the deferred
  /// walk first.
  class SlotQueue {
   public:
    struct Entry {
      double time;
      std::uint32_t slot;
    };
    static constexpr double kEmpty = std::numeric_limits<double>::infinity();

    /// Empties the queue and sizes it for `slots` slots.
    void reset(std::uint32_t slots) {
      leaves_ = 1;
      while (leaves_ < slots) leaves_ <<= 1;
      nodes_.assign(2 * static_cast<std::size_t>(leaves_), Entry{kEmpty, 0});
      for (std::uint32_t s = 0; s < leaves_; ++s) nodes_[leaves_ + s].slot = s;
      for (std::uint32_t i = leaves_ - 1; i >= 1; --i) {
        nodes_[i] = nodes_[2 * i];
      }
      pending_ = kNone;
    }
    double time(std::uint32_t slot) const { return nodes_[leaves_ + slot].time; }
    /// The earliest entry; its time is kEmpty when every slot is empty.
    const Entry& top() {
      settle();
      return nodes_[1];
    }
    /// Empties the slot of top() (which must be non-empty).
    void pop() {
      pending_ = nodes_[1].slot;
      nodes_[leaves_ + pending_].time = kEmpty;
    }
    void set(std::uint32_t slot, double time) {
      assert(slot < leaves_ && time < kEmpty);
      if (pending_ != slot) settle();
      pending_ = kNone;
      nodes_[leaves_ + slot].time = time;
      walk(slot);
    }
    void clear(std::uint32_t slot) {
      settle();
      nodes_[leaves_ + slot].time = kEmpty;
      walk(slot);
    }

   private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    static bool before(const Entry& a, const Entry& b) noexcept {
      return a.time < b.time || (a.time == b.time && a.slot < b.slot);
    }
    void settle() {
      if (pending_ == kNone) return;
      const std::uint32_t slot = pending_;
      pending_ = kNone;
      walk(slot);
    }
    void walk(std::uint32_t slot) {
      std::size_t i = leaves_ + slot;
      Entry best = nodes_[i];
      while (i > 1) {
        const Entry& sibling = nodes_[i ^ 1];
        if (before(sibling, best)) best = sibling;
        i >>= 1;
        nodes_[i] = best;
      }
    }

    std::vector<Entry> nodes_;
    std::uint32_t leaves_ = 1;
    std::uint32_t pending_ = kNone;  // popped slot whose walk is deferred
  };

  void crash_worker(std::uint32_t k, double now);
  void apply_fault(const WorkerFault& fault);
  void publish_metrics();

  EventCoreClient& client_;
  TraceSink* trace_;
  MetricsRegistry* metrics_;
  double metrics_comm_bandwidth_;
  const char* error_prefix_;
  PerturbationModel perturbation_;
  Rng perturb_rng_;
  std::vector<Worker> workers_;
  SimResult result_;
  /// Worker k's compute slot is `k << slot_shift_`. Until the first
  /// message there is one slot per worker (shift 0); push_message then
  /// interleaves a message slot `2k + 1` after each compute slot `2k`
  /// (shift 1), so slot order is `(worker, kind)` in either layout.
  SlotQueue events_;
  std::uint32_t slot_shift_ = 0;
  /// Faults stably sorted by time; faults at one time apply in
  /// declaration order.
  std::vector<WorkerFault> faults_;
  std::size_t next_fault_ = 0;
  double now_ = 0.0;
};

}  // namespace hetsched
