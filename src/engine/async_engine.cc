#include "engine/async_engine.h"

#include <algorithm>
#include <utility>

namespace blowfish {

namespace {
constexpr const char* kShutdownMsg = "engine shut down before the request ran";

double MsSince(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}
}  // namespace

// ------------------------------------------------------- construction

AsyncQueryEngine::AsyncQueryEngine(EngineOptions options) : engine_(options) {
  // The lane digests live in the owned engine's registry, so one
  // metrics snapshot covers the whole pipeline. Pointers are stable
  // for the registry's lifetime; updates are lock-free.
  MetricsRegistry& metrics = engine_.telemetry().metrics();
  warm_counters_.latency = metrics.histogram("engine_async_warm_latency_ms");
  warm_counters_.queue_wait =
      metrics.histogram("engine_async_queue_wait_warm_ms");
  cold_counters_.latency = metrics.histogram("engine_async_cold_latency_ms");
  cold_counters_.queue_wait =
      metrics.histogram("engine_async_queue_wait_cold_ms");
  h_cold_coalesce_wait_ =
      metrics.histogram("engine_async_cold_coalesce_wait_ms");
  h_stream_park_wait_ = metrics.histogram("engine_stream_park_wait_ms");
  stream_counters_.chunks = metrics.counter("engine_stream_chunks_total");
  stream_counters_.ttfc = metrics.histogram("engine_stream_ttfc_ms");
  stream_counters_.chunk_gap = metrics.histogram("engine_stream_chunk_gap_ms");
  metrics.gauge_callback("engine_async_warm_depth", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(DepthLocked(/*cold=*/false));
  });
  metrics.gauge_callback("engine_async_cold_depth", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(DepthLocked(/*cold=*/true));
  });
  metrics.gauge_callback("engine_async_cold_in_flight", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(cold_inflight_);
  });
  metrics.gauge_callback("engine_async_parked_streams", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(parked_streams_.size());
  });
  metrics.counter_callback("engine_async_cold_plans_coalesced", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(cold_coalesced_);
  });

  hook_gate_ = std::make_shared<HookGate>();
  {
    // Uncontended (the gate is not shared yet), but taking the lock
    // keeps the guarded write checkable.
    std::lock_guard<std::mutex> gate(hook_gate_->mu);
    hook_gate_->engine = this;
  }
  num_workers_ = options.async_workers != 0
                     ? options.async_workers
                     : std::max<size_t>(1, std::thread::hardware_concurrency());
  // Cold leaders may never capture the whole pool (with >= 2 workers
  // at least one stays reserved for the warm lane).
  cold_limit_ = std::max<size_t>(1, num_workers_ / 2);
  capacity_ = std::max<size_t>(1, options.async_queue_capacity);
  full_policy_ = options.async_queue_full;
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncQueryEngine::~AsyncQueryEngine() {
  Shutdown(engine_.options().async_drain_on_destruct
               ? ShutdownMode::kDrain
               : ShutdownMode::kCancelPending);
}

// -------------------------------------------------------- submission

void AsyncQueryEngine::Classify(Task* task) const {
  task->cold_key.clear();
  task->cold = !engine_.IsWarm(task->request, &task->cold_key);
}

Status AsyncQueryEngine::AcquireSlot(std::unique_lock<std::mutex>* lock) {
  if (!accepting_) return Status::Cancelled(kShutdownMsg);
  if (queued_slots_ >= capacity_) {
    if (full_policy_ == QueueFullPolicy::kReject) {
      return Status::Unavailable("submission queue full (capacity " +
                                 std::to_string(capacity_) + ")");
    }
    ++blocked_submitters_;
    // Explicit wait loop: the guarded reads stay in this function's
    // scope, where the analysis knows mu_ is held.
    while (accepting_ && queued_slots_ >= capacity_) {
      space_cv_.wait(*lock);
    }
    --blocked_submitters_;
    if (blocked_submitters_ == 0) drain_cv_.notify_all();
    if (!accepting_) return Status::Cancelled(kShutdownMsg);
  }
  return Status::OK();
}

void AsyncQueryEngine::RecordFirstPop(Task* task) {
  if (task->popped_once) return;
  task->popped_once = true;
  const double wait_ms = MsSince(task->enqueue_time, Clock::now());
  LaneCounters& lane = task->lane_cold ? cold_counters_ : warm_counters_;
  lane.queue_wait->Record(wait_ms);
  task->trace.Record(TraceStage::kQueueWait, wait_ms);
}

size_t AsyncQueryEngine::DepthLocked(bool cold) const {
  if (!cold) return warm_queue_.size();
  size_t parked = 0;
  for (const auto& entry : parked_) parked += entry.second.size();
  return cold_queue_.size() + parked;
}

bool AsyncQueryEngine::RunnableLocked() const {
  if (stopping_) return true;
  if (paused_) return false;
  if (!warm_queue_.empty()) return true;
  return !cold_queue_.empty() && cold_inflight_ < cold_limit_;
}

void AsyncQueryEngine::EnqueueLocked(TaskPtr task) {
  const bool cold = task->cold;
  task->enqueue_time = Clock::now();
  task->lane_cold = cold;
  task->held_slots = 1;
  queued_slots_ += task->held_slots;
  // AcquireSlot admitted this task under the same hold of mu_.
  BF_DCHECK_LE(queued_slots_, capacity_);
  ++outstanding_;
  LaneCounters& lane = cold ? cold_counters_ : warm_counters_;
  // Stream tasks ride the lanes (scheduling, cold single-flight) but
  // are accounted in StreamCounters, not the future counters.
  if (task->stream == nullptr) ++lane.enqueued;
  (cold ? cold_queue_ : warm_queue_).push_back(std::move(task));
  lane.peak_depth = std::max(lane.peak_depth, DepthLocked(cold));
  work_cv_.notify_one();
}

std::future<Result<QueryResult>> AsyncQueryEngine::SubmitAsync(
    QueryRequest request) {
  TaskPtr task = std::make_unique<Task>();
  task->request = std::move(request);
  std::future<Result<QueryResult>> future = task->promise.get_future();
  // Sampling decides here so the span covers the queue wait too; the
  // worker carries the span into Submit and finishes it.
  task->trace = engine_.telemetry().MaybeStartTrace();
  Classify(task.get());

  std::unique_lock<std::mutex> lock(mu_);
  const Status admitted = AcquireSlot(&lock);
  if (!admitted.ok()) {
    LaneCounters& lane = task->cold ? cold_counters_ : warm_counters_;
    if (admitted.code() == StatusCode::kUnavailable) {
      ++lane.rejected;
    } else {
      ++lane.cancelled;
    }
    lock.unlock();
    task->promise.set_value(admitted);
    return future;
  }
  EnqueueLocked(std::move(task));
  return future;
}

std::shared_ptr<ResultStream> AsyncQueryEngine::SubmitStreamAsync(
    QueryRequest request, StreamOptions options) {
  std::shared_ptr<ResultStream> stream =
      ResultStream::MakeChannel(options.max_buffered_chunks);
  TaskPtr task = std::make_unique<Task>();
  task->request = std::move(request);
  task->stream = stream;
  task->stream_options = options;
  task->trace = engine_.telemetry().MaybeStartTrace();
  Classify(task.get());

  std::unique_lock<std::mutex> lock(mu_);
  const Status admitted = AcquireSlot(&lock);
  if (!admitted.ok()) {
    // Refusals mirror futures: delivered through the handle, already
    // terminal (header and status resolve together).
    if (admitted.code() == StatusCode::kUnavailable) {
      ++stream_counters_.rejected;
    } else {
      ++stream_counters_.cancelled;
    }
    lock.unlock();
    stream->Abort(admitted);
    return stream;
  }
  ++stream_counters_.accepted;
  EnqueueLocked(std::move(task));
  return stream;
}

// ----------------------------------------------------------- workers

void AsyncQueryEngine::WorkerLoop() {
  for (;;) {
    TaskPtr task;
    bool cold_leader = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!RunnableLocked()) work_cv_.wait(lock);
      if (stopping_) return;
      if (!warm_queue_.empty()) {
        task = std::move(warm_queue_.front());
        warm_queue_.pop_front();
        RecordFirstPop(task.get());
      } else {
        task = std::move(cold_queue_.front());
        cold_queue_.pop_front();
        RecordFirstPop(task.get());
        if (cold_inflight_keys_.count(task->cold_key) != 0) {
          // Same-key plan already in flight: park instead of blocking
          // this worker on the leader's planning. The task's queue
          // slots stay held (it is still queued work).
          ++cold_coalesced_;
          task->parked_at = Clock::now();
          parked_[task->cold_key].push_back(std::move(task));
          continue;
        }
        cold_inflight_keys_.insert(task->cold_key);
        ++cold_inflight_;
        cold_leader = true;
      }
      BF_DCHECK_GE(queued_slots_, task->held_slots);
      queued_slots_ -= task->held_slots;
      task->held_slots = 0;
      space_cv_.notify_all();
    }
    if (task->stream != nullptr) {
      // Stream production manages its own cold key, parking, and
      // outstanding bookkeeping.
      RunStreamTask(std::move(task), cold_leader);
      continue;
    }
    {
      // Flight records written inside Submit carry the lane this
      // execution actually ran on.
      FlightLaneScope lane_scope(task->cold ? FlightLane::kAsyncCold
                                            : FlightLane::kAsyncWarm);
      Process(task.get());
    }
    if (cold_leader) FinishCold(task->cold_key);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) drain_cv_.notify_all();
    }
  }
}

void AsyncQueryEngine::RunStreamTask(TaskPtr task, bool cold_leader) {
  Task* t = task.get();
  // Flight records from the admission below carry the stream lane.
  FlightLaneScope lane_scope(FlightLane::kAsyncStream);
  // Local handle: once the task parks, `t` may be freed by a
  // concurrent shutdown sweep — only the stream may be touched then.
  const std::shared_ptr<ResultStream> stream = t->stream;

  // Terminal bookkeeping runs *before* the consumer-visible resolution
  // (Close/Abort), mirroring Process(): a consumer woken by the
  // terminal status already finds its stream counted in stats().
  if (!t->admitted) {
    // A consumer that cancelled before admission avoids the charge
    // entirely: nothing was released, so nothing needs paying for.
    if (stream->cancelled()) {
      if (cold_leader) FinishCold(t->cold_key);
      FinishStreamTask(std::move(task), StreamOutcome::kCancelled);
      stream->Abort(Status::Cancelled("stream cancelled before admission"));
      return;
    }
    StreamHeader header;
    // The request moves into the cursor — the task carried it only to
    // reach admission (classification used it at submit time).
    Result<std::unique_ptr<ChunkCursor>> cursor = engine_.AdmitStream(
        std::move(t->request), t->stream_options, &header, &t->trace);
    if (cold_leader) {
      // The plan and transform are cached (or planning failed) the
      // moment admission returns: release the single-flight key now,
      // so a long-lived stream never blocks same-key submits behind a
      // leader that is done planning.
      FinishCold(t->cold_key);
      cold_leader = false;
    }
    if (!cursor.ok()) {
      FinishStreamTask(std::move(task), StreamOutcome::kFailed);
      stream->Abort(cursor.status());
      return;
    }
    t->cursor = std::move(cursor).ValueOrDie();
    t->admitted = true;
    stream->ResolveHeader(std::move(header));
  }

  for (;;) {
    if (!t->pending_chunk.has_value()) {
      std::optional<StreamChunk> chunk = t->cursor->NextChunk();
      if (!chunk.has_value()) {
        FinishStreamTask(std::move(task), StreamOutcome::kCompleted);
        stream->Close(Status::OK());
        return;
      }
      t->pending_chunk = std::move(chunk);
    }
    switch (stream->TryPush(&*t->pending_chunk)) {
      case ResultStream::Push::kOk: {
        t->pending_chunk.reset();
        const Clock::time_point now = Clock::now();
        if (!t->emitted_any) {
          t->emitted_any = true;
          stream_counters_.ttfc->Record(MsSince(t->enqueue_time, now));
        } else {
          stream_counters_.chunk_gap->Record(MsSince(t->last_emit, now));
        }
        t->last_emit = now;
        stream_counters_.chunks->Add(1);
        continue;
      }
      case ResultStream::Push::kClosed:
        // Cancelled mid-stream (or aborted by shutdown): free the
        // producer slot; the ledger charge stands — privacy was spent
        // when the noise was drawn at admission.
        t->cursor.reset();
        FinishStreamTask(std::move(task), StreamOutcome::kCancelled);
        return;
      case ResultStream::Push::kFull: {
        // Park: hand the task to the engine and return this worker to
        // the pool; the consumer's next pop (or Cancel) fires the
        // space hook, which re-enqueues the task into the warm lane.
        const Task* key = t;
        bool stopping;
        {
          std::lock_guard<std::mutex> lock(mu_);
          stopping = stopping_;
          if (!stopping) {
            ++stream_counters_.parks;
            t->parked_at = Clock::now();
            parked_streams_.emplace(key, std::move(task));
          }
        }
        if (stopping) {
          // Workers are exiting — nobody would ever resume a parked
          // producer. Resolve the terminal status here instead.
          t->cursor.reset();
          FinishStreamTask(std::move(task), StreamOutcome::kCancelled);
          stream->Close(Status::Cancelled(kShutdownMsg));
          return;
        }
        // Parked. Arm the hook; if the consumer raced us (space
        // freed, or the stream died), take the task back and retry
        // rather than sleeping forever. The hook goes through the
        // lifetime gate: a consumer may fire it at any point after
        // the engine is gone (stream handles outlive the engine), and
        // the gate turns that into a no-op instead of a dangling
        // call.
        const std::shared_ptr<HookGate> gate = hook_gate_;
        if (stream->InstallSpaceHook([gate, key] {
              std::lock_guard<std::mutex> alive(gate->mu);
              if (gate->engine != nullptr) gate->engine->OnStreamSpace(key);
            })) {
          return;  // worker freed; OnStreamSpace resumes the task
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = parked_streams_.find(key);
          if (it == parked_streams_.end()) {
            // A shutdown sweep beat us to the un-park and already
            // resolved the stream's terminal status.
            return;
          }
          task = std::move(it->second);
          parked_streams_.erase(it);
        }
        RecordStreamUnpark(task.get());
        continue;  // retry the push (t is valid again)
      }
    }
  }
}

void AsyncQueryEngine::RecordStreamUnpark(Task* task) {
  const double wait_ms = MsSince(task->parked_at, Clock::now());
  h_stream_park_wait_->Record(wait_ms);
  task->trace.Record(TraceStage::kStreamPark, wait_ms);
}

void AsyncQueryEngine::OnStreamSpace(const Task* key) {
  TaskPtr task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = parked_streams_.find(key);
    if (it == parked_streams_.end()) return;  // already resumed/swept
    task = std::move(it->second);
    parked_streams_.erase(it);
    RecordStreamUnpark(task.get());
    if (!stopping_) {
      // Resume in the warm lane: admission is long done, the plan and
      // transform are cached — the remaining production is warm work.
      // No new queue slot: the submission was admitted exactly once.
      task->cold = false;
      warm_queue_.push_back(std::move(task));
      work_cv_.notify_one();
      return;
    }
  }
  // Pipeline is stopping: resolve the terminal status on the hook's
  // thread (exactly once — Close is first-caller-wins).
  const std::shared_ptr<ResultStream> stream = task->stream;
  task->cursor.reset();
  FinishStreamTask(std::move(task), StreamOutcome::kCancelled);
  stream->Close(Status::Cancelled(kShutdownMsg));
}

void AsyncQueryEngine::FinishStreamTask(TaskPtr task, StreamOutcome outcome) {
  engine_.telemetry().FinishTrace(&task->trace,
                                  outcome == StreamOutcome::kCompleted);
  task.reset();  // the stream handle stays with the consumer
  std::lock_guard<std::mutex> lock(mu_);
  switch (outcome) {
    case StreamOutcome::kCompleted:
      ++stream_counters_.completed;
      break;
    case StreamOutcome::kCancelled:
      ++stream_counters_.cancelled;
      break;
    case StreamOutcome::kFailed:
      ++stream_counters_.failed;
      break;
  }
  if (--outstanding_ == 0) drain_cv_.notify_all();
}

void AsyncQueryEngine::Process(Task* task) {
  // The task's span (queue wait already stamped) rides through the
  // engine's admission stages; a caller-owned span is never finished
  // by Submit.
  Result<QueryResult> result = engine_.Submit(task->request, &task->trace);
  engine_.telemetry().FinishTrace(&task->trace, result.ok());
  // Completion stats are recorded *before* the promise resolves, so a
  // caller woken by get() observes its own task already counted.
  // Stats attribute to the lane the task was *accepted* into: a cold
  // task re-enqueued warm after its leader planned still paid the
  // cold wait, and must not pollute the warm latency digest.
  LaneCounters& lane = task->lane_cold ? cold_counters_ : warm_counters_;
  lane.completed.fetch_add(1, std::memory_order_relaxed);
  lane.latency->Record(MsSince(task->enqueue_time, Clock::now()));
  task->promise.set_value(std::move(result));
}

void AsyncQueryEngine::FinishCold(const std::string& key) {
  std::vector<TaskPtr> parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cold_inflight_keys_.erase(key);
    --cold_inflight_;
    auto it = parked_.find(key);
    if (it != parked_.end()) {
      parked = std::move(it->second);
      parked_.erase(it);
    }
    if (parked.empty()) {
      // The freed cold slot may unblock another key's leader.
      work_cv_.notify_all();
      return;
    }
  }
  // The leader's plan + precompute usually landed, so followers
  // re-classify warm; if planning failed they stay cold and retry as
  // serial leaders (sharing nothing stale). Re-enqueue keeps the
  // original enqueue stamp (latency is submit-to-resolve) and lane
  // attribution; only the runnable queue changes.
  const Clock::time_point unparked = Clock::now();
  for (TaskPtr& task : parked) {
    const double wait_ms = MsSince(task->parked_at, unparked);
    h_cold_coalesce_wait_->Record(wait_ms);
    task->trace.Record(TraceStage::kColdCoalesceWait, wait_ms);
    Classify(task.get());
  }
  bool cancel_parked = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A Shutdown(kCancelPending) that ran while the parked tasks were
    // held outside the lock has already swept the queues; re-enqueuing
    // now would strand these futures forever (workers are exiting).
    // Cancel them here instead — their slots are still held and they
    // still count as outstanding.
    if (stopping_) {
      cancel_parked = true;
      for (const TaskPtr& task : parked) {
        queued_slots_ -= task->held_slots;
        if (task->stream != nullptr) {
          ++stream_counters_.cancelled;
        } else {
          LaneCounters& lane =
              task->lane_cold ? cold_counters_ : warm_counters_;
          ++lane.cancelled;
        }
      }
      outstanding_ -= parked.size();
      if (outstanding_ == 0) drain_cv_.notify_all();
    } else {
      for (TaskPtr& task : parked) {
        (task->cold ? cold_queue_ : warm_queue_).push_back(std::move(task));
      }
      work_cv_.notify_all();
    }
  }
  if (cancel_parked) {
    for (TaskPtr& task : parked) {
      if (task->stream != nullptr) {
        task->stream->Abort(Status::Cancelled(kShutdownMsg));
        continue;
      }
      task->promise.set_value(Status::Cancelled(kShutdownMsg));
    }
  }
}

// ---------------------------------------------------------- lifecycle

void AsyncQueryEngine::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void AsyncQueryEngine::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

void AsyncQueryEngine::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (outstanding_ != 0) drain_cv_.wait(lock);
}

void AsyncQueryEngine::Shutdown(ShutdownMode mode) {
  // Serializes overlapping Shutdown calls (explicit + destructor);
  // taken before mu_, and nothing else ever takes it.
  std::lock_guard<std::mutex> shutdown_guard(shutdown_mu_);
  std::vector<TaskPtr> doomed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    accepting_ = false;
    space_cv_.notify_all();  // blocked submitters bail with kCancelled
    if (mode == ShutdownMode::kDrain) {
      paused_ = false;
      work_cv_.notify_all();
      while (outstanding_ != 0) drain_cv_.wait(lock);
    } else {
      for (TaskPtr& task : warm_queue_) doomed.push_back(std::move(task));
      warm_queue_.clear();
      for (TaskPtr& task : cold_queue_) doomed.push_back(std::move(task));
      cold_queue_.clear();
      for (auto& entry : parked_) {
        for (TaskPtr& task : entry.second) doomed.push_back(std::move(task));
      }
      parked_.clear();
      // Parked stream producers are queued work too: their consumers
      // must observe the terminal kCancelled rather than block forever
      // on a producer no worker will ever resume.
      for (auto& entry : parked_streams_) {
        doomed.push_back(std::move(entry.second));
      }
      parked_streams_.clear();
      for (const TaskPtr& task : doomed) {
        queued_slots_ -= task->held_slots;
        if (task->stream != nullptr) {
          ++stream_counters_.cancelled;
        } else {
          LaneCounters& lane =
              task->lane_cold ? cold_counters_ : warm_counters_;
          ++lane.cancelled;
        }
      }
      outstanding_ -= doomed.size();
      if (outstanding_ == 0) drain_cv_.notify_all();
    }
    stopping_ = true;
    work_cv_.notify_all();
  }
  // Promises and stream terminals resolve outside the lock; in-flight
  // tasks keep running to completion on their workers.
  for (TaskPtr& task : doomed) {
    if (task->stream != nullptr) {
      // Exactly once: Abort is first-caller-wins against a concurrent
      // consumer Cancel, and resolves a not-yet-admitted stream's
      // header alongside the terminal status.
      task->stream->Abort(Status::Cancelled(kShutdownMsg));
      continue;
    }
    task->promise.set_value(Status::Cancelled(kShutdownMsg));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // A submitter we just woke out of the kBlock capacity wait still
  // re-acquires mu_ and bumps its lane's cancelled counter on the way
  // out of SubmitAsync; returning (and letting the destructor reclaim
  // this object) before it has released mu_ would be a use-after-free.
  // Once the count is observed zero under mu_, every such submitter
  // has left the lock and only touches its own task from there on.
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (blocked_submitters_ != 0) drain_cv_.wait(lock);
  }
  // Last act: close the hook gate. A consumer draining a surviving
  // ResultStream may fire its parked-producer space hook at any time
  // after this object dies; taking the gate's mutex here both waits
  // out any hook currently inside the engine and makes every later
  // firing a no-op.
  {
    std::lock_guard<std::mutex> gate(hook_gate_->mu);
    hook_gate_->engine = nullptr;
  }
}

// --------------------------------------------------------------- stats

AsyncStats AsyncQueryEngine::stats() const {
  AsyncStats out;
  std::lock_guard<std::mutex> lock(mu_);
  const auto fill = [](const LaneCounters& counters, size_t depth,
                       LaneStats* lane) {
    lane->enqueued = counters.enqueued;
    lane->rejected = counters.rejected;
    lane->cancelled = counters.cancelled;
    lane->peak_depth = counters.peak_depth;
    lane->depth = depth;
    lane->completed = counters.completed.load(std::memory_order_relaxed);
    const HistogramSnapshot latency = counters.latency->Snapshot();
    lane->p50_ms = latency.p50_ms;
    lane->p99_ms = latency.p99_ms;
    lane->max_ms = latency.max_ms;
  };
  fill(warm_counters_, DepthLocked(/*cold=*/false), &out.warm);
  fill(cold_counters_, DepthLocked(/*cold=*/true), &out.cold);
  out.stream.accepted = stream_counters_.accepted;
  out.stream.completed = stream_counters_.completed;
  out.stream.cancelled = stream_counters_.cancelled;
  out.stream.failed = stream_counters_.failed;
  out.stream.rejected = stream_counters_.rejected;
  out.stream.producer_parks = stream_counters_.parks;
  out.stream.parked_now = parked_streams_.size();
  out.stream.chunks_emitted = stream_counters_.chunks->value();
  const HistogramSnapshot ttfc = stream_counters_.ttfc->Snapshot();
  out.stream.ttfc_p50_ms = ttfc.p50_ms;
  out.stream.ttfc_p99_ms = ttfc.p99_ms;
  out.stream.ttfc_max_ms = ttfc.max_ms;
  const HistogramSnapshot gap = stream_counters_.chunk_gap->Snapshot();
  out.stream.chunk_gap_p50_ms = gap.p50_ms;
  out.stream.chunk_gap_p99_ms = gap.p99_ms;
  out.stream.chunk_gap_max_ms = gap.max_ms;
  out.workers = num_workers_;
  out.cold_in_flight = cold_inflight_;
  out.cold_plans_coalesced = cold_coalesced_;
  return out;
}

}  // namespace blowfish
