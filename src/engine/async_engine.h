// Async submission pipeline: a bounded MPMC queue and a worker pool
// in front of QueryEngine::Submit, so slow cold work (planning — the
// spanner certification / matrix factorization — plus the noise-free
// release transform) stops blocking fast warm-path queries.
//
// Two lanes. At submission time each request is classified with
// QueryEngine::IsWarm():
//
//   warm lane   the target snapshot's plan *and* release precompute
//               are already cached — the submit is noise + answer
//               only. Workers drain this lane first, so a warm
//               request's latency is bounded by queue depth, never by
//               another policy's cold plan.
//   cold lane   the submit must plan (or transform). Cold tasks are
//               single-flight per (policy, version, options) plan key:
//               one leader runs the plan; same-key tasks a worker pops
//               meanwhile are parked without occupying the worker and
//               re-enqueued (usually into the warm lane) when the
//               leader finishes. At most max(1, workers/2) cold
//               leaders run at once, so a burst of distinct new
//               policies can never capture every worker.
//
// Futures. SubmitAsync returns std::future<Result<QueryResult>>. Every
// accepted future resolves exactly once. Refusals are also delivered
// through the future, already resolved: kUnavailable when the bounded
// queue is full under QueueFullPolicy::kReject, kCancelled when the
// engine is shutting down.
//
// Backpressure. `async_queue_capacity` bounds queued-but-not-started
// tasks across both lanes, one slot per task. kBlock submitters wait
// on the queue; shutdown wakes them with kCancelled.
//
// Shutdown. Shutdown(kCancelPending) — the destructor's default —
// stops accepting, resolves every still-queued or parked future with
// kCancelled (caller-visible), lets in-flight tasks finish, and joins
// the pool. Shutdown(kDrain) (or EngineOptions::async_drain_on_destruct)
// instead runs the queue dry first. Both are idempotent and
// deadlock-free with concurrent submitters.
//
// Ordering and determinism. One worker processes tasks of one lane in
// submission order, and the underlying engine assigns its per-submit
// noise streams at processing time — so a single-worker pipeline with
// a fixed seed is bit-identical to calling Submit sequentially.
// Multiple workers trade that global order for throughput (per-future
// results remain exact; only noise-stream assignment interleaves).
//
// Result streams. SubmitStreamAsync enqueues a *stream task*: when a
// worker picks it up it runs the full admission (ε charged atomically,
// all noise drawn — a refusal still resolves the stream's header and
// terminal status), releases its cold-leader key immediately (the plan
// and transform are cached by then; a long stream never blocks
// same-key submits), and produces chunks into the stream's bounded
// buffer. When the consumer lags, the producer *parks*: the worker
// returns to the pool and the task waits inside the engine until the
// consumer's next pop (or Cancel) re-enqueues it — into the warm lane,
// since its cold work is done. A slow consumer therefore never holds a
// worker. Mid-stream Cancel() frees the producer slot at its next
// emit but keeps the ledger charge (privacy was spent at admission);
// shutdown resolves queued and parked streams with kCancelled exactly
// once, like futures. Streams are accounted in AsyncStats::stream
// (time-to-first-chunk and inter-chunk-gap digests, parks, chunks)
// rather than in the per-lane future counters. Note that kDrain
// shutdown — like Drain() — waits for stream consumers to drain their
// streams; use kCancelPending (the default) when streams may be
// abandoned.

#ifndef BLOWFISH_ENGINE_ASYNC_ENGINE_H_
#define BLOWFISH_ENGINE_ASYNC_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/query_engine.h"
#include "engine/telemetry.h"

namespace blowfish {

/// \brief Per-lane counters and latency digest, read via
/// AsyncQueryEngine::stats().
struct LaneStats {
  uint64_t enqueued = 0;   ///< accepted into the lane
  uint64_t completed = 0;  ///< resolved by a worker
  uint64_t rejected = 0;   ///< refused kUnavailable (queue full)
  uint64_t cancelled = 0;  ///< resolved kCancelled at shutdown
  size_t depth = 0;        ///< queued-but-not-started tasks right now
  size_t peak_depth = 0;
  /// Submit-to-resolve latency of completed tasks (log-bucket
  /// digest: percentiles are bucket upper bounds, ~2x resolution).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// \brief Result-stream pipeline counters and latency digests.
struct StreamStats {
  uint64_t accepted = 0;   ///< admitted into the queue
  uint64_t completed = 0;  ///< every chunk delivered, terminal kDone
  uint64_t cancelled = 0;  ///< terminal kCancelled (consumer/shutdown)
  uint64_t failed = 0;     ///< admission refused (budget, bad request)
  uint64_t rejected = 0;   ///< refused kUnavailable at a full queue
  uint64_t chunks_emitted = 0;
  /// Producer parked on a full chunk buffer (worker returned to pool).
  uint64_t producer_parks = 0;
  size_t parked_now = 0;  ///< producers currently parked
  /// Submission to first emitted chunk (log-bucket digest, like the
  /// lane latency digests).
  double ttfc_p50_ms = 0.0;
  double ttfc_p99_ms = 0.0;
  double ttfc_max_ms = 0.0;
  /// Gap between consecutive chunk emissions of one stream.
  double chunk_gap_p50_ms = 0.0;
  double chunk_gap_p99_ms = 0.0;
  double chunk_gap_max_ms = 0.0;
};

/// \brief Snapshot of the async pipeline's state.
struct AsyncStats {
  LaneStats warm;
  LaneStats cold;
  StreamStats stream;
  size_t workers = 0;
  size_t cold_in_flight = 0;  ///< cold leaders running right now
  /// Cold tasks parked behind an in-flight same-key plan instead of
  /// occupying a worker (the "N queued requests, one plan" counter).
  uint64_t cold_plans_coalesced = 0;
};

/// \brief Futures + worker-pool front of a QueryEngine it owns.
/// Thread-safe: any number of threads may submit concurrently, and
/// the admin plane (engine().RegisterPolicy etc.) remains available
/// while the pipeline runs.
class AsyncQueryEngine {
 public:
  enum class ShutdownMode {
    kCancelPending,  ///< queued futures resolve kCancelled
    kDrain,          ///< run the queue dry first
  };

  explicit AsyncQueryEngine(EngineOptions options = EngineOptions());
  ~AsyncQueryEngine();

  AsyncQueryEngine(const AsyncQueryEngine&) = delete;
  AsyncQueryEngine& operator=(const AsyncQueryEngine&) = delete;

  /// The owned synchronous engine: policy/session admin, synchronous
  /// submits, and introspection all go through here.
  QueryEngine& engine() { return engine_; }
  const QueryEngine& engine() const { return engine_; }

  /// Enqueues one request; the future resolves with Submit's result.
  /// A refused submission still returns a (ready) future: kUnavailable
  /// when the queue is full under kReject, kCancelled after shutdown
  /// began. Under kBlock a full queue blocks the caller instead.
  std::future<Result<QueryResult>> SubmitAsync(QueryRequest request);

  /// Enqueues one request for chunked delivery and returns the stream
  /// handle immediately. A worker admits it (ε charged atomically, all
  /// noise drawn — header() resolves then) and produces chunks into
  /// the stream's bounded buffer, parking whenever the consumer lags
  /// so production never holds a worker the consumer isn't keeping
  /// busy. Refusals mirror SubmitAsync, delivered through the handle:
  /// a full queue under kReject resolves the stream terminal with
  /// kUnavailable, shutdown with kCancelled (under kBlock a full queue
  /// blocks the caller instead). Chunk concatenation matches the
  /// synchronous Submit answer bit-for-bit for the same engine state
  /// and seed.
  std::shared_ptr<ResultStream> SubmitStreamAsync(
      QueryRequest request, StreamOptions options = StreamOptions());

  /// Workers stop popping (accepted work is held, submissions still
  /// accepted until the queue fills). For quiescing and deterministic
  /// tests; pairs with Resume().
  void Pause();
  void Resume();

  /// Blocks until every accepted task has resolved. Callers must not
  /// hold the pipeline paused (nothing would ever drain).
  void Drain();

  /// Stops accepting; kCancelPending resolves still-queued futures
  /// with kCancelled while kDrain runs them to completion; in-flight
  /// tasks always finish; workers join. Idempotent; the destructor
  /// calls it with the mode from EngineOptions.
  void Shutdown(ShutdownMode mode);

  AsyncStats stats() const;

 private:
  using Promise = std::promise<Result<QueryResult>>;
  using Clock = std::chrono::steady_clock;

  struct Task {
    QueryRequest request;
    Promise promise;  ///< unused by stream tasks
    /// Current classification (decides which runnable queue holds the
    /// task; re-computed when a parked task is re-enqueued).
    bool cold = false;
    /// Lane the task was accepted into — fixed at enqueue, attributes
    /// counters/latency even if the task later re-enqueues warm.
    bool lane_cold = false;
    std::string cold_key;  ///< plan-cache key; empty when warm
    Clock::time_point enqueue_time;
    /// Queue slots currently held: 1 from enqueue until pop; a resumed
    /// stream producer re-enters the queue holding none.
    size_t held_slots = 0;

    // ---- stream-task state (stream != nullptr) ----
    std::shared_ptr<ResultStream> stream;
    StreamOptions stream_options;
    std::unique_ptr<ChunkCursor> cursor;  ///< set at admission
    bool admitted = false;
    /// Chunk that hit a full buffer; emitted first on resume.
    std::optional<StreamChunk> pending_chunk;
    bool emitted_any = false;
    Clock::time_point last_emit;

    // ---- telemetry ----
    /// Sampled stage span, started at submission; the worker that
    /// finishes the task records it. Inactive when unsampled.
    RequestTrace trace;
    /// First pop already recorded its queue wait (a re-enqueued task
    /// pops more than once; only the first pop is submission latency).
    bool popped_once = false;
    /// Set when the task parks (cold coalesce / stream buffer full);
    /// the wait ends when the task is taken back out.
    Clock::time_point parked_at;

  };
  using TaskPtr = std::unique_ptr<Task>;

  /// (The per-field "guarded by mu_" discipline stays in comments: a
  /// nested type's members cannot GUARDED_BY the outer engine's mu_ —
  /// the attribute has no way to name the enclosing instance.)
  struct LaneCounters {
    uint64_t enqueued = 0;   // guarded by mu_
    uint64_t rejected = 0;   // guarded by mu_
    uint64_t cancelled = 0;  // guarded by mu_
    size_t peak_depth = 0;   // guarded by mu_
    std::atomic<uint64_t> completed{0};
    /// Registry-owned histograms (engine_async_*_ms), recorded by
    /// workers lock-free without mu_.
    LatencyHistogram* latency = nullptr;
    LatencyHistogram* queue_wait = nullptr;
  };

  /// Classifies (outside the queue lock): cold iff the request's plan
  /// or precompute is missing; then `cold_key` names the plan.
  void Classify(Task* task) const;

  /// Acquires one queue slot under `lock` (which must wrap mu_, held
  /// on entry and on return — the kBlock path releases/reacquires it
  /// inside the capacity wait), honoring the queue-full policy. OK on
  /// success; kUnavailable / kCancelled without side effects
  /// otherwise.
  Status AcquireSlot(std::unique_lock<std::mutex>* lock) REQUIRES(mu_);

  /// Enqueues an accepted task (lock held): stamps the clock, bumps
  /// lane counters, pushes to its lane, wakes one worker.
  void EnqueueLocked(TaskPtr task) REQUIRES(mu_);

  void WorkerLoop();
  /// Runs the task on the engine, resolves its promise, records
  /// completion stats. Called without the lock.
  void Process(Task* task);
  /// Post-leader bookkeeping: releases the cold key, re-enqueues
  /// parked same-key tasks into their (re-classified) lanes.
  void FinishCold(const std::string& key);

  /// How a stream task left the pipeline, for StreamStats.
  enum class StreamOutcome { kCompleted, kCancelled, kFailed };

  /// Drives a stream task on a worker: admission (once; the cold key
  /// is released right after, so a long stream never single-flights
  /// behind itself), then the produce loop. Parks the task inside
  /// `parked_streams_` when the chunk buffer is full — the worker
  /// returns to the pool and the consumer's next pop re-enqueues the
  /// task via the stream's space hook. Called without the lock.
  void RunStreamTask(TaskPtr task, bool cold_leader);

  /// Space-hook target: moves the parked task back into the warm
  /// queue (admission already done — the work left is warm), or
  /// resolves it with kCancelled if the pipeline is stopping.
  void OnStreamSpace(const Task* key);

  /// Terminal bookkeeping for a stream task (exactly once per
  /// accepted stream): outcome counters, outstanding_ decrement.
  void FinishStreamTask(TaskPtr task, StreamOutcome outcome);

  size_t DepthLocked(bool cold) const REQUIRES(mu_);

  /// Worker wake predicate: stopping, or unpaused runnable work (warm
  /// task, or a cold task with a free leader slot).
  bool RunnableLocked() const REQUIRES(mu_);

  /// Records the submission-to-first-pop queue wait into the lane's
  /// histogram and the task's trace (once; re-enqueued tasks pop again
  /// but only the first pop is queue wait).
  void RecordFirstPop(Task* task);

  /// Records the time a stream producer spent parked on a full chunk
  /// buffer (parked_at to now).
  void RecordStreamUnpark(Task* task);

  QueryEngine engine_;
  size_t num_workers_ = 0;
  size_t cold_limit_ = 0;
  size_t capacity_ = 0;
  QueueFullPolicy full_policy_ = QueueFullPolicy::kReject;

  /// Serializes Shutdown calls (explicit + destructor); ordered
  /// before mu_.
  std::mutex shutdown_mu_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for work
  std::condition_variable space_cv_;  ///< kBlock submitters wait for room
  std::condition_variable drain_cv_;  ///< Drain/Shutdown wait for quiet
  std::deque<TaskPtr> warm_queue_ GUARDED_BY(mu_);
  std::deque<TaskPtr> cold_queue_ GUARDED_BY(mu_);
  /// Cold tasks parked behind an in-flight same-key leader. Their
  /// queue slots stay held (they are queued work, just not runnable).
  std::unordered_map<std::string, std::vector<TaskPtr>> parked_
      GUARDED_BY(mu_);
  /// Stream producers parked on a full chunk buffer, keyed by task
  /// identity. No queue slots held (the submission was admitted); the
  /// stream's space hook or the shutdown sweep takes them out.
  std::unordered_map<const Task*, TaskPtr> parked_streams_ GUARDED_BY(mu_);

  /// Lifetime gate for space hooks. A hook lives inside a
  /// ResultStream, and stream handles legally outlive the engine — so
  /// a hook must never touch the engine raw. Hooks capture this
  /// shared gate; Shutdown nulls `engine` under the gate's mutex as
  /// its last act, which both blocks until any in-flight hook has
  /// left the engine and turns every later firing into a no-op.
  struct HookGate {
    std::mutex mu;
    AsyncQueryEngine* engine GUARDED_BY(mu) = nullptr;
  };
  std::shared_ptr<HookGate> hook_gate_;
  std::unordered_set<std::string> cold_inflight_keys_ GUARDED_BY(mu_);
  size_t cold_inflight_ GUARDED_BY(mu_) = 0;
  /// Accepted entries not yet started.
  size_t queued_slots_ GUARDED_BY(mu_) = 0;
  /// Accepted tasks not yet resolved.
  size_t outstanding_ GUARDED_BY(mu_) = 0;
  /// Submitters inside the kBlock capacity wait. Shutdown must not
  /// return (and the object must not die) until every one of them has
  /// woken and released mu_ — they still touch members on the way out.
  size_t blocked_submitters_ GUARDED_BY(mu_) = 0;
  uint64_t cold_coalesced_ GUARDED_BY(mu_) = 0;
  bool accepting_ GUARDED_BY(mu_) = true;
  bool paused_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;

  LaneCounters warm_counters_;
  LaneCounters cold_counters_;

  /// Stream accounting (plain counters guarded by mu_; histograms and
  /// the chunk counter live in the registry and are recorded lock-free
  /// by producers).
  struct StreamCounters {
    uint64_t accepted = 0;   // guarded by mu_
    uint64_t completed = 0;  // guarded by mu_
    uint64_t cancelled = 0;  // guarded by mu_
    uint64_t failed = 0;     // guarded by mu_
    uint64_t rejected = 0;   // guarded by mu_
    uint64_t parks = 0;      // guarded by mu_
    Counter* chunks = nullptr;
    LatencyHistogram* ttfc = nullptr;
    LatencyHistogram* chunk_gap = nullptr;
  };
  StreamCounters stream_counters_;

  /// Wait histograms recorded for every request (the timestamps
  /// already exist on these paths); sampled traces additionally fold
  /// the same waits into the engine_stage_* histograms.
  LatencyHistogram* h_cold_coalesce_wait_ = nullptr;
  LatencyHistogram* h_stream_park_wait_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_ASYNC_ENGINE_H_
