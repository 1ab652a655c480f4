// Result-streaming battery. The contract under test: a stream's
// chunks, concatenated, are bit-identical to the materialized Submit
// answer for the same engine state and seed (the chunks are pure
// post-processing of the same noisy releases); exactly one ε charge
// happens per stream, at admission; Cancel() frees the producer but
// keeps the charge; and the terminal status resolves exactly once —
// including under mid-stream cancellation, flow-control parking, and
// engine destruction with a live stream. Runs under TSan in CI with
// the other engine_* suites.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/async_engine.h"
#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

/// Default options with a fixed seed; plans are built on first use.
EngineOptions SeededOptions(uint64_t seed) {
  EngineOptions options;
  options.seed = seed;
  options.warm_plan_cache = false;
  return options;
}

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

/// Drains a stream; asserts chunks arrive in order with contiguous
/// offsets. Returns the concatenation; `terminal` receives the final
/// status (OK = kDone).
Vector Collect(ResultStream* stream, Status* terminal,
               size_t* num_chunks = nullptr) {
  Vector all;
  size_t chunks = 0;
  for (;;) {
    StreamChunk chunk;
    Result<StreamNext> next = stream->Next(&chunk);
    if (!next.ok()) {
      *terminal = next.status();
      break;
    }
    if (*next == StreamNext::kDone) {
      *terminal = Status::OK();
      break;
    }
    if (*next != StreamNext::kChunk) {
      ADD_FAILURE() << "blocking Next returned pending";
      *terminal = Status::Internal("pending from blocking Next");
      break;
    }
    EXPECT_EQ(chunk.offset, all.size()) << "chunks must be contiguous";
    EXPECT_FALSE(chunk.values.empty());
    all.insert(all.end(), chunk.values.begin(), chunk.values.end());
    ++chunks;
  }
  if (num_chunks != nullptr) *num_chunks = chunks;
  return all;
}

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "divergence at index " << i;
  }
}

RangeWorkload SomeRanges(size_t k, size_t count) {
  Rng rng(17);
  return RandomRanges(DomainShape({k, k}), count, &rng);
}

// ---------------------------------------------------------------------
// Determinism: chunk concatenation == Submit, per execution path.

TEST(StreamDeterminism, GridFastPathChunksMatchSubmit) {
  const size_t k = 16;
  const auto make_engine = [&] {
    auto engine = std::make_unique<QueryEngine>(SeededOptions(41));
    engine
        ->RegisterPolicy("slab", GridPolicy(DomainShape({k, k}), 4),
                         Ramp(k * k), 100.0)
        .Check();
    engine->OpenSession("s", 100.0).Check();
    return engine;
  };
  QueryRequest request;
  request.session = "s";
  request.policy = "slab";
  request.ranges = SomeRanges(k, 37);  // 37 % 8 != 0: uneven tail chunk
  request.epsilon = 0.5;

  auto materialized = make_engine();
  const QueryResult full = materialized->Submit(request).ValueOrDie();
  ASSERT_TRUE(full.range_fast_path);

  auto streamed = make_engine();
  StreamOptions options;
  options.chunk_queries = 8;
  const std::shared_ptr<ResultStream> stream =
      streamed->SubmitStream(request, options).ValueOrDie();
  const StreamHeader header = stream->header().ValueOrDie();
  EXPECT_TRUE(header.range_fast_path);
  EXPECT_EQ(header.total_answers, 37u);
  EXPECT_EQ(header.plan_kind, full.plan_kind);

  Status terminal = Status::Internal("unset");
  size_t chunks = 0;
  const Vector concat = Collect(stream.get(), &terminal, &chunks);
  EXPECT_TRUE(terminal.ok());
  EXPECT_EQ(chunks, (37 + 7) / 8);
  ExpectBitIdentical(concat, full.answers);

  // Exactly one ε charge, at admission — both engines drained the same.
  EXPECT_EQ(*streamed->SessionRemaining("s"),
            *materialized->SessionRemaining("s"));
  EXPECT_NEAR(*streamed->SessionRemaining("s"), 99.5, 1e-12);
}

TEST(StreamDeterminism, DenseRowBlocksMatchSubmit) {
  const size_t domain = 48;
  const auto make_engine = [&] {
    auto engine = std::make_unique<QueryEngine>(SeededOptions(42));
    engine->RegisterPolicy("line", LinePolicy(domain), Ramp(domain), 100.0)
        .Check();
    engine->OpenSession("s", 100.0).Check();
    return engine;
  };
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = CumulativeWorkload(domain);
  request.epsilon = 0.25;

  auto materialized = make_engine();
  const QueryResult full = materialized->Submit(request).ValueOrDie();

  auto streamed = make_engine();
  StreamOptions options;
  options.chunk_queries = 7;  // uneven tail again
  const std::shared_ptr<ResultStream> stream =
      streamed->SubmitStream(request, options).ValueOrDie();
  EXPECT_FALSE(stream->header().ValueOrDie().range_fast_path);

  Status terminal = Status::Internal("unset");
  const Vector concat = Collect(stream.get(), &terminal);
  EXPECT_TRUE(terminal.ok());
  ExpectBitIdentical(concat, full.answers);
}

TEST(StreamDeterminism, SummedAreaRangePathMatchesSubmit) {
  // Ranges against a non-grid policy answer from x̂ via the summed-area
  // table; the stream shares that table across chunks.
  const size_t domain = 64;
  const auto make_engine = [&] {
    auto engine = std::make_unique<QueryEngine>(SeededOptions(43));
    engine->RegisterPolicy("line", LinePolicy(domain), Ramp(domain), 100.0)
        .Check();
    engine->OpenSession("s", 100.0).Check();
    return engine;
  };
  std::vector<RangeQuery> queries;
  for (size_t i = 0; i + 4 < domain; i += 3) queries.push_back({{i}, {i + 4}});
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.ranges = RangeWorkload("windows", DomainShape({domain}), queries);
  request.epsilon = 0.25;

  auto materialized = make_engine();
  const QueryResult full = materialized->Submit(request).ValueOrDie();
  ASSERT_FALSE(full.range_fast_path);

  auto streamed = make_engine();
  StreamOptions options;
  options.chunk_queries = 5;
  const std::shared_ptr<ResultStream> stream =
      streamed->SubmitStream(request, options).ValueOrDie();
  Status terminal = Status::Internal("unset");
  const Vector concat = Collect(stream.get(), &terminal);
  EXPECT_TRUE(terminal.ok());
  ExpectBitIdentical(concat, full.answers);
}

TEST(StreamDeterminism, AsyncSingleWorkerMatchesSequentialSubmit) {
  const size_t k = 16;
  QueryRequest request;
  request.session = "s";
  request.policy = "slab";
  request.ranges = SomeRanges(k, 25);
  request.epsilon = 0.5;

  QueryEngine reference(SeededOptions(44));
  reference
      .RegisterPolicy("slab", GridPolicy(DomainShape({k, k}), 4), Ramp(k * k),
                      100.0)
      .Check();
  reference.OpenSession("s", 100.0).Check();
  const QueryResult full = reference.Submit(request).ValueOrDie();

  EngineOptions options;
  options.seed = 44;
  options.async_workers = 1;
  AsyncQueryEngine async(options);
  async.engine()
      .RegisterPolicy("slab", GridPolicy(DomainShape({k, k}), 4), Ramp(k * k),
                      100.0)
      .Check();
  async.engine().OpenSession("s", 100.0).Check();
  StreamOptions stream_options;
  stream_options.chunk_queries = 6;
  stream_options.max_buffered_chunks = 2;
  const std::shared_ptr<ResultStream> stream =
      async.SubmitStreamAsync(request, stream_options);
  EXPECT_TRUE(stream->header().ok());  // blocks until the worker admits
  Status terminal = Status::Internal("unset");
  const Vector concat = Collect(stream.get(), &terminal);
  EXPECT_TRUE(terminal.ok());
  ExpectBitIdentical(concat, full.answers);

  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.stream.accepted, 1u);
  EXPECT_EQ(stats.stream.completed, 1u);
  EXPECT_EQ(stats.stream.chunks_emitted, (25u + 5) / 6);
  // One ε charge, same as the sequential engine.
  EXPECT_EQ(*async.engine().SessionRemaining("s"),
            *reference.SessionRemaining("s"));
}

// ---------------------------------------------------------------------
// Lifecycle: cancellation, charges, terminal exactly-once.

TEST(StreamLifecycle, CancelKeepsChargeAndIsSticky) {
  QueryEngine engine(SeededOptions(45));
  engine.RegisterPolicy("line", LinePolicy(32), Ramp(32), 10.0).Check();
  engine.OpenSession("s", 10.0).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(32);
  request.epsilon = 1.0;

  StreamOptions options;
  options.chunk_queries = 4;
  const std::shared_ptr<ResultStream> stream =
      engine.SubmitStream(request, options).ValueOrDie();
  // ε left the ledger at admission, before any chunk was read.
  EXPECT_NEAR(*engine.SessionRemaining("s"), 9.0, 1e-12);

  StreamChunk chunk;
  ASSERT_EQ(*stream->Next(&chunk), StreamNext::kChunk);
  stream->Cancel();
  EXPECT_TRUE(stream->finished());
  // Sticky terminal: every later Next reports the same cancellation.
  for (int i = 0; i < 3; ++i) {
    const Result<StreamNext> next = stream->Next(&chunk);
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
  }
  // The charge stands — privacy was spent when the noise was drawn.
  EXPECT_NEAR(*engine.SessionRemaining("s"), 9.0, 1e-12);
  // Cancel after the fact stays a no-op, and the engine still serves.
  stream->Cancel();
  EXPECT_TRUE(engine.Submit(request).ok());
}

TEST(StreamLifecycle, AdmissionFailureArrivesAsTerminalStatus) {
  QueryEngine engine(SeededOptions(46));
  engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 0.5).Check();
  engine.OpenSession("s", 10.0).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 1.0;  // exceeds the policy cap
  // The sync API surfaces admission failures directly, like Submit.
  const auto refused = engine.SubmitStream(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  // Nothing was charged.
  EXPECT_NEAR(*engine.SessionRemaining("s"), 10.0, 1e-12);
  EXPECT_NEAR(*engine.PolicyRemaining("line"), 0.5, 1e-12);
}

TEST(StreamLifecycle, AsyncAdmissionFailureResolvesHeaderAndTerminal) {
  EngineOptions options;
  options.seed = 47;
  options.async_workers = 1;
  AsyncQueryEngine async(options);
  async.engine().RegisterPolicy("line", LinePolicy(16), Ramp(16), 0.5).Check();
  async.engine().OpenSession("s", 10.0).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 1.0;  // exceeds the policy cap
  const std::shared_ptr<ResultStream> stream =
      async.SubmitStreamAsync(request);
  const Result<StreamHeader> header = stream->header();
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
  StreamChunk chunk;
  const Result<StreamNext> next = stream->Next(&chunk);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(async.stats().stream.failed, 1u);
}

TEST(StreamLifecycle, CancelBeforeAdmissionAvoidsTheCharge) {
  EngineOptions options;
  options.seed = 48;
  options.async_workers = 1;
  AsyncQueryEngine async(options);
  async.engine().RegisterPolicy("line", LinePolicy(16), Ramp(16), 10.0).Check();
  async.engine().OpenSession("s", 10.0).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 1.0;

  async.Pause();  // hold the task in the queue
  const std::shared_ptr<ResultStream> stream = async.SubmitStreamAsync(request);
  stream->Cancel();
  // header() must resolve from the Cancel itself — no worker has (or
  // ever needs to have) touched the task; waiting here with the
  // pipeline still paused must not hang.
  const Result<StreamHeader> header = stream->header();
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kCancelled);
  async.Resume();
  async.Drain();
  // Nothing was released, so nothing was paid for.
  EXPECT_NEAR(*async.engine().SessionRemaining("s"), 10.0, 1e-12);
}

TEST(StreamLifecycle, MidStreamCancelFreesTheProducerSlot) {
  EngineOptions options;
  options.seed = 49;
  options.async_workers = 1;  // a stuck producer would deadlock this
  AsyncQueryEngine async(options);
  async.engine().RegisterPolicy("line", LinePolicy(64), Ramp(64), 1e6).Check();
  async.engine().OpenSession("s", 1e6).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(64);
  request.epsilon = 0.1;

  StreamOptions stream_options;
  stream_options.chunk_queries = 1;
  stream_options.max_buffered_chunks = 1;  // parks after the first chunk
  const std::shared_ptr<ResultStream> stream =
      async.SubmitStreamAsync(request, stream_options);
  StreamChunk chunk;
  ASSERT_EQ(*stream->Next(&chunk), StreamNext::kChunk);
  stream->Cancel();
  // The sole worker must come back: a plain submit still completes.
  EXPECT_TRUE(async.SubmitAsync(request).get().ok());
  async.Drain();
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.stream.cancelled, 1u);
  EXPECT_EQ(stats.stream.parked_now, 0u);
}

TEST(StreamLifecycle, DestructionWithLiveStreamResolvesCancelledExactlyOnce) {
  std::shared_ptr<ResultStream> stream;
  AsyncStats stats;
  {
    EngineOptions options;
    options.seed = 50;
    options.async_workers = 2;
    AsyncQueryEngine async(options);
    async.engine()
        .RegisterPolicy("line", LinePolicy(128), Ramp(128), 1e6)
        .Check();
    async.engine().OpenSession("s", 1e6).Check();
    QueryRequest request;
    request.session = "s";
    request.policy = "line";
    request.workload = IdentityWorkload(128);
    request.epsilon = 0.1;
    StreamOptions stream_options;
    stream_options.chunk_queries = 1;
    stream_options.max_buffered_chunks = 1;
    stream = async.SubmitStreamAsync(request, stream_options);
    // Let the producer reach the parked state (buffer full, worker
    // back in the pool), then tear the engine down around it.
    StreamChunk chunk;
    ASSERT_EQ(*stream->Next(&chunk), StreamNext::kChunk);
    stats = async.stats();
  }
  // The destructor's Shutdown(kCancelPending) swept the parked
  // producer; the consumer drains whatever was buffered (continuing
  // past the chunk already taken above), then observes kCancelled
  // forever after.
  EXPECT_EQ(stats.stream.accepted, 1u);
  Status terminal = Status::Internal("unset");
  size_t next_offset = 1;  // one single-query chunk consumed in scope
  for (;;) {
    StreamChunk drained;
    const Result<StreamNext> next = stream->Next(&drained);
    if (!next.ok()) {
      terminal = next.status();
      break;
    }
    ASSERT_NE(*next, StreamNext::kDone) << "cancelled stream ended kDone";
    EXPECT_EQ(drained.offset, next_offset);
    next_offset += drained.values.size();
  }
  EXPECT_EQ(terminal.code(), StatusCode::kCancelled);
  StreamChunk chunk;
  const Result<StreamNext> again = stream->Next(&chunk);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------
// Flow control and backpressure.

TEST(StreamFlowControl, SlowConsumerParksProducerAndLosesNothing) {
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(96);
  request.epsilon = 0.1;

  QueryEngine reference(SeededOptions(51));
  reference.RegisterPolicy("line", LinePolicy(96), Ramp(96), 1e6).Check();
  reference.OpenSession("s", 1e6).Check();
  const QueryResult full = reference.Submit(request).ValueOrDie();

  EngineOptions options;
  options.seed = 51;
  options.async_workers = 1;
  AsyncQueryEngine async(options);
  async.engine().RegisterPolicy("line", LinePolicy(96), Ramp(96), 1e6).Check();
  async.engine().OpenSession("s", 1e6).Check();
  StreamOptions stream_options;
  stream_options.chunk_queries = 8;
  stream_options.max_buffered_chunks = 1;
  const std::shared_ptr<ResultStream> stream =
      async.SubmitStreamAsync(request, stream_options);
  // Consume deliberately slowly: every pop resumes the parked producer
  // through the space hook for exactly one more chunk.
  Vector concat;
  Status terminal = Status::Internal("unset");
  for (;;) {
    StreamChunk chunk;
    Result<StreamNext> next = stream->Next(&chunk);
    if (!next.ok() || *next == StreamNext::kDone) {
      terminal = next.ok() ? Status::OK() : next.status();
      break;
    }
    EXPECT_EQ(chunk.offset, concat.size());
    concat.insert(concat.end(), chunk.values.begin(), chunk.values.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(terminal.ok());
  ExpectBitIdentical(concat, full.answers);
  const AsyncStats stats = async.stats();
  EXPECT_GE(stats.stream.producer_parks, 1u);
  EXPECT_EQ(stats.stream.completed, 1u);
  EXPECT_EQ(stats.stream.chunks_emitted, 96u / 8);
  // Peak residency stayed at the bounded buffer, far under the full
  // 96-answer vector.
  EXPECT_LE(stream->peak_resident_bytes(),
            (stream_options.max_buffered_chunks + 1) *
                stream_options.chunk_queries * sizeof(double));
}

TEST(StreamFlowControl, QueueFullRejectionDeliversUnavailableTerminal) {
  EngineOptions options;
  options.seed = 52;
  options.async_workers = 1;
  options.async_queue_capacity = 1;
  AsyncQueryEngine async(options);
  async.engine().RegisterPolicy("line", LinePolicy(16), Ramp(16), 1e6).Check();
  async.engine().OpenSession("s", 1e6).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.1;

  async.Pause();
  std::future<Result<QueryResult>> held = async.SubmitAsync(request);
  const std::shared_ptr<ResultStream> refused =
      async.SubmitStreamAsync(request);
  const Result<StreamHeader> header = refused->header();
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(async.stats().stream.rejected, 1u);
  async.Resume();
  EXPECT_TRUE(held.get().ok());
}

TEST(StreamFlowControl, TryNextReportsPendingWhileProducerIsHeld) {
  EngineOptions options;
  options.seed = 53;
  options.async_workers = 1;
  AsyncQueryEngine async(options);
  async.engine().RegisterPolicy("line", LinePolicy(16), Ramp(16), 1e6).Check();
  async.engine().OpenSession("s", 1e6).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.1;

  async.Pause();
  const std::shared_ptr<ResultStream> stream = async.SubmitStreamAsync(request);
  StreamChunk chunk;
  EXPECT_EQ(*stream->TryNext(&chunk), StreamNext::kPending);
  async.Resume();
  Status terminal = Status::Internal("unset");
  Collect(stream.get(), &terminal);
  EXPECT_TRUE(terminal.ok());
}

}  // namespace
}  // namespace blowfish
