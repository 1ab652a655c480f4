// The policy-aware query engine: the serving layer above the planner.
//
//   PolicyRegistry   named policies + the data they protect + ε caps
//                    (sharded by name hash; handles skip the hash)
//   PlanCache        (policy, options) -> shared plan; planner /
//                    spanner / matrix work runs once per policy
//   BudgetAccountant per-policy and per-session ε ledgers (sharded by
//                    id hash), charged atomically before any noise is
//                    drawn
//   QueryEngine      Submit / SubmitBatch / SubmitStream over one
//                    request path (below)
//
// The request path. Every entry point runs the same four steps, each
// written once:
//   resolve  validate the request (shape, ε) → session → policy
//            snapshot → domain check. Per request.
//   admit    get-or-plan, then one atomic two-ledger ε charge. Per
//            group: a Submit or a stream is a group of one; SubmitBatch
//            resolves every entry, groups them by (session, policy,
//            planner options) and admits each group once.
//   release  derive the request's private rng stream, fetch the cached
//            noise-free precompute, draw the noise on the cheapest path
//            the plan supports, state the guarantee. Submit and batch
//            entries materialize the answers; a stream wraps the same
//            release in a cursor.
//   finish   failure/refusal and latency metrics, the per-(policy,
//            tenant) metrics and flight record with real timings, a
//            due journal checkpoint, and the trace — on every outcome.
//
// The warm hot path is handle-based. OpenSession / ResolveSession and
// ResolvePolicy hand out integer handles; a QueryRequest carrying them
// submits with zero string construction and zero map hashing: the
// session handle indexes its accountant shard directly, the policy
// handle indexes its registry shard, the plan comes from the snapshot's
// own plan slot, the charge records a structured audit tag (shared
// context string, no formatting), and the noise-free release
// precompute (database transform, component totals — for general
// graphs a conjugate-gradient solve) is cached per (policy, version)
// in a sharded engine cache. String-id requests still work and pay
// only one hash per lookup.
//
// Release paths. A dense workload is answered as W x̂ from the plan's
// full-histogram release. An implicit range workload on a θ>=2 grid
// policy instead routes to GridThetaRangeMechanism's per-query slab
// reconstruction (noise drawn once per submit into summed-area tables,
// each queried range read in O(1)); on any other policy it is answered
// from the histogram release via a summed-area table. All
// paths charge the same ε and state the same guarantee.
//
// Privacy semantics. Every submit is one sequential-composition step:
// it spends its ε on the policy's global cap (the data owner's bound
// across *all* sessions, DPolicy-style release accounting) and on the
// caller's session grant. A submit whose ε no ledger can afford fails
// with kOutOfRange *before* the mechanism runs, so refused queries
// leak nothing; the refusal names neither ledger to the caller (the
// audit log keeps the detail). Answers are post-processing of the
// submit's noisy releases and are free: one release answers the whole
// workload. A batch group is charged once — Σε under sequential
// composition, or max ε when the caller declares the batch's
// workloads disjoint-domain (BatchOptions::disjoint_domains, the
// paper's parallel-composition rule: one neighbor step touches one
// part).
//
// Concurrency. Registry and accountant are sharded (see their
// headers), plans and precomputes are immutable after construction
// with caller-provided randomness — each release derives a private Rng
// stream from the engine seed and a release counter, so concurrent
// submits are reproducible-in-aggregate and never share generator
// state.

#ifndef BLOWFISH_ENGINE_QUERY_ENGINE_H_
#define BLOWFISH_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/budget_accountant.h"
#include "engine/obs_server.h"
#include "engine/plan_cache.h"
#include "engine/policy_registry.h"
#include "engine/stream.h"
#include "engine/telemetry.h"
#include "workload/workload.h"

namespace blowfish {

/// What a bounded submission queue does with a submit it cannot hold.
enum class QueueFullPolicy {
  kReject,  ///< fail immediately with kUnavailable (default)
  kBlock,   ///< block the submitter until space frees up
};

struct EngineOptions {
  /// Root seed for the engine's per-submit random streams. Leave
  /// unset in deployments: a predictable seed lets an adversary
  /// regenerate the noise and undo the privacy guarantee, so the
  /// default draws fresh entropy (Rng::EntropySeed) per engine. Set
  /// it only for reproducible tests and benchmarks.
  std::optional<uint64_t> seed;
  /// Plan (and precompute the release transform) at registration time
  /// so the first submit is already warm.
  bool warm_plan_cache = false;
  /// Byte budget for the plan cache (modeled plan footprints; 0 =
  /// unbounded, the historical behavior). When set, the cache evicts
  /// least-recently-used plans so resident bytes never exceed the
  /// budget; evicted plans simply re-plan on next contact. Snapshot
  /// plan slots are unaffected (at most two plans per live policy,
  /// dying with the snapshot).
  size_t plan_cache_bytes = 0;
  /// Byte budget for the per-(policy, version) noise-free transform
  /// cache (0 = unbounded). An insert that pushes the global total
  /// over budget evicts globally least-recently-used entries (shard
  /// locks taken one at a time), sparing the just-inserted entry
  /// until the very last resort — so resident bytes return under
  /// budget before the insert returns, stale idle entries in any
  /// shard age out, and a hot new transform is never thrashed by cold
  /// resident ones. Evicted transforms recompute on next contact
  /// (single-flight, as on first touch).
  size_t transform_cache_bytes = 0;

  // ---- AsyncQueryEngine knobs (ignored by the synchronous engine) ----

  /// Worker threads draining the submission queue; 0 means
  /// hardware_concurrency.
  size_t async_workers = 0;
  /// Bound on queued-but-not-started requests across both lanes (a
  /// batch counts one slot per entry). Must be >= 1.
  size_t async_queue_capacity = 1024;
  /// What SubmitAsync does when the queue is at capacity.
  QueueFullPolicy async_queue_full = QueueFullPolicy::kReject;
  /// Destructor behavior: false (default) resolves still-queued
  /// futures with kCancelled; true drains the queue first.
  bool async_drain_on_destruct = false;

  // ---- telemetry knobs (see engine/telemetry.h) ----

  /// Fraction of submits carrying a full per-stage trace (validate →
  /// resolve → plan → charge → release, plus the async waits). 0 (the
  /// default) turns the sampler into a single load — no clocks, no
  /// allocation on the hot path; small rates (0.01) are cheap enough
  /// to stay on in production.
  double trace_sample_rate = 0.0;
  /// Events retained by the ε-audit ring (spends and refusals, with
  /// post-charge balances). 0 disables audit capture entirely.
  size_t audit_log_capacity = 4096;

  // ---- operability-plane knobs (see engine/obs_server.h) ----

  /// TCP port of the in-process scrape server (/metrics, /varz,
  /// /healthz, /flightz on 127.0.0.1). -1 (default) disables it; 0
  /// binds an ephemeral port (tests/benches — obs_server()->port()
  /// reports what was bound). A bind failure never fails the engine:
  /// obs_server() stays null and obs_error() carries the reason.
  int obs_port = -1;
  /// Distinct (policy, tenant) label tuples each per-tenant metric
  /// family retains before collapsing new tuples into one `other`
  /// series (see MetricFamily — a hostile tenant minting fresh ids
  /// cannot explode exposition cardinality). 0 disables per-tenant
  /// labeled metrics entirely.
  size_t tenant_metrics_capacity = 64;
  /// Requests retained by the always-on flight recorder (rounded up
  /// to a power of two; independent of trace_sample_rate). 0 disables.
  size_t flight_recorder_capacity = 4096;
  /// When set, the first incident (a durability refusal, or a refusal
  /// burst — see the burst knobs) dumps the flight ring to this file
  /// as JSONL, while it still holds the pre-incident traffic.
  std::string flight_dump_path;
  /// Incident detector: fire when `flight_burst_refusals` budget
  /// refusals land within `flight_burst_window` consecutive records.
  uint32_t flight_burst_window = 256;
  uint32_t flight_burst_refusals = 32;
  /// ε burn-rate alerting (SRE-style two-window burn, evaluated per
  /// ledger inside the charge — see BurnRateConfig). On by default:
  /// the evaluation is O(1) arithmetic under locks the charge already
  /// holds.
  bool burn_alerts_enabled = true;
  double burn_fast_window_s = 60.0;
  double burn_slow_window_s = 600.0;
  /// Alert when both windows' spend rates project ledger exhaustion
  /// within this horizon.
  double burn_alert_horizon_s = 600.0;
  /// Alerts retained by the burn-alert ring (fired + cleared events,
  /// JSONL-exportable). The active/fired counters work regardless.
  size_t burn_alert_capacity = 256;
  /// Test seam: burn-rate clock (wall micros). Null uses the system
  /// clock. Lets a test script an exact spend schedule and pin the
  /// exact charge on which an alert trips.
  std::function<int64_t()> burn_clock_micros;

  // ---- durability knobs (see engine/ledger_journal.h) ----

  /// Directory of the crash-safe ε-spend journal. Empty (default)
  /// keeps the historical in-memory-only accounting. Non-empty:
  /// recovery runs at engine construction (replaying the journal to
  /// bit-exact ledger balances; ledgers re-opened under recovered ids
  /// resume pre-crash spends), every charge is write-ahead journaled
  /// and fsync'd before it commits, and a charge whose record cannot
  /// be made durable is refused with kUnavailableDurability — the
  /// engine fails closed. Prefer QueryEngine::Open over the plain
  /// constructor so recovery failures surface as a Status.
  std::string journal_path;
  /// Active-segment size triggering journal rotation + checkpoint.
  size_t journal_segment_bytes = 4u << 20;
  /// Bounded retry budget for transient journal I/O errors.
  int journal_io_retries = 4;
  /// Base backoff between journal I/O retries (deterministic jitter).
  uint32_t journal_retry_backoff_micros = 200;
  /// Recovery: truncate a crash-torn final record instead of refusing
  /// startup. Mid-journal corruption and seq gaps refuse regardless.
  bool journal_allow_torn_tail = false;
  /// Checkpoint + compact the journal automatically when it flags
  /// itself due (runs after each request, under all accountant shard
  /// locks). Off: the caller drives CheckpointJournal() itself.
  bool journal_auto_checkpoint = true;
  /// Test seam: pluggable journal I/O (fault injection; not owned).
  /// Null uses POSIX.
  JournalIo* journal_io = nullptr;

  // ---- snapshot-store knobs (see engine/snapshot_store.h) ----

  /// Directory of the warm-restart snapshot store. Empty (default)
  /// disables it. Non-empty: construction maps the newest valid
  /// snapshot generation and pre-populates the registry, the plan
  /// slots, and the transform cache, so previously-warm requests
  /// readmit without replanning or recomputing — bit-identically,
  /// since transforms round trip as IEEE bit patterns. Strictly
  /// fail-open: a missing or corrupt snapshot means a cold start
  /// (older generations are tried first), never a refusal — unlike
  /// the journal, the snapshot carries no privacy state, only
  /// recomputable caches. WriteSnapshot() persists the next
  /// generation.
  std::string snapshot_path;
  /// Snapshot generations retained on disk after a successful
  /// WriteSnapshot (>= 1 enforced; 2 keeps one fallback for a torn
  /// newest file).
  size_t snapshot_keep_generations = 2;
};

/// \brief One query: a linear workload against a registered policy,
/// spending `epsilon` from the session's and the policy's budgets.
///
/// The workload is carried either densely (`workload`, an explicit
/// q×k matrix) or implicitly (`ranges`, axis-aligned range queries) —
/// exactly one of the two. Range requests against a θ>=2 grid policy
/// take the engine's fast path: per-query slab reconstruction instead
/// of a full k×k histogram release, with identical privacy semantics
/// and budget charges. Range requests against any other policy are
/// answered from the policy's histogram release via a summed-area
/// table — the dense matrix is never materialized either way.
///
/// `session_handle` / `policy_handle`, when valid, replace the string
/// lookups entirely (the strings are then ignored): a warm submit
/// carrying both performs no string construction or map hashing.
struct QueryRequest {
  std::string session;
  std::string policy;
  /// From OpenSession/ResolveSession; overrides `session` when valid.
  LedgerHandle session_handle;
  /// From ResolvePolicy; overrides `policy` when valid. Survives
  /// ReplacePolicy (it names the binding), dies on UnregisterPolicy.
  PolicyHandle policy_handle;
  Workload workload;
  std::optional<RangeWorkload> ranges;
  double epsilon = 0.0;
  /// Planner option: prefer data-dependent estimation (DAWA).
  bool prefer_data_dependent = false;
};

/// \brief A successful release.
struct QueryResult {
  Vector answers;             ///< one entry per workload query
  std::string plan_kind;      ///< strategy family the planner chose
  bool plan_cache_hit = false;
  /// True when the answers came from per-query range reconstruction
  /// (θ>=2 grid fast path) rather than a full-histogram release.
  bool range_fast_path = false;
  PrivacyGuarantee guarantee;  ///< stated for this release's ε
  /// Post-charge ledger balances, read atomically inside the charge
  /// itself (no later lock round-trip). nullopt only on paths that
  /// could not observe the ledger (never for a successful submit);
  /// an exhausted ledger reports 0.0.
  std::optional<double> session_remaining;
  std::optional<double> policy_remaining;
};

/// \brief Batch-wide submission options.
struct BatchOptions {
  /// The caller declares that the batch's workloads operate on
  /// disjoint sub-domains of each policy's histogram. Each
  /// (session, policy) group is then charged max(ε_i) once — the
  /// parallel-composition rule — instead of Σε_i. The engine cannot
  /// verify the disjointness claim; stating it falsely voids the
  /// stated guarantee, exactly as in the paper's Theorem 5.4 usage.
  bool disjoint_domains = false;
};

/// \brief Concurrent facade over registry + cache + accountant.
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = EngineOptions());

  /// Constructs an engine, surfacing journal recovery failure as a
  /// Status. The plain constructor cannot report one, so it instead
  /// leaves the engine *poisoned*: every request refuses with the
  /// recovery error and no charge is ever admitted unjournaled. Use
  /// this factory whenever `options.journal_path` is set.
  static Result<std::unique_ptr<QueryEngine>> Open(EngineOptions options);

  /// OK when charges can be made durable: no journal configured, or a
  /// journal that opened cleanly and is not poisoned. The recovery
  /// error (construction) or the sticky kUnavailableDurability
  /// (poisoned at runtime) otherwise.
  Status durability_health() const;

  /// Forces a journal checkpoint + compaction now (snapshots every
  /// ledger under all accountant shard locks). kInvalidArgument when
  /// the engine has no journal.
  Status CheckpointJournal();

  /// The crash-safe spend journal, or null when durability is off
  /// (stats and tests).
  const LedgerJournal* journal() const { return journal_.get(); }

  /// Serializes the current registry + plan slots + transform cache
  /// as the next snapshot generation under
  /// EngineOptions::snapshot_path (atomic: write-temp + fsync +
  /// rename + directory fsync; a crash mid-write never touches the
  /// previous generation). State is collected under brief per-shard
  /// locks; serialization and I/O run with no engine lock held.
  /// kInvalidArgument when no snapshot path is configured.
  Status WriteSnapshot();

  /// \brief What construction restored from the snapshot store (all
  /// zeros / false when no snapshot was configured or none was
  /// valid). Written once during construction, immutable after.
  struct SnapshotRestoreStats {
    bool loaded = false;          ///< a valid generation was mapped
    uint64_t generation = 0;      ///< its generation number
    size_t policies_restored = 0;
    size_t plans_restored = 0;       ///< plan slots pre-populated
    size_t transforms_restored = 0;  ///< precomputes pre-populated
    /// Sections present in the snapshot but not restored (stale
    /// version, failed validation, unknown family) — each one is a
    /// fail-open fallback to cold compute, not an error.
    size_t items_skipped = 0;
    /// Corrupt/unreadable generation files that were passed over
    /// ("file: reason"), newest first.
    std::vector<std::string> skipped_files;
  };
  const SnapshotRestoreStats& snapshot_restore_stats() const {
    return snapshot_restore_stats_;
  }

  /// Publishes `policy` and the histogram it protects; `epsilon_cap`
  /// bounds total spend across all sessions for the life of the entry.
  Status RegisterPolicy(const std::string& name, Policy policy, Vector data,
                        double epsilon_cap);

  /// Swaps data/policy under an existing name: cached plans are
  /// invalidated and the new entry gets its own fresh ε ledger (new
  /// data is a fresh privacy resource). Budget ledgers are keyed by
  /// (name, version), so in-flight submits that snapshotted the old
  /// entry drain against the *old* data's cap — a replace can never
  /// let the new data's cap absorb old-data releases or vice versa.
  /// Superseded ledgers stay open until the name is unregistered.
  /// Policy handles survive and see the new entry.
  Status ReplacePolicy(const std::string& name, Policy policy, Vector data,
                       double epsilon_cap);

  /// Unpublishes a policy and closes its budget ledgers. New submits
  /// get kNotFound; an in-flight submit holding a snapshot keeps its
  /// (immutable) policy and data, but fails with kNotFound if it has
  /// not yet charged the budget when the ledgers close — it never
  /// releases unaccounted noise.
  Status UnregisterPolicy(const std::string& name);

  /// Opens a session entitled to spend `epsilon_budget` in total.
  Status OpenSession(const std::string& session_id, double epsilon_budget);

  /// Closes a session; later submits on it get kNotFound.
  Status CloseSession(const std::string& session_id);

  /// The open session's ledger handle (for handle-carrying requests).
  Result<LedgerHandle> ResolveSession(const std::string& session_id) const;

  /// The registered policy's handle (for handle-carrying requests).
  Result<PolicyHandle> ResolvePolicy(const std::string& name) const {
    return registry_.Resolve(name);
  }

  /// Executes one request. Errors: kNotFound (unknown session or
  /// policy, or a stale handle), kInvalidArgument (workload/domain
  /// mismatch, an ε that is not a finite positive normal double, both
  /// or neither workload representation set), kOutOfRange (session or
  /// policy budget exhausted — charged before any noise is drawn, so a
  /// refusal releases nothing).
  ///
  /// `trace` is a caller-owned span (the async pipeline passes the
  /// span it started at enqueue so queue-wait and admission stages land
  /// on one trace): stages are recorded into it, but the caller
  /// finishes it. Null (the default) means the engine samples and
  /// finishes its own.
  Result<QueryResult> Submit(const QueryRequest& request,
                             RequestTrace* trace = nullptr);

  /// Executes one request as a result stream instead of a
  /// materialized answer vector. Admission — validate, resolve, plan,
  /// charge ε atomically — is identical to Submit, and *all* noise is
  /// drawn before this returns, so the stream's chunks are pure
  /// post-processing of releases the charge already covers. The
  /// returned stream is in inline mode: Next() computes the next
  /// chunk on the consumer's own thread (use
  /// AsyncQueryEngine::SubmitStreamAsync for a worker-produced,
  /// flow-controlled channel). Concatenating every chunk is
  /// bit-identical to Submit's answer vector for the same engine
  /// state and seed. Cancelling mid-stream keeps the ledger charge.
  /// Errors mirror Submit's.
  Result<std::shared_ptr<ResultStream>> SubmitStream(
      QueryRequest request, const StreamOptions& options = StreamOptions());

  /// Streaming admission primitive behind SubmitStream (also used by
  /// the async pipeline): the same resolve → admit → release → finish
  /// as Submit — ε is spent here and the noise drawn — but the release
  /// fills `header` and returns the resumable cursor over the answers.
  /// The request is taken by value so its workload moves into the
  /// cursor instead of being deep-copied (a dense W can be large —
  /// streaming exists to avoid duplicating exactly that). `trace`
  /// follows Submit's contract.
  Result<std::unique_ptr<ChunkCursor>> AdmitStream(
      QueryRequest request, const StreamOptions& options, StreamHeader* header,
      RequestTrace* trace = nullptr);

  /// Executes a batch; entry i is the outcome of request i. Every
  /// entry is resolved on its own, then entries are grouped by
  /// (session, policy snapshot, planner options): each group plans
  /// once and charges the budget once — Σε_i (sequential
  /// composition), or max ε_i when `options.disjoint_domains`
  /// declares the batch disjoint. A failed
  /// entry does not stop the rest of the batch; if a group's combined
  /// sequential charge does not fit, the group degrades to per-entry
  /// charges in batch order (admitting the prefix the budget affords,
  /// exactly as individual Submits would). A disjoint group charges
  /// all-or-nothing: parallel composition covers the whole set or
  /// none of it. The call samples one trace covering all its entries.
  std::vector<Result<QueryResult>> SubmitBatch(
      const std::vector<QueryRequest>& batch,
      const BatchOptions& options = BatchOptions());

  /// Registry metadata snapshot; kNotFound if absent.
  Result<PolicyMetadata> GetPolicyMetadata(const std::string& name) const;

  Result<double> SessionRemaining(const std::string& session_id) const;
  Result<double> PolicyRemaining(const std::string& name) const;
  /// Human-readable spend trail: budget, spent ε and charge count, then
  /// one line per ε-audit ring event naming the session's ledger (a
  /// reopened id also lists its predecessor's). The ring is bounded;
  /// a last line counts the charges it no longer holds, which only a
  /// configured ledger journal keeps (tools/ledger_fsck reads it).
  Result<std::string> SessionAudit(const std::string& session_id) const;

  /// True when submitting `request` now would run no expensive cold
  /// work: the target snapshot's plan slot *and* its noise-free
  /// release precompute are already cached. Requests that cannot
  /// resolve a policy at all also count as warm — they fail fast
  /// without planning. When the request is cold and `cold_key` is
  /// non-null, it receives the (policy, version, options) plan-cache
  /// key, the unit of cold single-flight.
  bool IsWarm(const QueryRequest& request,
              std::string* cold_key = nullptr) const;

  const EngineOptions& options() const { return options_; }

  /// The engine's observability bundle: metrics registry (every
  /// component registers here — the async pipeline adds its lane
  /// metrics to the same registry), the ε-audit event log, the
  /// always-on flight recorder, and the trace sampler/ring. See
  /// engine/telemetry.h.
  EngineTelemetry& telemetry() { return telemetry_; }
  const EngineTelemetry& telemetry() const { return telemetry_; }

  /// The in-process scrape server, or null when EngineOptions::
  /// obs_port is unset (or binding failed — see obs_error()).
  const ObsServer* obs_server() const { return obs_server_.get(); }
  /// Why the scrape server is not running (OK when it is, or when it
  /// was never requested). A bind failure degrades observability but
  /// never the data plane, so it is reported here instead of failing
  /// engine construction.
  const Status& obs_error() const { return obs_error_; }

  /// The composed health probe /healthz serves: 200 (ok) while
  /// charges can be made durable, 503 the moment durability_health()
  /// refuses — the same fail-closed signal requests are refused
  /// with. The JSON body additionally reports snapshot generation, async queue
  /// depths, active burn alerts, and audit/trace ring drops (context
  /// for the on-call, not part of the up/down decision).
  HealthReport Healthz() const;

  PlanCache::Stats plan_cache_stats() const { return plan_cache_.stats(); }
  size_t num_policies() const { return registry_.size(); }
  std::vector<std::string> Names() const { return registry_.Names(); }
  /// Cached noise-free release precomputes across all shards (tests).
  size_t transform_cache_entries() const;

  /// \brief Observability for the byte-budgeted transform cache.
  struct TransformCacheStats {
    size_t entries = 0;
    size_t bytes = 0;        ///< Σ ApproxBytes of resident precomputes
    uint64_t evictions = 0;  ///< LRU removals (0 when unbounded)
  };
  TransformCacheStats transform_cache_stats() const;

 private:
  using PrecomputePtr =
      std::shared_ptr<const BlowfishMechanism::ReleasePrecompute>;
  using Clock = std::chrono::steady_clock;

  /// What the request path establishes before any noise is drawn.
  /// Resolve fills the session ledger and policy snapshot; Admit adds
  /// the plan and the already-committed charge's balances.
  struct Admission {
    std::shared_ptr<const RegisteredPolicy> entry;
    std::shared_ptr<const Plan> plan;
    LedgerHandle session_ledger;
    bool cache_hit = false;
    double remaining[2] = {0.0, 0.0};  ///< post-charge session/policy
  };

  /// Resolve: the one per-request check — validate shape and ε →
  /// session → policy snapshot → domain. Stages kValidate/kResolve
  /// land in `trace`. A poisoned engine refuses here, before any work.
  Status Resolve(const QueryRequest& request, Admission* admission,
                 RequestTrace* trace);

  /// Admit: the one plan + charge, for one request or one batch group
  /// of `count` resolved entries led by `first` (its planner option
  /// picks the plan, its workload name labels the charge). `epsilon` is
  /// the group's composed ask; `disjoint` declares a parallel-
  /// composition charge over the `count` releases. On success ε is
  /// spent and the caller must release. Stages kPlan/kCharge.
  Status Admit(const QueryRequest& first, size_t count, double epsilon,
               bool disjoint, Admission* admission, RequestTrace* trace);

  /// Release: the one dispatch, run only after Admit charged. Derives
  /// the request's private rng stream, fetches the noise-free
  /// precompute, fills `header`'s plan, balances, path and guarantee
  /// (`Header` is QueryResult or StreamHeader), and draws the noise.
  /// A range workload on a θ>=2 grid plan takes the slab fast path:
  /// `on_slab(mech, xg, n, rng)` draws and reconstructs on the
  /// transformed data (transformed per submit if the precompute did
  /// not split). Every other request releases the histogram:
  /// `on_estimate(x̂)`. Materialize and BuildCursor are its two tails.
  template <typename Header, typename OnSlab, typename OnEstimate>
  void DrawRelease(const Admission& admission, const QueryRequest& request,
                   Header* header, OnSlab&& on_slab, OnEstimate&& on_estimate);

  /// Release tail of Submit and batch entries: the answer vector.
  void Materialize(const Admission& admission, const QueryRequest& request,
                   QueryResult* result);

  /// Release tail of streams: the resumable cursor over the answers.
  /// All noise is drawn before it returns. Moves the request's
  /// workload into the cursor; its ids stay for Finish.
  std::unique_ptr<ChunkCursor> BuildCursor(const Admission& admission,
                                           QueryRequest* request,
                                           const StreamOptions& options,
                                           StreamHeader* header);

  /// Finish: the one post-request step, run on every outcome path of
  /// every entry point — refusal count, Submit failure and latency
  /// metrics (only when `submit`: batches and streams have their own
  /// counters), RecordRequestObs with admission (`start` → `admitted`)
  /// and total (`start` → now) timings, a due journal checkpoint, and
  /// `owned_trace` when the engine sampled the span itself (null
  /// otherwise). `admitted` is read only when obs is enabled.
  void Finish(bool submit, const QueryRequest& request,
              const RegisteredPolicy* entry, const Status& status,
              double charged_epsilon, Clock::time_point start,
              Clock::time_point admitted, RequestTrace* owned_trace);

  /// Post-release housekeeping: when the journal has flagged a
  /// checkpoint due (and auto-checkpointing is on), snapshot + compact.
  /// Best-effort — a failed compaction leaves the journal longer,
  /// never wrong.
  void MaybeCheckpointJournal();

  /// Construction-time warm restart: maps the newest valid snapshot
  /// generation and re-registers its policies (claiming their
  /// persisted versions), replans each recorded plan slot (spanner
  /// stretch is re-certified, which costs well under a millisecond),
  /// and pre-populates the transform cache from the decoded
  /// precomputes.
  /// Every failure is fail-open: the item is skipped and recomputed
  /// lazily on first contact. Runs before any submit can exist, so it
  /// touches the shards without contention.
  void RestoreFromSnapshot();

  /// Per-snapshot plan slot fast path, falling back to the
  /// single-flight string-keyed cache on cold misses.
  Result<std::shared_ptr<const Plan>> GetOrPlan(
      const std::shared_ptr<const RegisteredPolicy>& entry,
      bool prefer_data_dependent, bool* cache_hit);

  /// Cached noise-free precompute for (entry version, options slot);
  /// single-flight per key so a cold-policy herd runs the transform
  /// (a CG solve on general graphs) once. Null if the plan's
  /// mechanism has no precompute split.
  PrecomputePtr GetOrPrecompute(const RegisteredPolicy& entry,
                                const Plan& plan, bool prefer_data_dependent);

  /// Evicts the cached precomputes of one superseded snapshot. The
  /// cache is sharded by key hash, so eviction addresses exactly the
  /// shards holding the snapshot's two option slots.
  void DropTransformed(const RegisteredPolicy& entry);

  static size_t PrecomputeShardOf(uint64_t key);

  /// The bounded-cardinality tenant label of a session id: the prefix
  /// before the first ':', '/', '#', or '@' — the conventional
  /// class/instance separators ("analytics:worker-17" → "analytics").
  /// Ids with no separator are their own class. A view into
  /// `session_id`, no allocation.
  static std::string_view TenantClassOf(const std::string& session_id);

  /// Per-request observability fan-out, called by Finish: bumps the
  /// per-(policy, tenant) metric families and appends a flight record
  /// (running the incident detector; the first incident dumps the ring
  /// to options_.flight_dump_path). One branch when both features are
  /// disabled. `entry` may be null when the request failed before
  /// policy resolution; `charged_epsilon` is the ε this request
  /// actually added to the ledgers (0 on failures, and on batch
  /// entries whose group charge was attributed elsewhere).
  void RecordRequestObs(const QueryRequest& request,
                        const RegisteredPolicy* entry, const Status& status,
                        double charged_epsilon, uint32_t admit_us,
                        uint32_t total_us);

  static std::string SessionLedger(const std::string& session_id);
  static std::string PolicyLedger(const std::string& name, uint64_t version);
  static std::string PolicyLedgerPrefix(const std::string& name);

  EngineOptions options_;
  uint64_t seed_;  ///< resolved from options_.seed or entropy
  /// Declared before the accountant: the accountant holds a raw
  /// pointer to the audit log and appends during Charge, so the
  /// telemetry bundle must be destroyed after it.
  EngineTelemetry telemetry_;
  /// Crash-safe spend journal; null when options_.journal_path is
  /// empty. Declared after the telemetry bundle (its counters live in
  /// the registry) and before the accountant (which holds a raw
  /// pointer and appends during Charge), so destruction runs
  /// accountant -> journal -> telemetry.
  std::unique_ptr<LedgerJournal> journal_;
  /// Set when the plain constructor could not open/recover the
  /// journal: the engine is poisoned and Resolve refuses every request
  /// with this status (fail closed — never serve unjournaled charges).
  Status journal_error_;
  PolicyRegistry registry_;
  PlanCache plan_cache_;
  BudgetAccountant accountant_;

  // Hot-path metric handles (registered once in the constructor;
  // updates are relaxed atomics — see MetricsRegistry).
  Counter* m_submits_;           ///< Submit attempts (incl. refused)
  Counter* m_failures_;          ///< Submit attempts that failed
  Counter* m_refused_budget_;    ///< failures that were kOutOfRange
  Counter* m_batches_;           ///< SubmitBatch calls
  Counter* m_batch_entries_;     ///< entries across all batches
  Counter* m_streams_;           ///< stream admissions attempted
  DoubleCounter* m_eps_charged_; ///< Σε across successful charges
  LatencyHistogram* m_submit_latency_;  ///< every Submit, end to end
  HistogramFamily* f_plan_latency_;     ///< cold planning per Plan::kind

  // Per-(policy, tenant) labeled families (null when
  // options_.tenant_metrics_capacity == 0). Updates are the family's
  // lock-free probe + a relaxed atomic — see MetricFamily.
  CounterFamily* f_tenant_requests_ = nullptr;
  CounterFamily* f_tenant_failures_ = nullptr;
  CounterFamily* f_tenant_refused_ = nullptr;
  DoubleCounterFamily* f_tenant_eps_ = nullptr;
  HistogramFamily* f_tenant_latency_ = nullptr;
  /// False when both per-tenant families and the flight recorder are
  /// off: RecordRequestObs is then a single branch (hot-path
  /// discipline: no clocks, no locks, no atomics beyond what the
  /// unlabeled metrics already pay).
  bool obs_enabled_ = false;

  /// session id -> ledger handle; lets string-id submits reach the
  /// accountant without building the "session/…" ledger id.
  mutable std::shared_mutex sessions_mu_;
  std::unordered_map<std::string, LedgerHandle> sessions_
      GUARDED_BY(sessions_mu_);
  /// handle bits -> tenant class, for handle-only warm submits whose
  /// request carries no session string. Written by OpenSession /
  /// CloseSession; RecordRequestObs copies the (short) class into a
  /// stack buffer under the shared lock, so a concurrent close can
  /// never dangle it.
  std::unordered_map<uint64_t, std::string> session_tenants_
      GUARDED_BY(sessions_mu_);

  /// Sharded (version << 1 | dd-option) -> precompute cache. Integer
  /// keys: versions are registry-unique, so no name string is ever
  /// built. The gates map holds one per-key mutex per in-progress
  /// cold precompute (single-flight without blocking other policies'
  /// first touches). When EngineOptions::transform_cache_bytes is
  /// set, entries carry recency stamps and the inserting shard evicts
  /// oldest-first until the *global* byte budget holds (see
  /// EnforceTransformBudgetLocked).
  static constexpr size_t kPrecomputeShards = 8;
  struct PrecomputeEntry {
    PrecomputePtr pre;       ///< may be null: memoized "no split"
    size_t bytes = 0;        ///< ApproxBytes at insert
    uint64_t last_used = 0;  ///< recency stamp; used when budgeted
  };
  struct PrecomputeShard {
    mutable std::shared_mutex mu;
    std::unordered_map<uint64_t, PrecomputeEntry> entries GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::shared_ptr<std::mutex>> gates
        GUARDED_BY(mu);
  };
  PrecomputeShard precompute_shards_[kPrecomputeShards];

  /// Brings the transform cache back under its global byte budget
  /// after an insert: repeatedly evicts the globally least-recently-
  /// used entry (shard locks taken one at a time — never nested, so
  /// concurrent inserts cannot deadlock). The entry under
  /// `protect_key` — the one just inserted, presumably hot — is
  /// spared until everything else is gone, then evicted itself if it
  /// alone exceeds the budget.
  void EnforceTransformBudget(uint64_t protect_key);

  std::atomic<uint64_t> transform_clock_{0};
  std::atomic<size_t> transform_bytes_{0};
  std::atomic<uint64_t> transform_evictions_{0};

  /// Filled once by RestoreFromSnapshot() during construction (no
  /// concurrent access exists yet), read-only afterwards.
  SnapshotRestoreStats snapshot_restore_stats_;

  std::atomic<uint64_t> submit_counter_{0};
  /// Serializes policy lifecycle ops (register/replace/unregister) so
  /// their registry + ledger steps compose atomically against each
  /// other. Submits never take this lock.
  std::mutex admin_mu_;

  /// Why obs_server_ is null despite obs_port being set (OK
  /// otherwise). Written once in the constructor.
  Status obs_error_;
  /// The in-process scrape server; null unless options_.obs_port >=
  /// 0 bound successfully. Declared LAST: its handlers call back into
  /// the telemetry bundle, the accountant, and the journal, so it
  /// must be destroyed (listener joined) before any of them.
  std::unique_ptr<ObsServer> obs_server_;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_QUERY_ENGINE_H_
