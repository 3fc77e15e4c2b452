#include "service/engine_registry.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "query/analysis.h"
#include "util/cancel.h"
#include "util/check.h"

namespace shapcq {

namespace {

// Report-cache key of the exact table. ApproxSpec::CacheKey() always
// contains commas, so the empty string can never collide with it.
constexpr const char* kExactKey = "";

// Whether a report-builder error is a deadline outcome (the structured
// [E_DEADLINE] payload from DeadlineExceededMessage).
bool IsDeadlineError(const std::string& error) {
  return error.rfind("[E_DEADLINE]", 0) == 0;
}

// RAII inflight gauge: counts reports between admission and response, so
// STATS can show how many are executing right now. Deterministically 0 in
// any serial transcript (STATS never runs concurrently with a report
// there), hence safe to print in golden sessions.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<size_t>* gauge) : gauge_(gauge) {
    gauge_->fetch_add(1, std::memory_order_relaxed);
  }
  ~InflightGuard() { gauge_->fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<size_t>* gauge_;
};

// Serving copy of a cached full table: the k highest-ranked rows (0 = all),
// with the engine label and the full efficiency total — exactly what
// FillAndRankRows would have produced with ReportOptions::top_k set.
AttributionReport TruncatedCopy(const AttributionReport& full, size_t top_k) {
  AttributionReport copy;
  copy.engine = full.engine;
  copy.total = full.total;
  copy.approximate = full.approximate;
  copy.approx = full.approx;
  const size_t rows = top_k > 0 && top_k < full.rows.size()
                          ? top_k
                          : full.rows.size();
  copy.rows.assign(full.rows.begin(),
                   full.rows.begin() + static_cast<ptrdiff_t>(rows));
  return copy;
}

// Even ceil-share of a registry-wide limit for one of `stripes` stripes
// (0 stays "unlimited"; stripes == 1 keeps the limit verbatim).
size_t StripeShare(size_t limit, size_t stripes) {
  if (limit == 0 || stripes <= 1) return limit;
  return (limit + stripes - 1) / stripes;
}

}  // namespace

// One open session. The Database is heap-allocated so its address survives
// unordered_map rehashes and registry moves — the incremental engine holds a
// pointer to it across calls.
struct EngineRegistry::Session {
  CQ query;
  std::unique_ptr<Database> db;
  std::optional<ShapleyEngine> engine;
  size_t engine_bytes = 0;   // last ApproxMemoryBytes estimate
  uint64_t last_used = 0;    // LRU stamp from the stripe clock
  uint64_t mutation_epoch = 0;  // bumped by every applied mutation
  // One cached full table per epoch. A kExactKey entry is the table ranked
  // by the resident engine: polling reports with no intervening delta skip
  // the whole evaluation and ranking pass (cleared with the engine on
  // eviction). Every other key is an ApproxSpec::CacheKey(): sampling-tier
  // tables, bounded by RegistryOptions::max_approx_cached_reports with
  // least-recently-served eviction, independent of engine residency.
  struct CachedTable {
    AttributionReport table;
    uint64_t epoch = 0;
    uint64_t last_served = 0;
  };
  std::map<std::string, CachedTable> report_cache;
  bool exact_capable = true;       // false = approx-only session
  std::string approx_only_reason;  // classification shown to exact reports
  size_t deltas_applied = 0;
  size_t deltas_since_refresh = 0;  // mutation-path estimate amortizer
  size_t reports_served = 0;
  size_t engine_builds = 0;
  size_t deadline_exceeded = 0;  // expired reports, degraded or not
};

// One lock stripe: a private session map, LRU clock and residency
// accounting, all guarded by `mutex`. Commands on sessions in different
// stripes never contend.
struct EngineRegistry::Stripe {
  mutable std::mutex mutex;
  std::unordered_map<std::string, Session> sessions;
  uint64_t clock = 0;  // monotone use counter backing this stripe's LRU
  size_t resident_bytes = 0;
  size_t resident_engines = 0;
  // Commands currently blocked on `mutex` (the backpressure signal; relaxed
  // ordering suffices for an advisory admission bound).
  std::atomic<size_t> queued{0};
  size_t byte_budget = 0;   // this stripe's ceil-share of the byte budget
  size_t max_resident = 0;  // this stripe's ceil-share of the engine cap
};

struct EngineRegistry::Impl {
  RegistryOptions options;
  std::vector<std::unique_ptr<Stripe>> stripes;

  // OPEN order for SessionIds(), under its own mutex (never held together
  // with a stripe mutex).
  mutable std::mutex order_mutex;
  std::vector<std::string> session_order;

  // Registry-wide counters: atomics, so stripes bump them without sharing a
  // lock. resident_engines/resident_bytes live per stripe (they back the
  // eviction policy) and are summed by stats().
  std::atomic<size_t> open_sessions{0};
  std::atomic<size_t> report_hits{0};
  std::atomic<size_t> report_cache_hits{0};
  std::atomic<size_t> report_misses{0};
  std::atomic<size_t> evictions{0};
  std::atomic<size_t> engine_builds{0};
  std::atomic<size_t> overloads{0};
  std::atomic<size_t> approx_reports{0};
  std::atomic<size_t> deadline_exceeded{0};
  std::atomic<size_t> degraded_to_approx{0};
  std::atomic<size_t> inflight{0};

  Stripe& StripeFor(const std::string& id) {
    return *stripes[std::hash<std::string>{}(id) % stripes.size()];
  }
  const Stripe& StripeFor(const std::string& id) const {
    return *stripes[std::hash<std::string>{}(id) % stripes.size()];
  }

  // Locks the stripe, honoring the admission bound: with max_stripe_queue
  // set, a command finding more than that many commands already waiting
  // fails fast (lock left unlocked) instead of joining the queue.
  bool LockAdmitted(Stripe& stripe, std::unique_lock<std::mutex>* lock) {
    *lock = std::unique_lock<std::mutex>(stripe.mutex, std::defer_lock);
    if (options.max_stripe_queue == 0) {
      lock->lock();
      return true;
    }
    if (lock->try_lock()) return true;
    const size_t waiting =
        stripe.queued.fetch_add(1, std::memory_order_relaxed) + 1;
    if (waiting > options.max_stripe_queue) {
      stripe.queued.fetch_sub(1, std::memory_order_relaxed);
      overloads.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    lock->lock();
    stripe.queued.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  void Evict(Stripe& stripe, Session& session) {
    SHAPCQ_CHECK(session.engine.has_value());
    SHAPCQ_CHECK(stripe.resident_engines > 0);
    SHAPCQ_CHECK(stripe.resident_bytes >= session.engine_bytes);
    stripe.resident_bytes -= session.engine_bytes;
    --stripe.resident_engines;
    evictions.fetch_add(1, std::memory_order_relaxed);
    session.engine.reset();
    // The exact table cache rides with the engine; approx entries are
    // epoch-validated and engine-independent, so they stay.
    session.report_cache.erase(kExactKey);
    session.engine_bytes = 0;
  }

  // Updates the current session's byte estimate and evicts this stripe's
  // least-recently-used engines until both stripe shares hold. `current`
  // (the session that just served a request) is evicted only last, if it
  // alone exceeds a limit. Caller holds the stripe mutex.
  void EnforceBudget(Stripe& stripe, Session& current) {
    if (current.engine.has_value()) {
      const size_t fresh = current.engine->ApproxMemoryBytes();
      stripe.resident_bytes += fresh - current.engine_bytes;
      current.engine_bytes = fresh;
    }
    current.deltas_since_refresh = 0;
    auto over = [&stripe] {
      return (stripe.byte_budget > 0 &&
              stripe.resident_bytes > stripe.byte_budget) ||
             (stripe.max_resident > 0 &&
              stripe.resident_engines > stripe.max_resident);
    };
    while (over()) {
      Session* victim = nullptr;
      for (auto& [id, session] : stripe.sessions) {
        (void)id;
        if (!session.engine.has_value() || &session == &current) continue;
        if (victim == nullptr || session.last_used < victim->last_used) {
          victim = &session;
        }
      }
      if (victim == nullptr) {
        // Only the current engine is resident and it alone breaks a limit:
        // honor the budget between requests by evicting it too.
        if (current.engine.has_value()) Evict(stripe, current);
        return;
      }
      Evict(stripe, *victim);
    }
  }

  // The sampling-tier report path: cached per (ApproxSpec key, epoch),
  // recomputed statelessly through BuildAttributionReport otherwise (the
  // approx engine needs no residency — its state is the database itself).
  // Caller holds the stripe mutex.
  Result<AttributionReport> ApproxReportLocked(Stripe& stripe,
                                               Session& session,
                                               const ReportOptions& options) {
    approx_reports.fetch_add(1, std::memory_order_relaxed);
    const std::string key = options.approx.CacheKey();
    auto it = session.report_cache.find(key);
    if (it != session.report_cache.end() &&
        it->second.epoch == session.mutation_epoch) {
      report_cache_hits.fetch_add(1, std::memory_order_relaxed);
      ++session.reports_served;
      session.last_used = ++stripe.clock;
      it->second.last_served = session.last_used;
      return Result<AttributionReport>::Ok(
          TruncatedCopy(it->second.table, options.top_k));
    }
    ReportOptions full = options;
    full.top_k = 0;
    auto built = BuildAttributionReport(session.query, *session.db, full);
    if (!built.ok()) return Result<AttributionReport>::Error(built.error());
    ++session.reports_served;
    session.last_used = ++stripe.clock;
    AttributionReport served =
        TruncatedCopy(built.value(), options.top_k);
    if (this->options.max_approx_cached_reports > 0) {
      Session::CachedTable entry;
      entry.table = std::move(built).value();
      entry.epoch = session.mutation_epoch;
      entry.last_served = session.last_used;
      session.report_cache[key] = std::move(entry);
      EnforceApproxCacheBound(session);
    }
    return Result<AttributionReport>::Ok(std::move(served));
  }

  // Drops least-recently-served approx entries (and any stale-epoch ones
  // first — they can never be served again) until the per-session bound
  // holds. Caller holds the stripe mutex.
  void EnforceApproxCacheBound(Session& session) {
    const size_t bound = options.max_approx_cached_reports;
    auto approx_count = [&session] {
      return session.report_cache.size() -
             session.report_cache.count(kExactKey);
    };
    for (auto it = session.report_cache.begin();
         it != session.report_cache.end() && approx_count() > bound;) {
      if (it->first != kExactKey &&
          it->second.epoch != session.mutation_epoch) {
        it = session.report_cache.erase(it);
      } else {
        ++it;
      }
    }
    while (approx_count() > bound) {
      auto victim = session.report_cache.end();
      for (auto it = session.report_cache.begin();
           it != session.report_cache.end(); ++it) {
        if (it->first == kExactKey) continue;
        if (victim == session.report_cache.end() ||
            it->second.last_served < victim->second.last_served) {
          victim = it;
        }
      }
      session.report_cache.erase(victim);
    }
  }

  // One deadline expiry, resolved under the stripe lock: bump the counters,
  // then either degrade to a sample-bounded sampling answer
  // (on_deadline = kApprox and the caller allows it) or return the
  // structured [E_DEADLINE] error. Degraded tables are never cached — they
  // are a deadline artifact, not a requested spec, and must not shadow a
  // future honest approx entry.
  Result<AttributionReport> DeadlineOutcomeLocked(Stripe& stripe,
                                                  Session& session,
                                                  const ReportOptions& options,
                                                  bool allow_degrade) {
    deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    ++session.deadline_exceeded;
    if (allow_degrade && options.on_deadline == OnDeadline::kApprox) {
      degraded_to_approx.fetch_add(1, std::memory_order_relaxed);
      approx_reports.fetch_add(1, std::memory_order_relaxed);
      ReportOptions full = options;
      full.top_k = 0;
      auto built =
          BuildDegradedApproxReport(session.query, *session.db, full);
      if (!built.ok()) {
        return Result<AttributionReport>::Error(built.error());
      }
      ++session.reports_served;
      session.last_used = ++stripe.clock;
      return Result<AttributionReport>::Ok(
          TruncatedCopy(built.value(), options.top_k));
    }
    return Result<AttributionReport>::Error(
        DeadlineExceededMessage(options.deadline_ms));
  }

  // The locked core of Report/ReportRendered: dispatches exact vs approx,
  // ensures residency on the exact path, serves from the epoch cache when
  // valid, re-ranks otherwise, then enforces the stripe budget. Caller
  // holds the stripe mutex.
  Result<AttributionReport> ReportLocked(Stripe& stripe, Session& session,
                                         const ReportOptions& options) {
    InflightGuard inflight_guard(&inflight);
    // One token per request: a caller-owned token wins, else deadline_ms
    // arms a local one; nullptr keeps the whole machinery off the path.
    CancelToken deadline_token;
    const CancelToken* cancel = options.cancel;
    if (cancel == nullptr && options.deadline_ms > 0) {
      deadline_token.ArmDeadlineMillis(options.deadline_ms);
      cancel = &deadline_token;
    }
    if (cancel != nullptr && !cancel->Enabled()) cancel = nullptr;
    // Auto-dispatch: exact-capable sessions keep their exact path unless
    // the caller forces sampling; approx-only sessions require a spec.
    const bool use_approx =
        options.approx.enabled() &&
        (!session.exact_capable || options.approx.force);
    if (cancel != nullptr && cancel->Expired()) {
      // Already expired at admission (a zero/elapsed deadline): fail — or
      // degrade — before touching the cache or the engine, so the fast
      // path is deterministic. Sampling requests have no tier left below
      // them, so their expiry is always the error.
      return DeadlineOutcomeLocked(
          stripe, session, options,
          /*allow_degrade=*/!use_approx && session.exact_capable);
    }
    if (use_approx) {
      auto valid = options.approx.Validate();
      if (!valid.ok()) return Result<AttributionReport>::Error(valid.error());
      ReportOptions deadlined = options;
      deadlined.cancel = cancel;
      auto served = ApproxReportLocked(stripe, session, deadlined);
      if (!served.ok() && IsDeadlineError(served.error())) {
        // Terminal for the sampling tier: count it, no degradation.
        deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        ++session.deadline_exceeded;
      }
      return served;
    }
    if (!session.exact_capable) {
      return Result<AttributionReport>::Error(
          session.approx_only_reason +
          "; this session serves approx reports only "
          "(pass approx=EPS,DELTA)");
    }
    if (session.engine.has_value()) {
      report_hits.fetch_add(1, std::memory_order_relaxed);
      auto it = session.report_cache.find(kExactKey);
      if (it != session.report_cache.end() &&
          it->second.epoch == session.mutation_epoch) {
        // Steady-state polling: no delta since the cached table was ranked,
        // so it is the report, verbatim. Nothing resident changed size, so
        // the budget needs no re-enforcement either.
        report_cache_hits.fetch_add(1, std::memory_order_relaxed);
        ++session.reports_served;
        session.last_used = ++stripe.clock;
        it->second.last_served = session.last_used;
        return Result<AttributionReport>::Ok(
            TruncatedCopy(it->second.table, options.top_k));
      }
    } else {
      auto built = ShapleyEngine::Build(session.query, *session.db, cancel);
      if (!built.ok()) {
        if (CancelToken::IsCancelled(built.error())) {
          // The cancelled build was discarded whole — nothing resident,
          // nothing accounted, the database untouched.
          return DeadlineOutcomeLocked(stripe, session, options,
                                       /*allow_degrade=*/true);
        }
        return Result<AttributionReport>::Error(built.error());
      }
      session.engine.emplace(std::move(built).value());
      session.engine_bytes = 0;  // EnforceBudget refreshes the estimate
      report_misses.fetch_add(1, std::memory_order_relaxed);
      engine_builds.fetch_add(1, std::memory_order_relaxed);
      ++stripe.resident_engines;
      ++session.engine_builds;
    }
    // Compute and cache the FULL table (top_k applied per serve, so one
    // cache entry answers every truncation). The served copy is taken
    // before budget enforcement: EnforceBudget may evict the current engine
    // — and the cache with it — when it alone exceeds the stripe share.
    ReportOptions full = options;
    full.top_k = 0;
    auto computed = BuildAttributionReportFromEngine(*session.engine,
                                                     *session.db, full,
                                                     cancel);
    if (!computed.ok()) {
      if (IsDeadlineError(computed.error())) {
        // The sweep stopped between orbits: every finished value is pure
        // and stays warm, but the engine is resident with a stale (zero)
        // byte estimate — re-enforce the stripe accounting before the
        // lock drops so eviction pressure sees the truth.
        EnforceBudget(stripe, session);
        return DeadlineOutcomeLocked(stripe, session, options,
                                     /*allow_degrade=*/true);
      }
      return Result<AttributionReport>::Error(computed.error());
    }
    Session::CachedTable entry;
    entry.table = std::move(computed).value();
    entry.epoch = session.mutation_epoch;
    ++session.reports_served;
    session.last_used = ++stripe.clock;
    entry.last_served = session.last_used;
    AttributionReport served = TruncatedCopy(entry.table, options.top_k);
    session.report_cache[kExactKey] = std::move(entry);
    EnforceBudget(stripe, session);
    return Result<AttributionReport>::Ok(std::move(served));
  }
};

EngineRegistry::EngineRegistry(const RegistryOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  const size_t stripes =
      options.num_stripes == 0 ? 1 : options.num_stripes;
  impl_->stripes.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    auto stripe = std::make_unique<Stripe>();
    stripe->byte_budget = StripeShare(options.engine_byte_budget, stripes);
    stripe->max_resident = StripeShare(options.max_resident_engines, stripes);
    impl_->stripes.push_back(std::move(stripe));
  }
}
EngineRegistry::EngineRegistry() : EngineRegistry(RegistryOptions{}) {}
EngineRegistry::~EngineRegistry() = default;
EngineRegistry::EngineRegistry(EngineRegistry&&) noexcept = default;
EngineRegistry& EngineRegistry::operator=(EngineRegistry&&) noexcept = default;

Result<bool> EngineRegistry::Open(const std::string& session_id,
                                  const CQ& query) {
  // Fail at OPEN with the exact scope checks Build() would fail later, so a
  // session never accepts mutations it can not report on. Pure query
  // analysis — no need to hold the stripe lock yet.
  if (!IsSafe(query)) {
    return Result<bool>::Error("query has unsafe negation: " +
                               query.ToString());
  }
  if (!IsSelfJoinFree(query)) {
    return Result<bool>::Error("query has a self-join: " + query.ToString());
  }
  // Non-hierarchical (but evaluable) queries are FP^#P-hard for exact
  // Shapley, yet the sampling tier serves them: admit the session as
  // approx-only instead of rejecting the stream outright.
  const bool exact_capable = IsHierarchical(query);
  Stripe& stripe = impl_->StripeFor(session_id);
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (stripe.sessions.count(session_id) > 0) {
      return Result<bool>::Error("session " + session_id +
                                 " is already open");
    }
    Session session;
    session.query = query;
    session.db = std::make_unique<Database>();
    session.exact_capable = exact_capable;
    if (!exact_capable) {
      session.approx_only_reason =
          "query is not hierarchical: " + query.ToString();
    }
    stripe.sessions.emplace(session_id, std::move(session));
  }
  {
    std::lock_guard<std::mutex> lock(impl_->order_mutex);
    impl_->session_order.push_back(session_id);
  }
  impl_->open_sessions.fetch_add(1, std::memory_order_relaxed);
  return Result<bool>::Ok(exact_capable);
}

bool EngineRegistry::Has(const std::string& session_id) const {
  const Stripe& stripe = impl_->StripeFor(session_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  return stripe.sessions.count(session_id) > 0;
}

Result<FactId> EngineRegistry::ApplyMutation(const std::string& session_id,
                                             const MutationSpec& mutation) {
  auto outcome = Mutate(session_id, mutation, nullptr, nullptr);
  if (!outcome.ok()) return Result<FactId>::Error(outcome.error());
  return Result<FactId>::Ok(outcome.value().fact);
}

Result<MutationOutcome> EngineRegistry::Mutate(
    const std::string& session_id, const MutationSpec& mutation,
    const std::function<Result<bool>()>* write_ahead,
    const std::function<void(const Database&)>* post_apply) {
  using R = Result<MutationOutcome>;
  Stripe& stripe = impl_->StripeFor(session_id);
  std::unique_lock<std::mutex> lock;
  if (!impl_->LockAdmitted(stripe, &lock)) {
    return R::Error("[E_OVERLOAD] stripe command queue is full (bound " +
                    std::to_string(impl_->options.max_stripe_queue) + ")");
  }
  auto it = stripe.sessions.find(session_id);
  if (it == stripe.sessions.end()) {
    return R::Error("no open session " + session_id);
  }
  Session* session = &it->second;
  Database& db = *session->db;
  const FactSpec& fact = mutation.fact;

  if (impl_->options.max_session_facts > 0 &&
      mutation.op == MutationSpec::Op::kInsert &&
      db.fact_count() >= impl_->options.max_session_facts) {
    return R::Error("[E_FACT_CAP] session at fact cap " +
                    std::to_string(impl_->options.max_session_facts));
  }
  if (write_ahead != nullptr && *write_ahead) {
    // Write-ahead point: the record is durable before the mutation applies.
    // If the apply below fails, replay fails identically against the same
    // database state, so the logged record stays a faithful no-op. Running
    // it under the stripe lock keeps log order == apply order per session.
    auto logged = (*write_ahead)();
    if (!logged.ok()) return R::Error("[E_LOG_IO] " + logged.error());
  }

  Result<FactId> applied = Result<FactId>::Error("");
  if (mutation.op == MutationSpec::Op::kDelete) {
    const FactId victim = db.FindFact(fact.relation, fact.tuple);
    if (victim == kNoFact) {
      return R::Error("no such fact " + FactSpecToString(fact));
    }
    if (session->engine.has_value()) {
      applied = session->engine->DeleteFact(db, victim);
    } else {
      db.RemoveFact(victim);
      applied = Result<FactId>::Ok(victim);
    }
  } else if (session->engine.has_value()) {
    applied = session->engine->InsertFact(db, fact.relation, fact.tuple,
                                          fact.endogenous);
  } else {
    // No resident engine: run the same checks InsertFact would, with the
    // SAME message strings, then mutate the database directly — a protocol
    // transcript must not depend on whether the engine happened to be
    // resident (or evicted) when a delta failed.
    const RelationId rel = db.schema().Find(fact.relation);
    if (rel != kNoRelation && db.schema().arity(rel) != fact.tuple.size()) {
      return R::Error("InsertFact: arity mismatch for relation " +
                      fact.relation);
    }
    for (const Atom& atom : session->query.atoms()) {
      if (atom.relation == fact.relation &&
          atom.arity() != fact.tuple.size()) {
        return R::Error("InsertFact: arity mismatch with query atom " +
                        fact.relation);
      }
    }
    if (rel != kNoRelation && db.FindFact(rel, fact.tuple) != kNoFact) {
      return R::Error("InsertFact: duplicate fact in " + fact.relation);
    }
    applied = Result<FactId>::Ok(
        db.AddFact(fact.relation, fact.tuple, fact.endogenous));
  }
  if (!applied.ok()) return R::Error(applied.error());
  ++session->deltas_applied;
  ++session->mutation_epoch;
  session->last_used = ++stripe.clock;
  if (session->engine.has_value() &&
      impl_->options.refresh_every_deltas > 0 &&
      ++session->deltas_since_refresh >=
          impl_->options.refresh_every_deltas) {
    // The burst of mutations may have grown the index (new slices, wider
    // vectors): refresh the O(index) estimate every K-th delta so STATS is
    // at most K deltas stale, and let the byte budget evict here instead of
    // waiting for the next report. Amortized, so the delta path stays
    // O(dirtied path) on average.
    impl_->EnforceBudget(stripe, *session);
  }
  MutationOutcome outcome;
  outcome.fact = applied.value();
  outcome.fact_count = db.fact_count();
  outcome.endo_count = db.endogenous_count();
  if (post_apply != nullptr && *post_apply) (*post_apply)(db);
  return R::Ok(outcome);
}

Result<AttributionReport> EngineRegistry::Report(const std::string& session_id,
                                                 const ReportOptions& options) {
  Stripe& stripe = impl_->StripeFor(session_id);
  std::unique_lock<std::mutex> lock;
  if (!impl_->LockAdmitted(stripe, &lock)) {
    return Result<AttributionReport>::Error(
        "[E_OVERLOAD] stripe command queue is full (bound " +
        std::to_string(impl_->options.max_stripe_queue) + ")");
  }
  auto it = stripe.sessions.find(session_id);
  if (it == stripe.sessions.end()) {
    return Result<AttributionReport>::Error("no open session " + session_id);
  }
  return impl_->ReportLocked(stripe, it->second, options);
}

Result<RenderedReport> EngineRegistry::ReportRendered(
    const std::string& session_id, const ReportOptions& options) {
  Stripe& stripe = impl_->StripeFor(session_id);
  std::unique_lock<std::mutex> lock;
  if (!impl_->LockAdmitted(stripe, &lock)) {
    return Result<RenderedReport>::Error(
        "[E_OVERLOAD] stripe command queue is full (bound " +
        std::to_string(impl_->options.max_stripe_queue) + ")");
  }
  auto it = stripe.sessions.find(session_id);
  if (it == stripe.sessions.end()) {
    return Result<RenderedReport>::Error("no open session " + session_id);
  }
  Session& session = it->second;
  auto report = impl_->ReportLocked(stripe, session, options);
  if (!report.ok()) return Result<RenderedReport>::Error(report.error());
  RenderedReport rendered;
  rendered.rows = report.value().rows.size();
  rendered.endo_count = session.db->endogenous_count();
  rendered.text = RenderReport(report.value(), *session.db);
  return Result<RenderedReport>::Ok(std::move(rendered));
}

Result<bool> EngineRegistry::Close(const std::string& session_id) {
  Stripe& stripe = impl_->StripeFor(session_id);
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.sessions.find(session_id);
    if (it == stripe.sessions.end()) {
      return Result<bool>::Error("no open session " + session_id);
    }
    Session& session = it->second;
    if (session.engine.has_value()) {
      // Drop the engine's residency accounting without counting an eviction.
      SHAPCQ_CHECK(stripe.resident_engines > 0);
      --stripe.resident_engines;
      stripe.resident_bytes -= session.engine_bytes;
      session.engine.reset();  // before the Database it points into
    }
    stripe.sessions.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(impl_->order_mutex);
    auto& order = impl_->session_order;
    order.erase(std::find(order.begin(), order.end(), session_id));
  }
  impl_->open_sessions.fetch_sub(1, std::memory_order_relaxed);
  return Result<bool>::Ok(true);
}

Result<bool> EngineRegistry::VisitDatabase(
    const std::string& session_id,
    const std::function<void(const Database&)>& fn) const {
  const Stripe& stripe = impl_->StripeFor(session_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.sessions.find(session_id);
  if (it == stripe.sessions.end()) {
    return Result<bool>::Error("no open session " + session_id);
  }
  fn(*it->second.db);
  return Result<bool>::Ok(true);
}

const Database* EngineRegistry::FindDatabase(
    const std::string& session_id) const {
  const Stripe& stripe = impl_->StripeFor(session_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.sessions.find(session_id);
  return it == stripe.sessions.end() ? nullptr : it->second.db.get();
}

Result<SessionStats> EngineRegistry::Stats(
    const std::string& session_id) const {
  const Stripe& stripe = impl_->StripeFor(session_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.sessions.find(session_id);
  if (it == stripe.sessions.end()) {
    return Result<SessionStats>::Error("no open session " + session_id);
  }
  const Session& session = it->second;
  SessionStats stats;
  stats.fact_count = session.db->fact_count();
  stats.endo_count = session.db->endogenous_count();
  stats.deltas_applied = session.deltas_applied;
  stats.reports_served = session.reports_served;
  stats.engine_builds = session.engine_builds;
  stats.engine_resident = session.engine.has_value();
  stats.engine_bytes = session.engine_bytes;
  stats.exact_capable = session.exact_capable;
  stats.cached_exact_tables = session.report_cache.count(kExactKey);
  stats.cached_approx_tables =
      session.report_cache.size() - stats.cached_exact_tables;
  stats.deadline_exceeded = session.deadline_exceeded;
  return Result<SessionStats>::Ok(stats);
}

RegistryStats EngineRegistry::stats() const {
  RegistryStats stats;
  stats.open_sessions =
      impl_->open_sessions.load(std::memory_order_relaxed);
  stats.report_hits = impl_->report_hits.load(std::memory_order_relaxed);
  stats.report_cache_hits =
      impl_->report_cache_hits.load(std::memory_order_relaxed);
  stats.report_misses = impl_->report_misses.load(std::memory_order_relaxed);
  stats.evictions = impl_->evictions.load(std::memory_order_relaxed);
  stats.engine_builds = impl_->engine_builds.load(std::memory_order_relaxed);
  stats.overloads = impl_->overloads.load(std::memory_order_relaxed);
  stats.approx_reports = impl_->approx_reports.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      impl_->deadline_exceeded.load(std::memory_order_relaxed);
  stats.degraded_to_approx =
      impl_->degraded_to_approx.load(std::memory_order_relaxed);
  stats.inflight = impl_->inflight.load(std::memory_order_relaxed);
  for (const auto& stripe : impl_->stripes) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    stats.resident_engines += stripe->resident_engines;
    stats.resident_bytes += stripe->resident_bytes;
    for (const auto& [id, session] : stripe->sessions) {
      (void)id;
      const size_t exact = session.report_cache.count(kExactKey);
      stats.cached_exact_tables += exact;
      stats.cached_approx_tables += session.report_cache.size() - exact;
    }
  }
  return stats;
}

std::vector<std::string> EngineRegistry::SessionIds() const {
  std::lock_guard<std::mutex> lock(impl_->order_mutex);
  return impl_->session_order;
}

}  // namespace shapcq
