// Single-pass exact Shapley values for ALL endogenous facts.
//
// The per-fact reduction (shapley.h) runs the full CntSat recursion twice per
// fact — an O(|Dn|) blow-up over what the recursion structure requires,
// because forcing one fact exogenous (or removing it) only perturbs the
// recursion along the root-to-leaf path that contains the fact. This engine
// exploits that:
//
//  1. Shared index. The matched-fact index (every fact matched against every
//     atom pattern) and the root-variable slice tree of the CntSat recursion
//     are built ONCE. Facts live in a flat arena; recursion slices are
//     vectors of arena indices, never copied Tuples.
//  2. Node memoization. The recursion tree is compiled into the flat
//     EngineArena (engine_arena.h): every node's |Sat| count vector, and per
//     child the convolution of all OTHER children's combine vectors (prefix
//     x suffix products), live in one contiguous cell buffer. A per-fact
//     value then needs only one difference vector pushed down the shared
//     root-to-leaf path, convolving against the memoized sibling product at
//     each ancestor.
//  3. Orbits. Facts whose leaf-to-root paths traverse structurally identical
//     (hash-consed signature-equal) children are symmetric players of the
//     game; one Shapley value is computed per orbit. Facts matching no atom
//     — and facts inconsistent at repeated root positions — are null players
//     with value 0, no computation at all.
//  4. Mutations. InsertFact/DeleteFact/ApplyDelta splice a fact into (or out
//     of) the arena and the affected leaf, then re-derive the memoized |Sat|
//     vectors only along the dirtied root-to-leaf path, convolving against
//     the still-valid sibling products; orbit signatures are re-hashed for
//     the dirty path and orbit keys regenerate lazily on the next query. The
//     engine therefore tracks a changing database without rebuilds — see
//     "Incremental maintenance" in DESIGN.md.
//
// Results are bit-identical to the per-fact path: both assemble
// Shapley(D,q,f) from the same two exact |Sat| vectors. After any mutation
// sequence they are bit-identical to a fresh Build() on the mutated
// database.

#ifndef SHAPCQ_CORE_SHAPLEY_ENGINE_H_
#define SHAPCQ_CORE_SHAPLEY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "query/cq.h"
#include "util/count_vector.h"
#include "util/rational.h"
#include "util/result.h"

namespace shapcq {

class CancelToken;  // util/cancel.h

/// One fact mutation for ShapleyEngine::ApplyDelta: an insert carries the
/// fact literal, a delete the (stable) FactId of a live fact.
struct FactDelta {
  enum class Op { kInsert, kDelete };

  Op op = Op::kInsert;
  std::string relation;    ///< kInsert: relation name
  Tuple tuple;             ///< kInsert: the tuple
  bool endogenous = true;  ///< kInsert: player or given
  FactId fact = kNoFact;   ///< kDelete: fact to remove

  static FactDelta Insert(std::string relation, Tuple tuple,
                          bool endogenous = true) {
    FactDelta delta;
    delta.op = Op::kInsert;
    delta.relation = std::move(relation);
    delta.tuple = std::move(tuple);
    delta.endogenous = endogenous;
    return delta;
  }
  static FactDelta Delete(FactId fact) {
    FactDelta delta;
    delta.op = Op::kDelete;
    delta.fact = fact;
    return delta;
  }
};

/// Execution options for the all-facts entry points. The default is the
/// serial path; num_threads > 1 shards the orbit-representative
/// re-evaluations over a worker pool. Results are bit-identical to serial at
/// every thread count: representatives are chosen in fixed endo-index order,
/// each value is a pure function of the built tree, and the merge writes
/// results into pre-assigned slots (see "Threading contract" in DESIGN.md).
struct ParallelOptions {
  /// Worker threads for all-facts queries. 1 = serial (no pool, no locks on
  /// the hot path); 0 = auto (std::thread::hardware_concurrency).
  size_t num_threads = 1;
};

/// All-facts exact Shapley computation over a shared CntSat index.
/// Build() once per (query, database); value queries are then cheap.
class ShapleyEngine {
 public:
  /// Build/query statistics, for tests and benchmarks.
  struct Stats {
    size_t node_count = 0;        ///< recursion tree nodes
    size_t arena_size = 0;        ///< facts matched into the shared arena
    size_t null_player_count = 0; ///< endogenous facts with Shapley ≡ 0
    size_t orbit_count = 0;       ///< distinct orbits among endogenous facts
  };

  /// Empty engine; the only way to get a usable one is Build().
  ShapleyEngine();
  ~ShapleyEngine();
  ShapleyEngine(ShapleyEngine&&) noexcept;
  ShapleyEngine& operator=(ShapleyEngine&&) noexcept;

  /// Builds the shared index and the recursion tree, then compiles the tree's
  /// count vectors into the flat EngineArena. Requires q safe,
  /// self-join-free and hierarchical (returns an error otherwise, mirroring
  /// CountSat). The database is captured by reference metadata only; it must
  /// outlive the engine. A non-null `cancel` token is polled at every
  /// recursion step of the tree build; on expiry Build unwinds promptly and
  /// returns the cancellation error (CancelToken::IsCancelled) — the
  /// partially built engine is discarded and the database is untouched, so
  /// a retry without a deadline is bit-identical to an uncancelled build.
  static Result<ShapleyEngine> Build(const CQ& q, const Database& db,
                                     const CancelToken* cancel = nullptr);

  /// |Sat(D,q,k)| for all k of the unmodified database — identical to
  /// CountSat(q, db).
  const CountVector& BaselineSat() const;

  /// Shapley(D,q,f). Aborts if f is exogenous.
  Rational Value(FactId f);

  /// Shapley values of every endogenous fact, endo-index order. Computes one
  /// value per orbit and shares it across the orbit's members.
  std::vector<Rational> AllValues();

  /// As AllValues(), with options.num_threads workers re-evaluating orbit
  /// representatives concurrently. Output is bit-identical to the serial
  /// path for every thread count. Concurrent calls into one engine are NOT
  /// supported — the engine parallelizes internally, it is not re-entrant.
  std::vector<Rational> AllValues(const ParallelOptions& options);

  /// Cancellable all-facts query: as AllValues(options), polling `cancel`
  /// before each orbit-representative evaluation (and between the
  /// level-parallel sweep's levels). On expiry it returns the
  /// cancellation error; every representative already evaluated stays
  /// memoized — each is a pure function of the built index, so a later
  /// (undeadlined) AllValues resumes from the partial memo and returns
  /// values bit-identical to a fresh engine's. nullptr/disabled tokens never
  /// cancel. Both other overloads are thin calls into this one.
  Result<std::vector<Rational>> AllValues(const ParallelOptions& options,
                                          const CancelToken* cancel);

  /// Orbit id of every endogenous fact, endo-index order. Ids are dense,
  /// first-seen order; all null players share one orbit. Facts with equal
  /// orbit ids are symmetric players (equal Shapley values by construction).
  std::vector<size_t> OrbitIds();

  // -------------------------------------------------------------------------
  // Incremental maintenance. All three mutators take the SAME database the
  // engine was built on (passed mutably so the call site owns the write;
  // aborts on a different database). They update the database and patch the
  // memoized tree along the single dirtied root-to-leaf path, so subsequent
  // queries are bit-identical to a fresh Build() on the mutated database.
  // Mutations are NOT thread-safe: mutate serially, between (possibly
  // parallel) query calls — see "Threading contract" in DESIGN.md.
  // -------------------------------------------------------------------------

  /// Adds the fact to the database and splices it into the index: into an
  /// existing empty leaf, a freshly built subtree for an unseen root value,
  /// or the free-fact counters for facts the query cannot join. Returns the
  /// new FactId, or an error for a duplicate tuple or arity mismatch (the
  /// database is untouched on error).
  Result<FactId> InsertFact(Database& db, const std::string& relation,
                            Tuple tuple, bool endogenous);

  /// Removes a live fact (tombstoning its id) and patches its leaf or free
  /// counter out of the index. Returns the removed id, or an error if the
  /// fact id is invalid or already removed (the database is untouched).
  Result<FactId> DeleteFact(Database& db, FactId fact);

  /// Applies the deltas in order; stops at the first failing delta (earlier
  /// deltas stay applied). Returns the FactId per delta: the inserted id for
  /// inserts, the removed id for deletes.
  Result<std::vector<FactId>> ApplyDelta(Database& db,
                                         const std::vector<FactDelta>& delta);

  /// Cancellable batch: as ApplyDelta, polling `cancel` between delta
  /// records (never inside a patch — each record's root-to-leaf patch is
  /// atomic with respect to cancellation). On expiry it returns the
  /// cancellation error; deltas applied before the expiry stay applied, in
  /// line with the first-failing-delta contract above, and engine state
  /// remains exactly "the prefix was applied" — bit-identical to a fresh
  /// Build() on the prefix-mutated database.
  Result<std::vector<FactId>> ApplyDelta(Database& db,
                                         const std::vector<FactDelta>& delta,
                                         const CancelToken* cancel);

  /// Statistics of the built engine. orbit_count is populated by AllValues /
  /// OrbitIds (0 before the first all-facts query).
  Stats stats() const;

  /// Approximate heap footprint of the engine's index in bytes: recursion
  /// nodes, memoized count vectors (BigInt limbs), partial products, the
  /// fact arena, routing maps, orbit keys and the per-orbit value memo. An
  /// estimate for the serving layer's byte-budgeted LRU eviction — monotone
  /// in index size, not an allocator audit. Excludes the Database itself
  /// (owned by the caller, retained across evictions).
  size_t ApproxMemoryBytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace shapcq

#endif  // SHAPCQ_CORE_SHAPLEY_ENGINE_H_
