// Attribution reports: the user-facing summary layer over the Shapley
// engines. Computes values for all endogenous facts with the best
// applicable algorithm, ranks them, and renders a fixed-width table.

#ifndef SHAPCQ_CORE_REPORT_H_
#define SHAPCQ_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/approx_engine.h"
#include "core/shapley_engine.h"
#include "db/database.h"
#include "query/analysis.h"
#include "query/cq.h"
#include "util/rational.h"
#include "util/result.h"

namespace shapcq {

class CancelToken;  // util/cancel.h

/// What an expired deadline on an exact report turns into: a structured
/// [E_DEADLINE] error (kError, the default), or a degradation to the
/// sampling tier (kApprox) — the caller still gets an answer, CI-annotated
/// with the usual "approx:" provenance line. Degraded runs are
/// sample-bounded (a default per-orbit sample cap), not re-deadlined: the
/// deadline budget applies to the exact attempt.
enum class OnDeadline { kError, kApprox };

/// The canonical [E_DEADLINE] error payload. `deadline_ms` = 0 means the
/// expiry came from a caller-supplied token rather than a millisecond
/// budget. Deterministic (no timing content), so transcripts stay golden.
std::string DeadlineExceededMessage(size_t deadline_ms);

/// One fact's attribution. The confidence fields are meaningful only on
/// approximate reports (AttributionReport::approximate): the true Shapley
/// value lies within ci_radius of `value`, jointly over all rows, with
/// probability at least 1 - delta.
struct Attribution {
  FactId fact = kNoFact;
  Rational value;
  double ci_radius = 0.0;  // 0 on exact reports
  size_t samples = 0;      // 0 on exact reports and provably-zero rows
};

/// Provenance of an approximate report (AttributionReport::approx).
struct ApproxReportInfo {
  double epsilon = 0.0;
  double delta = 0.0;
  uint64_t seed = 0;
  size_t samples_per_orbit = 0;
  size_t samples_total = 0;
  size_t orbit_count = 0;      ///< symmetry orbits over the endo facts
  size_t sampled_orbits = 0;   ///< orbits that drew samples (rest are
                               ///< provably zero)
  bool budget_capped = false;  ///< max_samples cut the Hoeffding count
                               ///< (intervals widen accordingly)
  std::string orbit_source;    ///< "engine" or "signature"
  std::string dispatch_reason; ///< classifier verdict that routed here
};

/// A full attribution of a query answer to the endogenous facts.
struct AttributionReport {
  std::vector<Attribution> rows;  // sorted by descending value
  std::string engine;             // "CntSat", "ExoShap", "approx-fpras" or
                                  // "brute-force"
  Rational total;                 // = q(D) − q(Dx) by efficiency (for
                                  // approx: the sum of the estimates)
  bool approximate = false;       // rows carry (ci_radius, samples)
  ApproxReportInfo approx;        // populated iff `approximate`
};

/// Options for BuildAttributionReport.
struct ReportOptions {
  ExoRelations exo;               // all-exogenous relations, if known
  bool allow_brute_force = false; // permit the exponential fallback
  size_t brute_force_limit = 20;  // max |Dn| for the fallback
  size_t num_threads = 1;         // worker threads for the all-facts engines
                                  // (1 = serial, 0 = hardware concurrency);
                                  // values are identical at any setting
  size_t top_k = 0;               // keep only the k highest-ranked rows
                                  // (0 = all); `total` stays the full
                                  // efficiency total either way
  ApproxSpec approx;              // sampling tier: disabled unless
                                  // approx.enabled(); with approx.force the
                                  // sampler runs even on tractable queries
  size_t deadline_ms = 0;         // wall-clock budget for the report
                                  // (0 = none). Covers the CntSat build +
                                  // sweep and the sampling tier; expiry
                                  // yields [E_DEADLINE] or, per
                                  // on_deadline, an approx degradation
  OnDeadline on_deadline =        // policy when the deadline expires on an
      OnDeadline::kError;         // exact report (see OnDeadline)
  const CancelToken* cancel =     // caller-owned token; non-null overrides
      nullptr;                    // deadline_ms (used by the service layer,
                                  // which scopes one token per request)
};

/// Computes Shapley values for every endogenous fact, choosing CntSat for
/// hierarchical queries, ExoShap when `options.exo` removes all
/// non-hierarchical paths, the sampling tier when `options.approx` is
/// enabled (the only engine for FP^#P-hard queries beyond the brute-force
/// limit; with approx.force it preempts the exact engines too), and (only
/// if allowed) brute force otherwise. Returns an error when no permitted
/// engine applies.
Result<AttributionReport> BuildAttributionReport(const CQ& q,
                                                 const Database& db,
                                                 const ReportOptions& options);

/// The deadline-degradation entry: a sample-bounded sampling report for a
/// query whose exact report just blew its deadline. Honors a
/// caller-provided approx spec; otherwise uses a coarse default (eps=0.25,
/// delta=0.1, max_samples=512). Signature-stratified — it never rebuilds
/// the exact index — and never re-deadlined (the deadline budget belonged
/// to the exact attempt). Its cost is not bounded by the sample cap: it
/// compiles the query's lineage, one pass over the positive homomorphisms
/// of the full database held as O(#homomorphisms × |q|) memory. Shared by
/// BuildAttributionReport's on_deadline=approx path and the serving
/// registry's.
Result<AttributionReport> BuildDegradedApproxReport(
    const CQ& q, const Database& db, const ReportOptions& options);

/// Attribution table served from a live (possibly mutated) ShapleyEngine:
/// the long-lived-service path, where the index is maintained incrementally
/// by InsertFact/DeleteFact instead of rebuilt per report. `db` must be the
/// database the engine was built on and has been mutating.
AttributionReport BuildAttributionReportFromEngine(
    ShapleyEngine& engine, const Database& db, const ReportOptions& options);

/// Cancellable form of the above: polls `cancel` at orbit boundaries of the
/// value sweep and returns the [E_DEADLINE] payload on expiry. The engine
/// keeps every orbit value it finished (each is a pure function of the
/// index), so a later undeadlined report is bit-identical to a fresh
/// engine's. nullptr/disabled tokens reduce to the plain overload.
Result<AttributionReport> BuildAttributionReportFromEngine(
    ShapleyEngine& engine, const Database& db, const ReportOptions& options,
    const CancelToken* cancel);

/// Fixed-width text rendering of a report (fact, exact value, decimal).
/// Approximate reports add an "approx:" provenance line and per-row
/// confidence columns; exact reports render byte-identically to before the
/// sampling tier existed.
std::string RenderReport(const AttributionReport& report, const Database& db);

}  // namespace shapcq

#endif  // SHAPCQ_CORE_REPORT_H_
