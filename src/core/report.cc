#include "core/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "core/brute_force.h"
#include "core/exoshap.h"
#include "core/shapley.h"
#include "query/classify.h"
#include "util/cancel.h"

namespace shapcq {

std::string DeadlineExceededMessage(size_t deadline_ms) {
  if (deadline_ms == 0) return "[E_DEADLINE] cancelled";
  return "[E_DEADLINE] deadline_ms=" + std::to_string(deadline_ms) +
         " exceeded";
}

namespace {

// printf-style append of one whole row to `out`. Rows that fit the stack
// buffer are formatted once; longer ones (exact values of large tables run
// to hundreds of digits) are formatted again straight into `out`, so no row
// is ever cut short.
__attribute__((format(printf, 2, 3))) void AppendFormat(std::string* out,
                                                        const char* format,
                                                        ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  va_list retry;
  va_copy(retry, args);
  const int length = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (length < 0) {
    va_end(retry);
    return;
  }
  if (static_cast<size_t>(length) < sizeof(buffer)) {
    out->append(buffer, static_cast<size_t>(length));
  } else {
    const size_t start = out->size();
    out->resize(start + static_cast<size_t>(length) + 1);
    std::vsnprintf(&(*out)[start], static_cast<size_t>(length) + 1, format,
                   retry);
    out->resize(start + static_cast<size_t>(length));
  }
  va_end(retry);
}

// Descending by value via the division-free three-way compare: the sign
// fast path settles most pairs (reports mix positive, zero and negative
// attributions) without touching BigInt arithmetic, and ties never build
// a normalized difference Rational.
void RankRows(AttributionReport* report, size_t top_k) {
  std::stable_sort(report->rows.begin(), report->rows.end(),
                   [](const Attribution& a, const Attribution& b) {
                     return Rational::Compare(b.value, a.value) < 0;
                   });
  if (top_k > 0 && report->rows.size() > top_k) {
    report->rows.resize(top_k);
  }
}

// Shared epilogue of the exact report builders: move the per-endo-index
// values into rows, accumulate the efficiency total, and rank descending.
void FillAndRankRows(AttributionReport* report, const Database& db,
                     std::vector<Rational> values, size_t top_k) {
  for (FactId f : db.endogenous_facts()) {
    Rational& value = values[db.endo_index(f)];
    report->total += value;
    Attribution row;
    row.fact = f;
    row.value = std::move(value);
    report->rows.push_back(std::move(row));
  }
  RankRows(report, top_k);
}

// The sampling tier: estimates every endogenous fact with the additive
// FPRAS, stratified by the exact engine's orbits when the query is
// hierarchical (the forced-approx path) and by the signature partition
// otherwise.
Result<AttributionReport> BuildApproxReport(const CQ& q, const Database& db,
                                            const ReportOptions& options,
                                            bool hierarchical,
                                            const CancelToken* cancel) {
  AttributionReport report;
  report.engine = "approx-fpras";
  report.approximate = true;
  report.approx.epsilon = options.approx.epsilon;
  report.approx.delta = options.approx.delta;
  report.approx.seed = options.approx.seed;
  auto verdict = ClassifyExactShapley(q);
  report.approx.dispatch_reason =
      verdict.ok() ? verdict.value().reason : verdict.error();

  ApproxEngine::Options approx_options;
  std::vector<size_t> engine_orbits;
  if (hierarchical) {
    // The exact engine's orbit partition is at least as coarse as the
    // signature one (it groups by value, not just by automorphism), so
    // forced sampling on tractable queries borrows it for stratification.
    auto built = ShapleyEngine::Build(q, db, cancel);
    if (built.ok()) {
      ShapleyEngine engine = std::move(built).value();
      engine_orbits = engine.OrbitIds();
      approx_options.orbit_ids = &engine_orbits;
    } else if (CancelToken::IsCancelled(built.error())) {
      // Build failures are otherwise tolerated (the signature partition
      // serves), but a deadline expiry must surface, not silently coarsen
      // the stratification.
      return Result<AttributionReport>::Error(built.error());
    }
  }
  auto created = ApproxEngine::Create(q, db, approx_options, cancel);
  if (!created.ok()) return Result<AttributionReport>::Error(created.error());
  ApproxEngine engine = std::move(created).value();
  auto rows = engine.EstimateAll(options.approx, options.num_threads, cancel);
  if (!rows.ok()) return Result<AttributionReport>::Error(rows.error());

  const ApproxRunInfo& info = engine.info();
  report.approx.samples_per_orbit = info.samples_per_orbit;
  report.approx.samples_total = info.samples_total;
  report.approx.orbit_count = info.orbit_count;
  report.approx.sampled_orbits = info.sampled_orbits;
  report.approx.budget_capped = info.budget_capped;
  report.approx.orbit_source = info.orbit_source;

  const std::vector<ApproxRow>& estimates = rows.value();
  for (FactId f : db.endogenous_facts()) {
    const ApproxRow& estimate = estimates[db.endo_index(f)];
    report.total += estimate.estimate;
    Attribution row;
    row.fact = f;
    row.value = estimate.estimate;
    row.ci_radius = estimate.ci_radius;
    row.samples = estimate.samples;
    report.rows.push_back(std::move(row));
  }
  RankRows(&report, options.top_k);
  return Result<AttributionReport>::Ok(std::move(report));
}

}  // namespace

Result<AttributionReport> BuildDegradedApproxReport(
    const CQ& q, const Database& db, const ReportOptions& options) {
  // Sample-bounded, never re-deadlined, never rebuilding the exact index
  // (signature-stratified orbits): the deadline already expired once, so
  // the degraded answer should cost as little as a useful answer can. A
  // caller-provided approx spec is honored; otherwise a deliberately
  // coarse default — wide CIs are the point of a degraded answer. The
  // lineage compile and the per-sample clause scan still scale with the
  // database, so the sample budget is the only lever this side of a
  // time-budgeted sampler.
  ReportOptions degraded = options;
  degraded.deadline_ms = 0;
  degraded.cancel = nullptr;
  if (!degraded.approx.enabled()) {
    degraded.approx.epsilon = 0.25;
    degraded.approx.delta = 0.1;
    degraded.approx.max_samples = 512;
  }
  degraded.approx.force = true;
  return BuildApproxReport(q, db, degraded, /*hierarchical=*/false,
                           /*cancel=*/nullptr);
}

Result<AttributionReport> BuildAttributionReport(
    const CQ& q, const Database& db, const ReportOptions& options) {
  AttributionReport report;
  const bool approx_requested = options.approx.enabled();
  if (approx_requested) {
    auto valid = options.approx.Validate();
    if (!valid.ok()) return Result<AttributionReport>::Error(valid.error());
  }
  const bool hierarchical = IsSafe(q) && IsSelfJoinFree(q) && IsHierarchical(q);
  const bool exoshap_applies =
      !hierarchical && IsSafe(q) && IsSelfJoinFree(q) && !options.exo.empty() &&
      !FindNonHierarchicalPath(q, options.exo).has_value();
  const bool force_approx = approx_requested && options.approx.force;

  // One token per report: a caller-owned token wins, else a deadline_ms
  // budget arms a local one. nullptr = uncancellable (the default), and the
  // whole deadline machinery stays off the path.
  CancelToken deadline_token;
  if (options.cancel == nullptr && options.deadline_ms > 0) {
    deadline_token.ArmDeadlineMillis(options.deadline_ms);
  }
  const CancelToken* cancel = options.cancel != nullptr
                                  ? options.cancel
                                  : (deadline_token.Enabled()
                                         ? &deadline_token
                                         : nullptr);

  if (hierarchical && !force_approx) {
    report.engine = "CntSat";
  } else if (exoshap_applies && !force_approx) {
    report.engine = "ExoShap";
  } else if (approx_requested) {
    // The sampling tier works for ANY query the evaluator can decide —
    // exactly the fallback the dichotomy's hard side needs. A deadline
    // expiry here is terminal ([E_DEADLINE]): there is no tier left to
    // degrade to.
    auto approx_report = BuildApproxReport(q, db, options, hierarchical,
                                           cancel);
    if (!approx_report.ok() &&
        CancelToken::IsCancelled(approx_report.error())) {
      return Result<AttributionReport>::Error(
          DeadlineExceededMessage(options.deadline_ms));
    }
    return approx_report;
  } else if (options.allow_brute_force &&
             db.endogenous_count() <= options.brute_force_limit) {
    report.engine = "brute-force";
  } else {
    return Result<AttributionReport>::Error(
        "no polynomial engine applies to " + q.ToString() +
        " (FP^#P-hard per the dichotomies) and brute force is not allowed; "
        "the sampling tier (approx=eps,delta) serves such queries");
  }

  // All-facts attribution is served by the single-pass engines: one shared
  // CntSat recursion (and, for ExoShap, one transformation) for the whole
  // table instead of a from-scratch computation per fact.
  std::vector<Rational> values;
  ParallelOptions parallel;
  parallel.num_threads = options.num_threads;
  if (report.engine == "CntSat") {
    auto result = ShapleyAllViaCountSat(q, db, parallel, cancel);
    if (!result.ok()) {
      if (CancelToken::IsCancelled(result.error())) {
        if (options.on_deadline == OnDeadline::kApprox) {
          return BuildDegradedApproxReport(q, db, options);
        }
        return Result<AttributionReport>::Error(
            DeadlineExceededMessage(options.deadline_ms));
      }
      return Result<AttributionReport>::Error(result.error());
    }
    values = std::move(result).value();
  } else if (report.engine == "ExoShap") {
    auto result = ExoShapShapleyAll(q, db, options.exo, parallel);
    if (!result.ok()) return Result<AttributionReport>::Error(result.error());
    values = std::move(result).value();
  } else {
    values.reserve(db.endogenous_count());
    for (FactId f : db.endogenous_facts()) {
      values.push_back(ShapleyBruteForce(q, db, f));
    }
  }
  FillAndRankRows(&report, db, std::move(values), options.top_k);
  return Result<AttributionReport>::Ok(std::move(report));
}

AttributionReport BuildAttributionReportFromEngine(
    ShapleyEngine& engine, const Database& db, const ReportOptions& options) {
  AttributionReport report;
  report.engine = "CntSat (incremental)";
  ParallelOptions parallel;
  parallel.num_threads = options.num_threads;
  FillAndRankRows(&report, db, engine.AllValues(parallel), options.top_k);
  return report;
}

Result<AttributionReport> BuildAttributionReportFromEngine(
    ShapleyEngine& engine, const Database& db, const ReportOptions& options,
    const CancelToken* cancel) {
  using R = Result<AttributionReport>;
  if (cancel == nullptr || !cancel->Enabled()) {
    return R::Ok(BuildAttributionReportFromEngine(engine, db, options));
  }
  AttributionReport report;
  report.engine = "CntSat (incremental)";
  ParallelOptions parallel;
  parallel.num_threads = options.num_threads;
  auto values = engine.AllValues(parallel, cancel);
  if (!values.ok()) {
    if (CancelToken::IsCancelled(values.error())) {
      return R::Error(DeadlineExceededMessage(options.deadline_ms));
    }
    return R::Error(values.error());
  }
  FillAndRankRows(&report, db, std::move(values).value(), options.top_k);
  return R::Ok(std::move(report));
}

std::string RenderReport(const AttributionReport& report, const Database& db) {
  std::string out = "engine: " + report.engine + "\n";
  if (report.approximate) {
    // Provenance first: the parameters that make the table reproducible
    // (seed-pure) and interpretable (joint coverage at 1 - delta).
    AppendFormat(&out,
                 "approx: eps=%g delta=%g seed=%" PRIu64
                 " samples_per_orbit=%zu orbits=%zu/%zu source=%s capped=%s\n",
                 report.approx.epsilon, report.approx.delta,
                 report.approx.seed, report.approx.samples_per_orbit,
                 report.approx.sampled_orbits, report.approx.orbit_count,
                 report.approx.orbit_source.c_str(),
                 report.approx.budget_capped ? "yes" : "no");
    AppendFormat(&out, "%-30s %14s %10s %10s %9s\n", "fact", "estimate",
                 "~decimal", "+-ci", "samples");
    for (const Attribution& row : report.rows) {
      AppendFormat(&out, "%-30s %14s %10.4f %10.4f %9zu\n",
                   db.FactToString(row.fact).c_str(),
                   row.value.ToString().c_str(), row.value.ToDouble(),
                   row.ci_radius, row.samples);
    }
    AppendFormat(&out, "%-30s %14s\n", "total",
                 report.total.ToString().c_str());
    return out;
  }
  AppendFormat(&out, "%-30s %14s %10s\n", "fact", "Shapley", "~decimal");
  for (const Attribution& row : report.rows) {
    AppendFormat(&out, "%-30s %14s %10.4f\n",
                 db.FactToString(row.fact).c_str(),
                 row.value.ToString().c_str(), row.value.ToDouble());
  }
  AppendFormat(&out, "%-30s %14s\n", "total", report.total.ToString().c_str());
  return out;
}

}  // namespace shapcq
