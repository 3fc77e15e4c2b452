#include "core/shapley.h"

#include "core/brute_force.h"
#include "core/count_sat.h"
#include "core/exoshap.h"
#include "core/shapley_engine.h"
#include "util/check.h"
#include "util/combinatorics.h"

namespace shapcq {

Rational ShapleyFromSatCounts(const CountVector& sat_with_f,
                              const CountVector& sat_without_f,
                              size_t endogenous_count) {
  const size_t n = endogenous_count;
  SHAPCQ_CHECK(n >= 1);
  SHAPCQ_CHECK(sat_with_f.universe_size() == n - 1);
  SHAPCQ_CHECK(sat_without_f.universe_size() == n - 1);
  BigInt numerator(0);
  for (size_t k = 0; k + 1 <= n; ++k) {
    const BigInt delta = sat_with_f.at(k) - sat_without_f.at(k);
    if (delta.IsZero()) continue;
    numerator += Combinatorics::Factorial(k) *
                 Combinatorics::Factorial(n - 1 - k) * delta;
  }
  return Rational(numerator, Combinatorics::Factorial(n));
}

Result<Rational> ShapleyViaCountSat(const CQ& q, const Database& db,
                                    FactId f) {
  if (!db.is_endogenous(f)) {
    return Result<Rational>::Error("Shapley of an exogenous fact");
  }
  const Database with_f = db.CopyWithFactExogenous(f);
  const Database without_f = db.CopyWithoutFact(f);
  auto sat_with = CountSat(q, with_f);
  if (!sat_with.ok()) return Result<Rational>::Error(sat_with.error());
  auto sat_without = CountSat(q, without_f);
  if (!sat_without.ok()) return Result<Rational>::Error(sat_without.error());
  return Result<Rational>::Ok(ShapleyFromSatCounts(
      sat_with.value(), sat_without.value(), db.endogenous_count()));
}

Result<std::vector<Rational>> ShapleyAllViaCountSat(
    const CQ& q, const Database& db, const ParallelOptions& options,
    const CancelToken* cancel) {
  auto engine = ShapleyEngine::Build(q, db, cancel);
  if (!engine.ok()) {
    return Result<std::vector<Rational>>::Error(engine.error());
  }
  ShapleyEngine built = std::move(engine).value();
  return built.AllValues(options, cancel);
}

Rational ShapleyExact(const CQ& q, const Database& db, FactId f,
                      const ExoRelations& exo) {
  if (IsSafe(q) && IsSelfJoinFree(q)) {
    if (IsHierarchical(q)) {
      return ShapleyEngine::Build(q, db).value().Value(f);
    }
    if (!exo.empty() && !FindNonHierarchicalPath(q, exo).has_value() &&
        exo.count(db.schema().name(db.relation_of(f))) == 0) {
      return ExoShapShapley(q, db, exo, f).value();
    }
  }
  // FP^{#P}-hard territory (or out-of-scope query shape): exponential oracle.
  return ShapleyBruteForce(q, db, f);
}

}  // namespace shapcq
