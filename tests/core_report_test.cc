// Attribution reports: engine selection, ranking, rendering.

#include "core/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/citations.h"
#include "datasets/university.h"
#include "db/value_dictionary.h"
#include "util/random.h"

namespace shapcq {
namespace {

TEST(ReportTest, HierarchicalUsesCntSat) {
  UniversityDb u = BuildUniversityDb();
  auto report = BuildAttributionReport(UniversityQ1(), u.db, {});
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().engine, "CntSat");
  EXPECT_EQ(report.value().total, Rational(1));
  ASSERT_EQ(report.value().rows.size(), 8u);
  // Sorted descending: the Caroline registrations (13/42) first, TA(Adam)
  // (-3/28) last.
  EXPECT_EQ(report.value().rows.front().value, Rational::Of(13, 42));
  EXPECT_EQ(report.value().rows.back().value, Rational::Of(-3, 28));
}

TEST(ReportTest, ExoShapSelectedWhenNeeded) {
  Database db = BuildSmallCitationsDb();
  ReportOptions options;
  options.exo = CitationsExoRelations();
  auto report = BuildAttributionReport(CitationsQuery(), db, options);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().engine, "ExoShap");
}

TEST(ReportTest, RefusesHardQueryByDefault) {
  UniversityDb u = BuildUniversityDb();
  auto report = BuildAttributionReport(UniversityQ2(), u.db, {});
  EXPECT_FALSE(report.ok());
}

TEST(ReportTest, BruteForceFallbackWhenAllowed) {
  UniversityDb u = BuildUniversityDb();
  ReportOptions options;
  options.allow_brute_force = true;
  auto report = BuildAttributionReport(UniversityQ2(), u.db, options);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().engine, "brute-force");
}

TEST(ReportTest, BruteForceRespectsLimit) {
  UniversityDb u = BuildUniversityDb();
  ReportOptions options;
  options.allow_brute_force = true;
  options.brute_force_limit = 4;  // |Dn| = 8 exceeds it
  EXPECT_FALSE(BuildAttributionReport(UniversityQ2(), u.db, options).ok());
}

TEST(ReportTest, RenderContainsFactsAndEngine) {
  UniversityDb u = BuildUniversityDb();
  auto report = BuildAttributionReport(UniversityQ1(), u.db, {});
  const std::string text = RenderReport(report.value(), u.db);
  EXPECT_NE(text.find("engine: CntSat"), std::string::npos);
  EXPECT_NE(text.find("Reg(Caroline,DB)*"), std::string::npos);
  EXPECT_NE(text.find("13/42"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
}

TEST(ReportTest, RenderKeepsRowsWithLongExactValuesIntact) {
  // q1 over 200 random students: exact values then run to hundreds of
  // characters, far beyond any fixed-size row buffer. Every row line must
  // still hold exactly (fact, value, decimal), parse back to the report's
  // value, and the rows must sum to the rendered total.
  Rng rng(20);
  Database db;
  for (int s = 0; s < 200; ++s) {
    const Value student = V("s" + std::to_string(s));
    db.AddExo("Stud", {student});
    if (rng.Bernoulli(0.3)) db.AddEndo("TA", {student});
    for (int c = 0; c < 6; ++c) {
      if (rng.Bernoulli(0.25)) {
        db.AddEndo("Reg", {student, V("c" + std::to_string(c))});
      }
    }
  }
  ASSERT_GT(db.endogenous_count(), 190u);
  auto report = BuildAttributionReport(UniversityQ1(), db, {});
  ASSERT_TRUE(report.ok()) << report.error();
  const std::string text = RenderReport(report.value(), db);

  std::istringstream lines(text);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "engine: CntSat");
  ASSERT_TRUE(std::getline(lines, line));  // column header
  size_t longest = 0;
  Rational sum;
  for (const Attribution& row : report.value().rows) {
    ASSERT_TRUE(std::getline(lines, line));
    std::istringstream fields(line);
    std::string fact, value, decimal, extra;
    ASSERT_TRUE(static_cast<bool>(fields >> fact >> value >> decimal)) << line;
    EXPECT_FALSE(static_cast<bool>(fields >> extra)) << line;
    EXPECT_EQ(fact, db.FactToString(row.fact));
    Rational parsed;
    ASSERT_TRUE(Rational::TryParse(value, &parsed)) << line;
    EXPECT_EQ(parsed, row.value);
    EXPECT_NEAR(std::strtod(decimal.c_str(), nullptr), row.value.ToDouble(),
                1e-4);
    longest = std::max(longest, value.size());
    sum += parsed;
  }
  ASSERT_TRUE(std::getline(lines, line));
  std::istringstream total_fields(line);
  std::string label, total;
  ASSERT_TRUE(static_cast<bool>(total_fields >> label >> total)) << line;
  EXPECT_EQ(label, "total");
  Rational parsed_total;
  ASSERT_TRUE(Rational::TryParse(total, &parsed_total)) << line;
  EXPECT_EQ(sum, parsed_total);
  EXPECT_EQ(parsed_total, report.value().total);
  EXPECT_FALSE(std::getline(lines, line)) << "trailing text: " << line;
  // The table must really exercise long values.
  EXPECT_GT(longest, 200u);
}

}  // namespace
}  // namespace shapcq
