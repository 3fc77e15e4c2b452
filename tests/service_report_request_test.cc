// The unified ReportRequest grammar (service/report_request.h): structured
// key=value parsing, every error surface, and byte-equivalence of the
// deprecated positional form.

#include "service/report_request.h"

#include <gtest/gtest.h>

namespace shapcq {
namespace {

Result<ReportRequest> Parse(const std::string& args) {
  return ParseReportRequest(args, /*default_threads=*/1);
}

TEST(ReportRequestTest, EmptyArgsYieldDefaults) {
  auto parsed = Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().top_k, 0u);
  EXPECT_EQ(parsed.value().threads, 1u);
  EXPECT_FALSE(parsed.value().approx.enabled());
  EXPECT_FALSE(parsed.value().deprecated_form);
}

TEST(ReportRequestTest, DefaultThreadsPropagate) {
  auto parsed = ParseReportRequest("", /*default_threads=*/4);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().threads, 4u);
  // An explicit key overrides the loop default.
  parsed = ParseReportRequest("threads=2", /*default_threads=*/4);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().threads, 2u);
}

TEST(ReportRequestTest, StructuredKeysParse) {
  auto parsed =
      Parse("top_k=3 threads=2 approx=0.1,0.02 seed=9 max_samples=500 "
            "force_approx=1");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const ReportRequest& request = parsed.value();
  EXPECT_EQ(request.top_k, 3u);
  EXPECT_EQ(request.threads, 2u);
  EXPECT_DOUBLE_EQ(request.approx.epsilon, 0.1);
  EXPECT_DOUBLE_EQ(request.approx.delta, 0.02);
  EXPECT_EQ(request.approx.seed, 9u);
  EXPECT_EQ(request.approx.max_samples, 500u);
  EXPECT_TRUE(request.approx.force);
  EXPECT_FALSE(request.deprecated_form);

  const ReportOptions options = request.ToReportOptions();
  EXPECT_EQ(options.top_k, 3u);
  EXPECT_EQ(options.num_threads, 2u);
  EXPECT_TRUE(options.approx.enabled());
}

TEST(ReportRequestTest, ApproxWithoutDeltaDefaultsToFivePercent) {
  auto parsed = Parse("approx=0.25");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().approx.epsilon, 0.25);
  EXPECT_DOUBLE_EQ(parsed.value().approx.delta, 0.05);
}

TEST(ReportRequestTest, BadKeyRejected) {
  auto parsed = Parse("topk=3");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("unknown key 'topk'"), std::string::npos)
      << parsed.error();
}

TEST(ReportRequestTest, EngineKeyIsUnknown) {
  // No key selects a numeric core: engine= fails like any other unknown key.
  for (const std::string value : {"arena", "tree"}) {
    auto parsed = Parse("engine=" + value);
    ASSERT_FALSE(parsed.ok()) << value;
    EXPECT_EQ(parsed.error(),
              "unknown key 'engine' (expected top_k, threads, approx, seed, "
              "max_samples, force_approx, deadline_ms or on_deadline)");
  }
}

TEST(ReportRequestTest, DuplicateKeyRejected) {
  auto parsed = Parse("top_k=3 top_k=4");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("duplicate key 'top_k'"), std::string::npos);
}

TEST(ReportRequestTest, OverflowRejected) {
  auto parsed = Parse("top_k=99999999999999999999");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("bad top_k value"), std::string::npos);
  parsed = Parse("seed=99999999999999999999 approx=0.1");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("bad seed value"), std::string::npos);
}

TEST(ReportRequestTest, MalformedPairRejected) {
  auto parsed = Parse("top_k=1 threads");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("expected key=value argument, got 'threads'"),
            std::string::npos);
  parsed = Parse("=3 top_k=1");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("expected key=value argument"),
            std::string::npos);
}

TEST(ReportRequestTest, BadApproxValuesRejected) {
  for (const char* args :
       {"approx=", "approx=abc", "approx=0.1,xyz", "approx=1.5",
        "approx=0.1,0", "approx=-0.1", "approx=0.1,,0.05", "approx=nan",
        "approx=0x1p-3"}) {
    auto parsed = Parse(args);
    EXPECT_FALSE(parsed.ok()) << args;
    EXPECT_NE(parsed.error().find("bad approx value"), std::string::npos)
        << args << " -> " << parsed.error();
  }
}

TEST(ReportRequestTest, BadForceApproxRejected) {
  auto parsed = Parse("approx=0.1 force_approx=yes");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("bad force_approx value"), std::string::npos);
}

TEST(ReportRequestTest, ApproxSatellitesRequireApprox) {
  for (const char* args : {"seed=1", "max_samples=5", "force_approx=1"}) {
    auto parsed = Parse(args);
    EXPECT_FALSE(parsed.ok()) << args;
    EXPECT_NE(parsed.error().find("require approx=EPS[,DELTA]"),
              std::string::npos)
        << parsed.error();
  }
}

// ---------------------------------------------------------------------------
// Deprecated positional compatibility.

TEST(ReportRequestTest, PositionalFormStillParses) {
  auto parsed = Parse("5 --threads 3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().top_k, 5u);
  EXPECT_EQ(parsed.value().threads, 3u);
  EXPECT_TRUE(parsed.value().deprecated_form);
  EXPECT_FALSE(parsed.value().approx.enabled());
}

TEST(ReportRequestTest, PositionalAndStructuredFormsAgree) {
  auto positional = Parse("7 --threads 2");
  auto structured = Parse("top_k=7 threads=2");
  ASSERT_TRUE(positional.ok());
  ASSERT_TRUE(structured.ok());
  EXPECT_EQ(positional.value().top_k, structured.value().top_k);
  EXPECT_EQ(positional.value().threads, structured.value().threads);
  EXPECT_TRUE(positional.value().deprecated_form);
  EXPECT_FALSE(structured.value().deprecated_form);
}

TEST(ReportRequestTest, PositionalErrorsKeepOriginalStrings) {
  auto parsed = Parse("--threads x");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "bad --threads value 'x'");
  parsed = Parse("--threads");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "bad --threads value ''");
  parsed = Parse("3 nonsense");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "unexpected argument 'nonsense'");
  parsed = Parse("3 4");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "unexpected argument '4'");
}

}  // namespace
}  // namespace shapcq
