// shapcq_cli — command-line front end for quick experiments.
//
//   shapcq_cli --db "Stud(a) TA(a)* Reg(a,os)*" \
//              --query "q() :- Stud(x), not TA(x), Reg(x,y)" \
//              [--exo Rel1,Rel2] [--threads N] [--top-k K] [--brute-force]
//              [--approx EPS,DELTA] [--seed S] [--max-samples M]
//              [--force-approx] [--classify-only] [--mutate FILE]
//
// Facts use the Database::ToString format ('*' marks endogenous). Prints the
// dichotomy classification and, when an engine applies, the full attribution
// report (every endogenous fact's exact Shapley value, ranked). With
// --approx the sampling tier (additive FPRAS) serves non-hierarchical
// queries exactly as the server's "REPORT ... approx=EPS,DELTA" does: the
// report flags assemble one ReportRequest, validated by the same parser as
// the server's REPORT command (service/report_request.h).
//
// --mutate FILE replays a fact delta file against the incremental engine:
// one mutation per line, '+' inserts a fact literal ('*' = endogenous), '-'
// deletes one by literal; blank lines and '#' comments are skipped. The
// engine is built once, every delta patches a single root-to-leaf path, and
// a fresh attribution report is printed after the replay.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/plan.h"
#include "core/report.h"
#include "core/shapley_engine.h"
#include "db/textio.h"
#include "query/analysis.h"
#include "query/classify.h"
#include "query/parser.h"
#include "service/report_request.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: shapcq_cli --db FACTS --query RULE [--exo R1,R2,...]\n"
      "                  [--threads N] [--top-k K] [--brute-force]\n"
      "                  [--approx EPS,DELTA] [--seed S] [--max-samples M]\n"
      "                  [--force-approx]\n"
      "                  [--deadline-ms N] [--on-deadline error|approx]\n"
      "                  [--classify-only] [--explain] [--mutate FILE]\n"
      "  FACTS: whitespace-separated facts, '*' suffix = endogenous,\n"
      "         e.g. \"Stud(a) TA(a)* Reg(a,os)*\"\n"
      "  RULE:  e.g. \"q() :- Stud(x), not TA(x), Reg(x,y)\"\n"
      "  FILE:  delta replay, one mutation per line: '+ Reg(eve,os)*'\n"
      "         inserts, '- Reg(a,os)' deletes; '#' starts a comment.\n"
      "         Requires a hierarchical query (the incremental engine).\n"
      "\n"
      "Report request (one grammar with the server's REPORT command):\n"
      "  top_k=K          keep only the K highest-ranked rows (0 = all)\n"
      "  threads=N        worker threads (1 = serial, 0 = all hardware\n"
      "                   threads); values are identical at any count\n"
      "  approx=EPS,DELTA sampling tier: additive error EPS at joint\n"
      "                   failure probability DELTA, both in (0,1);\n"
      "                   approx=EPS defaults DELTA to 0.05. Serves any\n"
      "                   evaluable query, including non-hierarchical\n"
      "                   ones that have no exact polynomial engine.\n"
      "  seed=S           RNG seed of the sampling tier (default 0)\n"
      "  max_samples=M    per-orbit sample cap (0 = the full Hoeffding\n"
      "                   count; capping widens the intervals)\n"
      "  force_approx=0|1 sample even when an exact engine applies\n"
      "  deadline_ms=N    wall-clock budget for the report (0 = none);\n"
      "                   expiry prints '[E_DEADLINE] ...' and exits 1,\n"
      "                   unless on_deadline=approx\n"
      "  on_deadline=error|approx\n"
      "                   policy when an exact report's deadline expires:\n"
      "                   'error' (default) fails; 'approx' degrades to a\n"
      "                   sample-bounded sampling report ('approx:'\n"
      "                   provenance line)\n"
      "The flags --top-k/--threads/--approx/--seed/--max-samples/\n"
      "--force-approx/--deadline-ms/--on-deadline assemble\n"
      "exactly these key=value pairs.\n");
}

// Replays a delta file against the incremental engine and prints the
// resulting attribution report. Returns the process exit code.
int RunMutateReplay(const shapcq::CQ& q, shapcq::Database& db,
                    const std::string& path,
                    const shapcq::ReportOptions& options) {
  using namespace shapcq;
  auto built = ShapleyEngine::Build(q, db);
  if (!built.ok()) {
    std::fprintf(stderr, "--mutate needs the incremental engine: %s\n",
                 built.error().c_str());
    return 1;
  }
  ShapleyEngine engine = std::move(built).value();
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open delta file %s\n", path.c_str());
    return 1;
  }
  std::string line;
  size_t line_no = 0, applied = 0;
  while (std::getline(file, line)) {
    ++line_no;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    auto parsed = ParseMutationLine(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_no,
                   parsed.error().c_str());
      return 1;
    }
    const MutationSpec mutation = std::move(parsed).value();
    const FactSpec& fact = mutation.fact;
    if (mutation.op == MutationSpec::Op::kInsert) {
      auto inserted =
          engine.InsertFact(db, fact.relation, fact.tuple, fact.endogenous);
      if (!inserted.ok()) {
        std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_no,
                     inserted.error().c_str());
        return 1;
      }
    } else {
      const FactId victim = db.FindFact(fact.relation, fact.tuple);
      if (victim == kNoFact) {
        std::fprintf(stderr, "%s:%zu: no such fact to delete\n", path.c_str(),
                     line_no);
        return 1;
      }
      auto deleted = engine.DeleteFact(db, victim);
      if (!deleted.ok()) {
        std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_no,
                     deleted.error().c_str());
        return 1;
      }
    }
    ++applied;
  }
  std::printf("applied %zu deltas; database now: %s\n", applied,
              db.ToString().c_str());
  const AttributionReport report =
      BuildAttributionReportFromEngine(engine, db, options);
  std::printf("%s", RenderReport(report, db).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shapcq;
  std::string db_text, query_text, exo_text, mutate_path;
  bool brute_force = false, classify_only = false, explain = false;
  // The report flags assemble one key=value ReportRequest string, parsed
  // (and validated) by the same ParseReportRequest the server's REPORT
  // command uses — report parameters have exactly one grammar.
  std::string request_text;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        PrintUsage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--db") {
      db_text = next();
    } else if (arg == "--query") {
      query_text = next();
    } else if (arg == "--exo") {
      exo_text = next();
    } else if (arg == "--mutate") {
      mutate_path = next();
    } else if (arg == "--threads") {
      request_text += std::string(" threads=") + next();
    } else if (arg == "--top-k") {
      request_text += std::string(" top_k=") + next();
    } else if (arg == "--approx") {
      request_text += std::string(" approx=") + next();
    } else if (arg == "--seed") {
      request_text += std::string(" seed=") + next();
    } else if (arg == "--max-samples") {
      request_text += std::string(" max_samples=") + next();
    } else if (arg == "--force-approx") {
      request_text += " force_approx=1";
    } else if (arg == "--deadline-ms") {
      request_text += std::string(" deadline_ms=") + next();
    } else if (arg == "--on-deadline") {
      request_text += std::string(" on_deadline=") + next();
    } else if (arg == "--brute-force") {
      brute_force = true;
    } else if (arg == "--classify-only") {
      classify_only = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (db_text.empty() || query_text.empty()) {
    PrintUsage();
    return 2;
  }
  auto request = ParseReportRequest(request_text, /*default_threads=*/1);
  if (!request.ok()) {
    std::fprintf(stderr, "bad report request: %s\n", request.error().c_str());
    return 2;
  }

  auto db = ParseDatabase(db_text);
  if (!db.ok()) {
    std::fprintf(stderr, "bad --db: %s\n", db.error().c_str());
    return 1;
  }
  auto query = ParseCQ(query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "bad --query: %s\n", query.error().c_str());
    return 1;
  }
  ExoRelations exo;
  std::string rest = exo_text;
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    exo.insert(rest.substr(0, comma));
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
  }

  auto verdict = exo.empty() ? ClassifyExactShapley(query.value())
                             : ClassifyExactShapley(query.value(), exo);
  if (verdict.ok()) {
    std::printf("classification: %s\n", verdict.value().reason.c_str());
  } else {
    std::printf("classification: %s\n", verdict.error().c_str());
  }
  if (explain) {
    auto plan = CompileSafePlan(query.value());
    if (plan.ok()) {
      std::printf("safe plan:\n%s", ExplainPlan(*plan.value()).c_str());
    } else {
      std::printf("safe plan: %s\n", plan.error().c_str());
    }
  }
  if (classify_only) return 0;

  ReportOptions options = request.value().ToReportOptions();
  options.exo = exo;
  options.allow_brute_force = brute_force;
  if (!mutate_path.empty()) {
    Database mutable_db = std::move(db).value();
    return RunMutateReplay(query.value(), mutable_db, mutate_path, options);
  }
  auto report = BuildAttributionReport(query.value(), db.value(), options);
  if (!report.ok()) {
    std::fprintf(stderr,
                 "%s\n(hint: pass --approx EPS,DELTA for a sampled report, "
                 "or --brute-force for small |Dn|)\n",
                 report.error().c_str());
    return 1;
  }
  std::printf("%s", RenderReport(report.value(), db.value()).c_str());
  return 0;
}
