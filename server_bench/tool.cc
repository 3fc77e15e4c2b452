// server_bench_tool: the compiled half of the server benchmark (run.py is
// the other half; see README.md).
//
//   server_bench_tool info
//       Build type the tool (and the library it links) was compiled with.
//   server_bench_tool queries --kind hier|nonhier --seed S --count N
//       N generated queries, one rule per line: hierarchical CQ¬s from
//       RandomHierarchicalCq (depth >= 3, with negation) or safe
//       non-hierarchical CQ¬s from RandomSafeCq (with negation and at least
//       two positive atoms).
//   server_bench_tool values --method countsat|brute FILE
//       Per-fact oracle values (ShapleyViaCountSat or ShapleyBruteForce)
//       for the facts FILE asks about. FILE holds blocks of
//         query <rule>
//         fact <literal>     (one per fact of the database)
//         ask <literal>      (one per fact to evaluate)
//         end
//       and the output is one "<block> <literal> <value>" line per ask.
//   server_bench_tool replay [options] --spans FILE --transcript FILE
//                            SCRIPT...
//       The traced run: replays the protocol lines of each SCRIPT (one per
//       client connection, in order) in-process and times every call into
//       a layer's public functions from outside. See Replay below.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/approx_engine.h"
#include "core/brute_force.h"
#include "core/report.h"
#include "core/shapley.h"
#include "core/shapley_engine.h"
#include "datasets/query_gen.h"
#include "db/textio.h"
#include "query/analysis.h"
#include "query/parser.h"
#include "service/command_loop.h"
#include "service/engine_registry.h"
#include "service/report_request.h"
#include "service/session_log.h"
#include "util/random.h"

namespace {

using namespace shapcq;
using Clock = std::chrono::steady_clock;

int Fail(const std::string& message) {
  std::fprintf(stderr, "server_bench_tool: %s\n", message.c_str());
  return 2;
}

// Splits "WORD rest" at the first run of spaces.
std::string FirstWord(const std::string& text, std::string* rest) {
  const size_t start = text.find_first_not_of(' ');
  if (start == std::string::npos) {
    rest->clear();
    return "";
  }
  const size_t end = text.find(' ', start);
  if (end == std::string::npos) {
    rest->clear();
    return text.substr(start);
  }
  const size_t next = text.find_first_not_of(' ', end);
  *rest = next == std::string::npos ? "" : text.substr(next);
  return text.substr(start, end - start);
}

// --- info -----------------------------------------------------------------

int RunInfo() {
#ifdef NDEBUG
  const char* ndebug = "true";
#else
  const char* ndebug = "false";
#endif
  std::printf("{\"build_type\": \"%s\", \"ndebug\": %s}\n",
              SERVER_BENCH_BUILD_TYPE, ndebug);
  return 0;
}

// --- queries --------------------------------------------------------------

// Variable-tree depth of a hierarchical query: the most distinct variables
// any one atom holds (an atom's variables are a root-to-node path).
size_t Depth(const CQ& q) {
  size_t depth = 0;
  for (const Atom& atom : q.atoms()) {
    std::set<VarId> vars;
    for (const Term& term : atom.terms) {
      if (term.IsVar()) vars.insert(term.var);
    }
    depth = std::max(depth, vars.size());
  }
  return depth;
}

int RunQueries(const std::map<std::string, std::string>& flags) {
  const auto kind = flags.find("--kind");
  const auto seed = flags.find("--seed");
  const auto count = flags.find("--count");
  if (kind == flags.end() || seed == flags.end() || count == flags.end()) {
    return Fail("queries needs --kind, --seed and --count");
  }
  const bool hierarchical = kind->second == "hier";
  if (!hierarchical && kind->second != "nonhier") {
    return Fail("--kind must be hier or nonhier");
  }
  Rng rng(std::strtoull(seed->second.c_str(), nullptr, 10));
  const size_t wanted = std::strtoull(count->second.c_str(), nullptr, 10);
  QueryGenOptions options;
  options.negation_rate = 0.5;
  options.constant_rate = 0.1;
  options.max_depth = 3;
  options.max_branch = 2;
  options.max_atoms = 4;
  size_t found = 0;
  for (size_t attempt = 0; found < wanted && attempt < 1000000; ++attempt) {
    if (hierarchical) {
      const CQ q = RandomHierarchicalCq(options, &rng);
      if (Depth(q) < 3 || !q.HasNegation() || q.atom_count() < 4 ||
          q.atom_count() > 7) {
        continue;
      }
      std::printf("%s\n", q.ToString().c_str());
    } else {
      const CQ q = RandomSafeCq(options, &rng);
      if (!IsSafe(q) || !IsSelfJoinFree(q) || IsHierarchical(q) ||
          !q.HasNegation() || q.atom_count() > 5 ||
          q.PositiveAtoms().size() < 2) {
        continue;
      }
      std::printf("%s\n", q.ToString().c_str());
    }
    ++found;
  }
  return found == wanted ? 0 : Fail("query generator exhausted");
}

// --- values ---------------------------------------------------------------

int RunValues(const std::string& method, const std::string& path) {
  if (method != "countsat" && method != "brute") {
    return Fail("--method must be countsat or brute");
  }
  std::ifstream in(path);
  if (!in) return Fail("cannot open " + path);
  std::string line;
  std::string query_text;
  std::string facts;
  std::vector<std::string> asks;
  size_t block = 0;
  while (std::getline(in, line)) {
    std::string rest;
    const std::string word = FirstWord(line, &rest);
    if (word == "query") {
      query_text = rest;
      facts.clear();
      asks.clear();
    } else if (word == "fact") {
      facts += rest + " ";
    } else if (word == "ask") {
      asks.push_back(rest);
    } else if (word == "end") {
      auto q = ParseCQ(query_text);
      if (!q.ok()) return Fail("block " + std::to_string(block) + ": " +
                               q.error());
      auto db = ParseDatabase(facts);
      if (!db.ok()) return Fail("block " + std::to_string(block) + ": " +
                                db.error());
      for (const std::string& literal : asks) {
        auto spec = ParseFactSpec(literal);
        if (!spec.ok()) return Fail(spec.error());
        const FactId f = db.value().FindFact(spec.value().relation,
                                             spec.value().tuple);
        if (f == kNoFact) return Fail("asked fact not in block: " + literal);
        std::string value;
        if (method == "countsat") {
          auto exact = ShapleyViaCountSat(q.value(), db.value(), f);
          if (!exact.ok()) return Fail(exact.error());
          value = exact.value().ToString();
        } else {
          value = ShapleyBruteForce(q.value(), db.value(), f).ToString();
        }
        std::printf("%zu %s %s\n", block, literal.c_str(), value.c_str());
      }
      ++block;
    } else if (!word.empty()) {
      return Fail("unknown line in " + path + ": " + line);
    }
  }
  return 0;
}

// --- replay ---------------------------------------------------------------
//
// Four stacks replay every line, each timed only at its public entry
// points (nothing inside the library is instrumented):
//
//   loop      one owning CommandLoop configured like the server. Every line
//             goes through ExecuteLine; its output is the transcript the
//             caller diffs byte-for-byte against the server's. DELTA lines
//             give loop.delta, REPORT lines loop.report.
//   registry  an EngineRegistry with the server's options: ApplyMutation
//             (registry.mutate), Report (registry.report) and RenderReport
//             of the served table (report.render).
//   wal       a SessionLogManager: LogOpen, LogDelta (wal.log_delta),
//             SyncAll at each REPORT (wal.sync) and Compact once a session
//             has kSnapshotEvery deltas since its last snapshot
//             (wal.compact), as the server's auto-compaction does.
//   engine    per session a Database plus, while the registry stack holds
//             the session's engine resident, a ShapleyEngine: Build
//             (engine.build), ApplyDelta of one delta (engine.patch),
//             AllValues (arena.sweep) and BuildAttributionReportFromEngine
//             once AllValues has filled the orbit memo (report.rank). Approx
//             reports run ApproxEngine::Create (approx.create) and
//             EstimateAll (approx.estimate).
//
// ParseMutationLine (textio.mutation_parse) and ParseReportRequest
// (request.parse) are timed once per line. Each line is one request: a root
// span with one child span per timed call; all children run one after
// another, so a root's self time is its duration minus its children's.
//
// Layers a workload's server path never runs are timed by probes, whose
// spans carry probe=1 and stay out of the per-report sums: the wal stack
// replays every line even when the server runs no WAL, and the engine, the
// sampling tier and compaction run on each session's final database after
// the replay when the replayed lines never reached them.

struct Span {
  size_t id = 0;
  long parent = -1;
  size_t request = 0;
  std::string name;
  std::string session;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool probe = false;
  double count = 0.0;  // work count attached to the span (rows, nodes, ...)
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  size_t BeginRequest(const std::string& name, const std::string& session,
                      bool probe) {
    ++request_;
    root_ = Open(name, session, -1, probe);
    return root_;
  }
  void EndRequest() { Close(root_); }

  // Times fn() as a child of the current request; the span is a probe
  // when its request is one or when `probe` says so.
  template <typename Fn>
  auto Time(const std::string& name, const std::string& session, Fn&& fn,
            bool probe = false) {
    const size_t id = Open(name, session, static_cast<long>(root_),
                           probe || spans_[root_].probe);
    auto result = fn();
    Close(id);
    last_ = id;
    return result;
  }
  // Work count for the span Time() closed last.
  void SetCount(double count) { spans_[last_].count = count; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t Open(const std::string& name, const std::string& session,
              long parent, bool probe) {
    Span span;
    span.id = spans_.size();
    span.parent = parent;
    span.request = request_;
    span.name = name;
    span.session = session;
    span.probe = probe;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
  }
  void Close(size_t id) { spans_[id].end_ns = Now(); }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  size_t request_ = 0;
  size_t root_ = 0;
  size_t last_ = 0;
};

struct EngineSession {
  CQ query;
  bool exact_capable = false;
  std::unique_ptr<Database> db = std::make_unique<Database>();
  std::unique_ptr<ShapleyEngine> engine;  // resident iff non-null
};

// Settings every workload's server shares (workloads.py starts the server
// with --threads 1, and live_delta's log with --fsync=batch
// --snapshot-every 1024); the wal stack uses the same log policy.
constexpr size_t kThreads = 1;
constexpr FsyncPolicy kFsync = FsyncPolicy::kBatch;
constexpr size_t kSnapshotEvery = 1024;

// The sampling tier's probe on exact sessions: eps=0.3, delta=0.1, at most
// 256 samples per orbit.
ApproxSpec ProbeApproxSpec() {
  ApproxSpec spec;
  spec.epsilon = 0.3;
  spec.delta = 0.1;
  spec.max_samples = 256;
  spec.seed = 1;
  return spec;
}

struct ReplayOptions {
  size_t max_resident = 0;
  size_t stripes = 1;
  std::string log_dir;  // the loop stack's WAL; "" = the server runs none
  std::string wal_dir;  // the wal stack's directory
  std::string spans_path;
  std::string transcript_path;
  std::vector<std::string> scripts;
};

template <typename T>
double Median(std::vector<T> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? static_cast<double>(values[n / 2])
                    : (static_cast<double>(values[n / 2 - 1]) +
                       static_cast<double>(values[n / 2])) /
                          2.0;
}

// A hierarchical query to probe the exact engine with on an approx-only
// session: the longest prefix of its atoms that is safe and hierarchical
// (q2 minus its last atom is the paper's q1).
bool ProbeQuery(const CQ& q, CQ* out) {
  for (size_t keep = q.atom_count(); keep > 0; --keep) {
    std::vector<size_t> indices;
    for (size_t i = 0; i < keep; ++i) indices.push_back(i);
    CQ candidate = q.Restrict(indices);
    if (IsSafe(candidate) && IsSelfJoinFree(candidate) &&
        IsHierarchical(candidate)) {
      *out = std::move(candidate);
      return true;
    }
  }
  return false;
}

class Replayer {
 public:
  explicit Replayer(const ReplayOptions& options)
      : options_(options),
        tracer_(Clock::now()),
        loop_(LoopOptions(options)),
        registry_(RegistryOptionsFor(options)) {}

  Result<bool> Init() {
    auto recovered = loop_.InitDurability();
    if (!recovered.ok()) return Result<bool>::Error(recovered.error());
    auto wal = SessionLogManager::Open(options_.wal_dir, kFsync,
                                       kSnapshotEvery);
    if (!wal.ok()) return Result<bool>::Error(wal.error());
    wal_ = std::make_unique<SessionLogManager>(std::move(wal).value());
    return Result<bool>::Ok(true);
  }

  // Replays one line on every stack; appends the loop stack's output.
  Result<bool> Line(const std::string& line, std::string* transcript) {
    std::string rest;
    const std::string command = FirstWord(line, &rest);
    std::string args;
    const std::string id = FirstWord(rest, &args);
    tracer_.BeginRequest("request." + command, id, false);
    Result<bool> outcome = Result<bool>::Ok(true);
    std::string out;
    if (command == "DELTA") {
      tracer_.Time("loop.delta", id, [&] {
        loop_.ExecuteLine(line, &out);
        return 0;
      });
      outcome = Delta(id, args);
    } else if (command == "REPORT") {
      tracer_.Time("loop.report", id, [&] {
        loop_.ExecuteLine(line, &out);
        return 0;
      });
      outcome = Report(id, args);
    } else {
      loop_.ExecuteLine(line, &out);
      if (command == "OPEN") outcome = Open(id, args);
    }
    tracer_.EndRequest();
    *transcript += out;
    return outcome;
  }

  // Times the layers the replayed path never ran, on each session's final
  // database.
  Result<bool> Probe() {
    std::set<std::string> ran;
    for (const Span& span : tracer_.spans()) ran.insert(span.name);
    const bool engine_missing =
        !ran.count("engine.build") || !ran.count("engine.patch") ||
        !ran.count("arena.sweep") || !ran.count("report.rank");
    const bool approx_missing =
        !ran.count("approx.create") || !ran.count("approx.estimate");
    const bool compact_missing = !ran.count("wal.compact");
    for (const std::string& id : order_) {
      EngineSession& session = sessions_[id];
      if (compact_missing) {
        tracer_.BeginRequest("probe.compact", id, true);
        auto compacted = tracer_.Time(
            "wal.compact", id, [&] { return wal_->Compact(id, *session.db); });
        tracer_.EndRequest();
        if (!compacted.ok()) return compacted;
      }
      if (engine_missing) {
        CQ probe_query;
        if (session.exact_capable) {
          probe_query = session.query;
        } else if (!ProbeQuery(session.query, &probe_query)) {
          continue;
        }
        auto result = ProbeEngine(id, probe_query, session.db.get());
        if (!result.ok()) return result;
      }
      if (approx_missing) {
        tracer_.BeginRequest("probe.approx", id, true);
        auto result =
            Approx(id, session.query, *session.db, ProbeApproxSpec());
        tracer_.EndRequest();
        if (!result.ok()) return result;
      }
    }
    return Result<bool>::Ok(true);
  }

  void WriteSpans(std::ostream& out) const {
    for (const Span& span : tracer_.spans()) {
      out << "{\"span\": " << span.id << ", \"parent\": " << span.parent
          << ", \"request\": " << span.request << ", \"name\": \""
          << span.name << "\", \"session\": \"" << span.session
          << "\", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns
          << ", \"probe\": " << (span.probe ? 1 : 0)
          << ", \"count\": " << span.count << "}\n";
    }
  }

  // Per-layer summary: median self time of every layer, its counts, and
  // the per-report sum of report-path self times.
  void WriteSummary(std::ostream& out) const {
    const std::vector<Span>& spans = tracer_.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    auto self_ns = [&](const Span& span) {
      return span.end_ns - span.start_ns - child_ns[span.id];
    };
    // name -> (on-path self times, probe self times) and counts.
    std::map<std::string, std::vector<int64_t>> path_ns, probe_ns;
    std::map<std::string, std::vector<double>> path_count, probe_count;
    for (const Span& span : spans) {
      if (span.parent < 0) continue;
      (span.probe ? probe_ns : path_ns)[span.name].push_back(self_ns(span));
      (span.probe ? probe_count : path_count)[span.name].push_back(
          span.count);
    }
    auto pick = [&](const std::string& name, bool* probed) {
      auto it = path_ns.find(name);
      *probed = it == path_ns.end();
      if (!*probed) return it->second;
      auto probe = probe_ns.find(name);
      return probe == probe_ns.end() ? std::vector<int64_t>{}
                                     : probe->second;
    };
    auto pick_count = [&](const std::string& name) {
      auto it = path_count.find(name);
      if (it != path_count.end()) return it->second;
      auto probe = probe_count.find(name);
      return probe == probe_count.end() ? std::vector<double>{}
                                        : probe->second;
    };

    out.precision(15);
    out << "{\n";
    struct Layer {
      const char* span;
      const char* metric;
      double scale;  // ns -> metric unit
    };
    const Layer layers[] = {
        {"loop.delta", "loop.delta_us", 1e-3},
        {"loop.report", "loop.report_ms", 1e-6},
        {"textio.mutation_parse", "textio.mutation_parse_us", 1e-3},
        {"request.parse", "request.parse_us", 1e-3},
        {"registry.mutate", "registry.mutate_us", 1e-3},
        {"registry.report", "registry.report_ms", 1e-6},
        {"wal.log_delta", "wal.log_delta_us", 1e-3},
        {"wal.sync", "wal.sync_ms", 1e-6},
        {"wal.compact", "wal.compact_ms", 1e-6},
        {"engine.build", "engine.build_ms", 1e-6},
        {"engine.patch", "engine.patch_us", 1e-3},
        {"arena.sweep", "arena.sweep_ms", 1e-6},
        {"report.rank", "report.rank_ms", 1e-6},
        {"report.render", "report.render_ms", 1e-6},
        {"approx.create", "approx.create_ms", 1e-6},
        {"approx.estimate", "approx.estimate_ms", 1e-6},
    };
    std::vector<std::string> probed_layers;
    for (const Layer& layer : layers) {
      bool probed = false;
      const std::vector<int64_t> times = pick(layer.span, &probed);
      if (probed && !times.empty()) probed_layers.push_back(layer.metric);
      out << "  \"" << layer.metric << "\": " << Median(times) * layer.scale
          << ",\n";
      out << "  \"" << layer.span << ".calls\": " << times.size() << ",\n";
    }
    out << "  \"engine.nodes\": " << Median(pick_count("engine.build"))
        << ",\n";
    out << "  \"engine.orbits\": " << Median(pick_count("arena.sweep"))
        << ",\n";
    out << "  \"engine.bytes\": " << Median(pick_count("report.rank"))
        << ",\n";
    out << "  \"report.rows\": " << Median(pick_count("registry.report"))
        << ",\n";
    out << "  \"report.bytes\": " << Median(pick_count("report.render"))
        << ",\n";
    double samples = 0.0;
    for (double count : pick_count("approx.estimate")) samples += count;
    bool probed = false;
    double estimate_ns = 0.0;
    for (int64_t ns : pick("approx.estimate", &probed)) estimate_ns += ns;
    out << "  \"approx.samples\": " << samples << ",\n";
    out << "  \"approx.samples_per_s\": "
        << (estimate_ns > 0 ? samples / (estimate_ns * 1e-9) : 0.0) << ",\n";
    const RegistryStats stats = registry_.stats();
    out << "  \"registry.builds\": " << stats.engine_builds << ",\n";
    out << "  \"registry.evictions\": " << stats.evictions << ",\n";
    out << "  \"registry.cache_hits\": " << stats.report_hits << ",\n";
    out << "  \"wal.bytes\": " << wal_->TotalLogBytes() << ",\n";

    // Report-path self times per REPORT request: the decomposition of one
    // report into the layers it passes through on the server.
    std::set<std::string> report_path = {
        "request.parse", "engine.build",  "arena.sweep",
        "report.rank",   "report.render", "approx.create",
        "approx.estimate"};
    if (!options_.log_dir.empty()) report_path.insert("wal.sync");
    std::map<size_t, int64_t> per_report;
    for (const Span& span : spans) {
      if (span.parent < 0 || span.probe) continue;
      const Span& root = spans[static_cast<size_t>(span.parent)];
      if (root.name != "request.REPORT") continue;
      if (report_path.count(span.name)) per_report[root.request] +=
          self_ns(span);
    }
    std::vector<int64_t> sums;
    for (const auto& entry : per_report) sums.push_back(entry.second);
    out << "  \"trace.report_layer_sum_ms\": " << Median(sums) * 1e-6
        << ",\n";
    out << "  \"probed\": [";
    for (size_t i = 0; i < probed_layers.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\"" << probed_layers[i] << "\"";
    }
    out << "],\n";
    out << "  \"spans\": " << spans.size() << "\n}\n";
  }

 private:
  // The wal stack stands in for a WAL the server does not run.
  bool wal_probe() const { return options_.log_dir.empty(); }

  static CommandLoopOptions LoopOptions(const ReplayOptions& options) {
    CommandLoopOptions loop;
    loop.registry = RegistryOptionsFor(options);
    loop.default_threads = kThreads;
    loop.log_dir = options.log_dir;
    loop.fsync = kFsync;
    loop.snapshot_every = kSnapshotEvery;
    return loop;
  }
  static RegistryOptions RegistryOptionsFor(const ReplayOptions& options) {
    RegistryOptions registry;
    registry.max_resident_engines = options.max_resident;
    registry.num_stripes = options.stripes;
    return registry;
  }

  Result<bool> Open(const std::string& id, const std::string& query_text) {
    auto query = ParseCQ(query_text);
    if (!query.ok()) return Result<bool>::Error(query.error());
    auto opened = registry_.Open(id, query.value());
    if (!opened.ok()) return Result<bool>::Error(opened.error());
    EngineSession& session = sessions_[id];
    session.query = query.value();
    session.exact_capable = opened.value();
    order_.push_back(id);
    return wal_->LogOpen(id, query_text);
  }

  Result<bool> Delta(const std::string& id, const std::string& text) {
    auto parsed = tracer_.Time("textio.mutation_parse", id,
                               [&] { return ParseMutationLine(text); });
    if (!parsed.ok()) return Result<bool>::Error(parsed.error());
    const MutationSpec& mutation = parsed.value();
    auto logged = tracer_.Time(
        "wal.log_delta", id, [&] { return wal_->LogDelta(id, text); },
        wal_probe());
    if (!logged.ok()) return logged;
    auto applied = tracer_.Time("registry.mutate", id, [&] {
      return registry_.ApplyMutation(id, mutation);
    });
    if (!applied.ok()) return Result<bool>::Error(applied.error());

    EngineSession& session = sessions_[id];
    Database& db = *session.db;
    const FactSpec& fact = mutation.fact;
    FactDelta delta;
    if (mutation.op == MutationSpec::Op::kInsert) {
      delta.op = FactDelta::Op::kInsert;
      delta.relation = fact.relation;
      delta.tuple = fact.tuple;
      delta.endogenous = fact.endogenous;
    } else {
      delta.op = FactDelta::Op::kDelete;
      delta.fact = db.FindFact(fact.relation, fact.tuple);
      if (delta.fact == kNoFact) {
        return Result<bool>::Error("replay: delete of an absent fact");
      }
    }
    if (session.engine != nullptr) {
      auto patched = tracer_.Time("engine.patch", id, [&] {
        return session.engine->ApplyDelta(db, {delta});
      });
      if (!patched.ok()) return Result<bool>::Error(patched.error());
    } else if (delta.op == FactDelta::Op::kInsert) {
      db.AddFact(delta.relation, delta.tuple, delta.endogenous);
    } else {
      db.RemoveFact(delta.fact);
    }

    if (wal_->Stats(id).records_since_snapshot >= kSnapshotEvery) {
      auto compacted = tracer_.Time(
          "wal.compact", id, [&] { return wal_->Compact(id, db); },
          wal_probe());
      if (!compacted.ok()) return compacted;
    }
    return Result<bool>::Ok(true);
  }

  Result<bool> Report(const std::string& id, const std::string& args) {
    auto parsed = tracer_.Time("request.parse", id, [&] {
      return ParseReportRequest(args, kThreads);
    });
    if (!parsed.ok()) return Result<bool>::Error(parsed.error());
    const ReportOptions report_options = parsed.value().ToReportOptions();
    auto synced = tracer_.Time(
        "wal.sync", id, [&] { return wal_->SyncAll(); }, wal_probe());
    if (!synced.ok()) return synced;

    auto served = tracer_.Time("registry.report", id, [&] {
      return registry_.Report(id, report_options);
    });
    if (!served.ok()) return Result<bool>::Error(served.error());
    tracer_.SetCount(static_cast<double>(served.value().rows.size()));
    const std::string rendered = tracer_.Time("report.render", id, [&] {
      return RenderReport(served.value(), *registry_.FindDatabase(id));
    });
    tracer_.SetCount(static_cast<double>(rendered.size()));

    EngineSession& session = sessions_[id];
    Result<bool> outcome = Result<bool>::Ok(true);
    if (report_options.approx.enabled() &&
        (!session.exact_capable || report_options.approx.force)) {
      outcome = Approx(id, session.query, *session.db, report_options.approx);
    } else {
      if (session.engine == nullptr) {
        auto built = Build(id, session.query, *session.db);
        if (!built.ok()) return Result<bool>::Error(built.error());
        session.engine =
            std::make_unique<ShapleyEngine>(std::move(built).value());
      }
      Sweep(id, session.engine.get(), *session.db, report_options);
    }
    // Mirror the registry's residency: engines it evicted are dropped here.
    for (auto& entry : sessions_) {
      if (entry.second.engine == nullptr) continue;
      auto stats = registry_.Stats(entry.first);
      if (stats.ok() && !stats.value().engine_resident) {
        entry.second.engine.reset();
      }
    }
    return outcome;
  }

  Result<ShapleyEngine> Build(const std::string& id, const CQ& q,
                              const Database& db) {
    auto built = tracer_.Time("engine.build", id,
                              [&] { return ShapleyEngine::Build(q, db); });
    if (built.ok()) {
      tracer_.SetCount(static_cast<double>(built.value().stats().node_count));
    }
    return built;
  }

  void Sweep(const std::string& id, ShapleyEngine* engine, const Database& db,
             const ReportOptions& report_options) {
    ParallelOptions parallel;
    parallel.num_threads = report_options.num_threads;
    tracer_.Time("arena.sweep", id, [&] {
      return engine->AllValues(parallel).size();
    });
    tracer_.SetCount(static_cast<double>(engine->stats().orbit_count));
    tracer_.Time("report.rank", id, [&] {
      return BuildAttributionReportFromEngine(*engine, db, report_options)
          .rows.size();
    });
    tracer_.SetCount(static_cast<double>(engine->ApproxMemoryBytes()));
  }

  Result<bool> Approx(const std::string& id, const CQ& q, const Database& db,
                      const ApproxSpec& spec) {
    auto created = tracer_.Time("approx.create", id, [&] {
      return ApproxEngine::Create(q, db, ApproxEngine::Options());
    });
    if (!created.ok()) return Result<bool>::Error(created.error());
    ApproxEngine engine = std::move(created).value();
    auto rows = tracer_.Time("approx.estimate", id, [&] {
      return engine.EstimateAll(spec, kThreads);
    });
    if (!rows.ok()) return Result<bool>::Error(rows.error());
    tracer_.SetCount(static_cast<double>(engine.info().samples_total));
    return Result<bool>::Ok(true);
  }

  // Build, sweep, rank, then delete and re-insert up to eight endogenous
  // facts one ApplyDelta at a time (patch).
  Result<bool> ProbeEngine(const std::string& id, const CQ& q, Database* db) {
    tracer_.BeginRequest("probe.engine", id, true);
    auto built = Build(id, q, *db);
    if (!built.ok()) {
      tracer_.EndRequest();
      return Result<bool>::Error(built.error());
    }
    ShapleyEngine engine = std::move(built).value();
    ReportOptions report_options;
    report_options.num_threads = kThreads;
    Sweep(id, &engine, *db, report_options);
    std::vector<FactId> endo = db->endogenous_facts();
    if (endo.size() > 8) endo.resize(8);
    for (FactId fact : endo) {
      FactDelta remove;
      remove.op = FactDelta::Op::kDelete;
      remove.fact = fact;
      FactDelta insert;
      insert.op = FactDelta::Op::kInsert;
      insert.relation = db->schema().name(db->relation_of(fact));
      insert.tuple = db->tuple_of(fact);
      insert.endogenous = true;
      for (const FactDelta& delta : {remove, insert}) {
        auto patched = tracer_.Time("engine.patch", id, [&] {
          return engine.ApplyDelta(*db, {delta});
        });
        if (!patched.ok()) {
          tracer_.EndRequest();
          return Result<bool>::Error(patched.error());
        }
      }
    }
    tracer_.EndRequest();
    return Result<bool>::Ok(true);
  }

  ReplayOptions options_;
  Tracer tracer_;
  CommandLoop loop_;
  EngineRegistry registry_;
  std::unique_ptr<SessionLogManager> wal_;
  std::map<std::string, EngineSession> sessions_;
  std::vector<std::string> order_;
};

int RunReplay(const ReplayOptions& options) {
  Replayer replayer(options);
  auto ready = replayer.Init();
  if (!ready.ok()) return Fail(ready.error());
  std::string transcript;
  for (const std::string& path : options.scripts) {
    std::ifstream in(path);
    if (!in) return Fail("cannot open " + path);
    transcript += "# script " + path + "\n";
    std::string line;
    while (std::getline(in, line)) {
      auto replayed = replayer.Line(line, &transcript);
      if (!replayed.ok()) {
        return Fail("replay of '" + line + "': " + replayed.error());
      }
    }
  }
  auto probed = replayer.Probe();
  if (!probed.ok()) return Fail("probe: " + probed.error());
  std::ofstream transcript_out(options.transcript_path);
  transcript_out << transcript;
  std::ofstream spans_out(options.spans_path);
  replayer.WriteSpans(spans_out);
  if (!transcript_out || !spans_out) return Fail("cannot write outputs");
  replayer.WriteSummary(std::cout);
  return 0;
}

int ParseReplay(int argc, char** argv) {
  ReplayOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    auto size = [&]() -> size_t {
      return std::strtoull(next().c_str(), nullptr, 10);
    };
    if (arg == "--max-resident") {
      options.max_resident = size();
    } else if (arg == "--stripes") {
      options.stripes = size();
    } else if (arg == "--log-dir") {
      options.log_dir = next();
    } else if (arg == "--wal-dir") {
      options.wal_dir = next();
    } else if (arg == "--spans") {
      options.spans_path = next();
    } else if (arg == "--transcript") {
      options.transcript_path = next();
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown replay flag " + arg);
    } else {
      options.scripts.push_back(arg);
    }
  }
  if (options.wal_dir.empty() || options.spans_path.empty() ||
      options.transcript_path.empty() || options.scripts.empty()) {
    return Fail(
        "replay needs --wal-dir, --spans, --transcript and at least one "
        "script");
  }
  return RunReplay(options);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "info") return RunInfo();
  if (command == "queries") {
    std::map<std::string, std::string> flags;
    for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
    return RunQueries(flags);
  }
  if (command == "values" && argc == 5 &&
      std::string(argv[2]) == "--method") {
    return RunValues(argv[3], argv[4]);
  }
  if (command == "replay") return ParseReplay(argc, argv);
  return Fail(
      "usage: server_bench_tool info | queries --kind hier|nonhier --seed S "
      "--count N | values --method countsat|brute FILE | replay ...");
}
