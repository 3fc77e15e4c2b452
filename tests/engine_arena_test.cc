// The flat SoA engine arena (core/engine_arena.h): unit tests of the cell
// store, topological structure, slack/compaction, free-fact counters and
// byte accounting on a hand-built arena, engine-level degenerate cases, and
// the differential fuzz battery — after build and after every mutation, the
// delta-maintained engine must be bit-identical, at every thread count, to a
// fresh Build() over the same database and to the per-fact
// ShapleyViaCountSat reference (two full CntSat runs per fact, sharing no
// index, tree or arena with the engine).

#include "core/engine_arena.h"

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/count_sat.h"
#include "core/shapley.h"
#include "core/shapley_engine.h"
#include "datasets/query_gen.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "query/parser.h"
#include "util/random.h"

namespace shapcq {
namespace {

ParallelOptions Threads(size_t n) {
  ParallelOptions options;
  options.num_threads = n;
  return options;
}

CountVector Counts(std::vector<int> values) {
  std::vector<BigInt> cells;
  cells.reserve(values.size());
  for (int v : values) cells.push_back(BigInt(v));
  return CountVector::FromCounts(std::move(cells));
}

// A three-node arena built by hand (component root over two ground
// leaves), bypassing ShapleyEngine: the unit tests below exercise the cell
// store directly.
EngineArena MakeSmallArena() {
  EngineArena arena;
  arena.AppendNode(EngineArena::NodeKind::kComponent, /*parent=*/-1,
                   /*child_index=*/-1, {1, 2}, /*free_endo=*/0,
                   /*negated=*/false, CountVector::All(4), CountVector());
  arena.AppendNode(EngineArena::NodeKind::kGround, /*parent=*/0,
                   /*child_index=*/0, {}, /*free_endo=*/0, /*negated=*/false,
                   Counts({1, 2, 1}), CountVector());
  arena.AppendNode(EngineArena::NodeKind::kGround, /*parent=*/0,
                   /*child_index=*/1, {}, /*free_endo=*/0, /*negated=*/true,
                   CountVector::Zero(3), CountVector());
  arena.SealStructure(0);
  return arena;
}

// ---------------------------------------------------------------------------
// Unit tests on the hand-built arena.
// ---------------------------------------------------------------------------

TEST(EngineArenaTest, StructureAndSatRoundTrip) {
  EngineArena arena = MakeSmallArena();
  EXPECT_EQ(arena.node_count(), 3u);
  EXPECT_EQ(arena.root(), 0);
  arena.CheckInvariants();
  EXPECT_EQ(arena.SatOf(0), CountVector::All(4));
  EXPECT_EQ(arena.SatOf(1), Counts({1, 2, 1}));
  EXPECT_EQ(arena.SatOf(2), CountVector::Zero(3));
  EXPECT_EQ(arena.SlackCells(), 0u);
}

TEST(EngineArenaTest, LeafStoreReusesCapacityInPlace) {
  EngineArena arena = MakeSmallArena();
  // Same length as the absorbed vector: the slot is rewritten in place, no
  // cells are stranded.
  arena.SetLeafSat(1, Counts({3, 1, 4}));
  EXPECT_EQ(arena.SlackCells(), 0u);
  EXPECT_EQ(arena.SatOf(1), Counts({3, 1, 4}));
  // Shorter also fits the capacity in place.
  arena.SetLeafSat(1, Counts({7, 7}));
  EXPECT_EQ(arena.SlackCells(), 0u);
  EXPECT_EQ(arena.SatOf(1), Counts({7, 7}));
  arena.CheckInvariants();
}

TEST(EngineArenaTest, WideningStoreStrandsSlackAndCompactReclaims) {
  EngineArena arena = MakeSmallArena();
  const size_t bytes_before = arena.ApproxMemoryBytes();
  // Universe grew past the slot's capacity (3 cells): the vector moves to a
  // fresh range and the old one becomes slack.
  arena.SetLeafSat(1, CountVector::All(5));
  EXPECT_EQ(arena.SlackCells(), 3u);
  EXPECT_EQ(arena.SatOf(1), CountVector::All(5));
  EXPECT_GT(arena.ApproxMemoryBytes(), bytes_before);
  arena.CheckInvariants();

  const size_t bytes_slack = arena.ApproxMemoryBytes();
  arena.CompactCells();
  EXPECT_EQ(arena.SlackCells(), 0u);
  EXPECT_LE(arena.ApproxMemoryBytes(), bytes_slack);
  // Values are untouched by compaction.
  EXPECT_EQ(arena.SatOf(0), CountVector::All(4));
  EXPECT_EQ(arena.SatOf(1), CountVector::All(5));
  EXPECT_EQ(arena.SatOf(2), CountVector::Zero(3));
  arena.CheckInvariants();
}

TEST(EngineArenaTest, ApproxMemoryBytesCoversTheCellBuffer) {
  EngineArena arena = MakeSmallArena();
  // 5 + 3 + 4 absorbed cells at 40 bytes of inline BigInt each is a hard
  // floor for the buffer term of the estimate.
  EXPECT_GE(arena.ApproxMemoryBytes(), 12 * sizeof(BigInt));
}

TEST(EngineArenaTest, SetFreeEndoRederivesSatFromCore) {
  // A root-var node over one endogenous positive leaf: core_sat = [0, 1].
  EngineArena arena;
  const CountVector leaf =
      GroundLeafSat(/*negated=*/false, GroundFactState::kEndogenous);
  const CountVector core =
      CountVector::All(1) - leaf.ComplementAgainstAll();
  arena.AppendNode(EngineArena::NodeKind::kRootVar, /*parent=*/-1,
                   /*child_index=*/-1, {1}, /*free_endo=*/0,
                   /*negated=*/false, core, core);
  arena.AppendNode(EngineArena::NodeKind::kGround, /*parent=*/0,
                   /*child_index=*/0, {}, /*free_endo=*/0, /*negated=*/false,
                   leaf, CountVector());
  arena.SealStructure(0);
  EXPECT_EQ(arena.SatOf(0), Counts({0, 1}));

  // Two free endogenous facts at the root: sat = core * All(2). They are
  // null players, so the leaf's fact keeps the whole value 1.
  arena.SetFreeEndo(0, 2);
  EXPECT_EQ(arena.SatOf(0), core.Convolve(CountVector::All(2)));
  EXPECT_EQ(arena.SatOf(0), Counts({0, 1, 2, 1}));
  EXPECT_EQ(arena.ValueAtLeaf(1, /*endo_count=*/3, /*global_free_endo=*/0),
            Rational(1));
  arena.CheckInvariants();

  arena.SetFreeEndo(0, 0);
  EXPECT_EQ(arena.SatOf(0), core);
}

// ---------------------------------------------------------------------------
// Engine-level degenerate queries.
// ---------------------------------------------------------------------------

TEST(EngineArenaCoreTest, EmptyDatabaseMatchesCountSat) {
  const CQ q = MustParseCQ("q() :- R(x)");
  Database db;
  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  EXPECT_TRUE(engine.AllValues().empty());
  EXPECT_TRUE(engine.OrbitIds().empty());
  EXPECT_EQ(engine.BaselineSat(), CountSat(q, db).value());
  EXPECT_GT(engine.ApproxMemoryBytes(), 0u);
}

TEST(EngineArenaCoreTest, ExogenousOnlyDatabaseMatchesCountSat) {
  const CQ q = MustParseCQ("q() :- R(x)");
  Database db;
  db.AddExo("R", {V("a")});
  db.AddExo("S", {V("b")});
  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  EXPECT_TRUE(engine.AllValues().empty());
  EXPECT_EQ(engine.BaselineSat(), CountSat(q, db).value());
}

// ---------------------------------------------------------------------------
// The differential contract: the delta-maintained engine against a fresh
// Build and the per-fact ShapleyViaCountSat reference, bit-identical, at
// every thread count, after build and after every delta.
// ---------------------------------------------------------------------------

// Checks `engine` (maintained on `db`, at thread counts 1/2/4/8) against a
// fresh Build over `db` and against per-fact ShapleyViaCountSat: same
// Rationals, same canonical renderings, the fresh build's (and CountSat's)
// baseline, and one value per orbit of OrbitIds().
void ExpectMatchesOracles(ShapleyEngine& engine, const CQ& q,
                          const Database& db, const std::string& label) {
  std::vector<Rational> oracle;
  for (FactId f : db.endogenous_facts()) {
    auto value = ShapleyViaCountSat(q, db, f);
    ASSERT_TRUE(value.ok()) << value.error() << ", " << label;
    oracle.push_back(std::move(value).value());
  }
  ASSERT_EQ(oracle.size(), db.endogenous_count()) << label;

  auto fresh_built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(fresh_built.ok()) << fresh_built.error() << ", " << label;
  ShapleyEngine fresh = std::move(fresh_built).value();

  const auto expect_identical = [&](const std::vector<Rational>& got,
                                    const std::string& who) {
    ASSERT_EQ(got.size(), oracle.size()) << label << ", " << who;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], oracle[i]) << label << ", " << who << ", endo index "
                                   << i;
      ASSERT_EQ(got[i].ToString(), oracle[i].ToString())
          << label << ", " << who << ", endo index " << i;
    }
  };
  expect_identical(fresh.AllValues(), "fresh build");
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    expect_identical(engine.AllValues(Threads(threads)),
                     "maintained t=" + std::to_string(threads));
  }

  EXPECT_EQ(engine.BaselineSat(), fresh.BaselineSat()) << label;
  EXPECT_EQ(engine.BaselineSat(), CountSat(q, db).value()) << label;

  const std::vector<size_t> orbits = engine.OrbitIds();
  ASSERT_EQ(orbits.size(), oracle.size()) << label;
  std::map<size_t, Rational> orbit_value;
  for (size_t i = 0; i < orbits.size(); ++i) {
    const auto [it, inserted] = orbit_value.emplace(orbits[i], oracle[i]);
    if (!inserted) {
      ASSERT_EQ(it->second, oracle[i])
          << label << ", orbit " << orbits[i] << " at endo index " << i;
    }
  }
}

class EngineArenaDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineArenaDifferentialFuzz, BitIdenticalToFreshBuildUnderDeltas) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 50021 + 7);
  QueryGenOptions query_options;
  query_options.max_depth = 3;
  query_options.max_branch = 2;
  const CQ q = RandomHierarchicalCq(query_options, &rng);
  SyntheticOptions db_options;
  db_options.domain_size = 3;
  db_options.facts_per_relation = 4;
  Database db = RandomDatabaseForQuery(q, {}, db_options, &rng);

  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error() << " for " << q.ToString();
  ShapleyEngine engine = std::move(built).value();

  ExpectMatchesOracles(engine, q, db, q.ToString() + " after build");

  std::vector<FactId> live;
  for (size_t i = 0; i < db.fact_slot_count(); ++i) {
    live.push_back(static_cast<FactId>(i));
  }
  std::vector<std::pair<std::string, size_t>> insertable;
  for (const Atom& atom : q.atoms()) {
    insertable.emplace_back(atom.relation, atom.arity());
  }
  insertable.emplace_back("Alien", 1);

  const int kDeltas = 8;
  for (int step = 0; step < kDeltas; ++step) {
    const bool do_delete = !live.empty() && rng.Bernoulli(0.45);
    if (do_delete) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      const FactId victim = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      auto deleted = engine.DeleteFact(db, victim);
      ASSERT_TRUE(deleted.ok()) << deleted.error() << " for " << q.ToString();
    } else {
      const auto& [relation, arity] =
          insertable[rng.UniformInt(insertable.size())];
      Tuple tuple;
      for (size_t t = 0; t < arity; ++t) {
        tuple.push_back(V("c" + std::to_string(rng.UniformInt(4))));
      }
      if (db.FindFact(relation, tuple) != kNoFact) continue;
      const bool endogenous = rng.Bernoulli(0.7);
      auto inserted = engine.InsertFact(db, relation, tuple, endogenous);
      ASSERT_TRUE(inserted.ok())
          << inserted.error() << " for " << q.ToString();
      live.push_back(inserted.value());
    }
    ExpectMatchesOracles(engine, q, db,
                         q.ToString() + " after delta " + std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(GeneratedQueries, EngineArenaDifferentialFuzz,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Thread axis on a fixed workload (also the TSan target: the level-parallel
// warm sweep writes disjoint slots of one shared cell buffer).
// ---------------------------------------------------------------------------

TEST(EngineArenaParallelTest, ThreadCountsBitIdenticalOnScalingDb) {
  const CQ q = UniversityQ1();
  Database db = BuildStudentScalingDb(6, 3);
  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  ExpectMatchesOracles(engine, q, db, "scaling db after build");

  // And again on a mutated engine.
  const Atom& atom = q.atoms().front();
  Tuple tuple;
  for (size_t t = 0; t < atom.arity(); ++t) {
    tuple.push_back(V("zz" + std::to_string(t)));
  }
  auto inserted = engine.InsertFact(db, atom.relation, tuple, true);
  ASSERT_TRUE(inserted.ok()) << inserted.error();
  ExpectMatchesOracles(engine, q, db, "scaling db after insert");
}

}  // namespace
}  // namespace shapcq
