// All-facts exact Shapley: the single-pass ShapleyEngine against the
// per-fact CntSat loop it replaces. The engine builds the matched-fact index
// and the recursion tree once and re-evaluates only a root-to-leaf path per
// fact (one path per symmetry orbit), so the gap widens with |Dn|; the
// per-fact loop re-runs the whole recursion twice per fact.
//
// Arg = students in the q1-shaped scaling database (endo = 3s + ceil(s/2)):
// s = 20 crosses the endo >= 64 threshold tracked in BENCH_shapley.json.
// BM_EngineAllFactsParallel adds a thread-count axis ({students, threads})
// over the same workload; serial-vs-parallel speedups land in the same JSON.

#include <benchmark/benchmark.h>

#include "core/shapley.h"
#include "core/shapley_engine.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"

namespace {

using namespace shapcq;

void BM_EngineAllFacts(benchmark::State& state) {
  // The flat SoA arena sweep (engine_arena.h). Build is kept out of the
  // timed region (BM_EngineBuildOnly tracks it in this same JSON), so the
  // row measures the all-facts value computation. Compared against
  // BM_PerFactCountSatLoop below; tools/check_engine_speedup.py gates the
  // per-fact/engine ratio at the endo >= 70 sizes.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    state.PauseTiming();
    ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.AllValues());
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_EngineAllFacts)->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(32);

void BM_PerFactCountSatLoop(benchmark::State& state) {
  // The pre-engine ShapleyAllViaCountSat: one ShapleyViaCountSat call (two
  // full CntSat runs over copied databases) per endogenous fact.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    std::vector<Rational> values;
    values.reserve(db.endogenous_count());
    for (FactId f : db.endogenous_facts()) {
      values.push_back(ShapleyViaCountSat(q, db, f).value());
    }
    benchmark::DoNotOptimize(values);
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_PerFactCountSatLoop)->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(32);

void BM_EngineAllFactsParallel(benchmark::State& state) {
  // The worker-pool path: args = {students, threads}. threads=1 routes to
  // the serial engine inside AllValues, so the t=1 rows double as the
  // baseline for the per-thread speedup curve BENCH_shapley.json records.
  // Output is bit-identical across the thread axis (asserted by the
  // determinism tests); only wall-clock should move.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  ParallelOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    // Build is identical serial work at every thread count — keep it out of
    // the timed region so the rows measure the value-computation speedup,
    // not (Build + values) / (Build + values/t). Engine destruction stays
    // timed (cheap relative to AllValues).
    state.PauseTiming();
    ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.AllValues(options));
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()) +
                 " threads=" + std::to_string(options.num_threads));
}
BENCHMARK(BM_EngineAllFactsParallel)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({20, 8})
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 4})
    ->Args({32, 8});

void BM_EngineBuildOnly(benchmark::State& state) {
  // The shared index + memoized tree, without any value queries: the fixed
  // cost one baseline CntSat-equivalent pass pays.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShapleyEngine::Build(q, db).value());
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_EngineBuildOnly)->Arg(8)->Arg(20)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
