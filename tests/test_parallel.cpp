// Tests for the lumos::ThreadPool fork-join primitives and the central
// guarantee of the parallel training/inference engine: models trained
// under LUMOS_THREADS=1 and LUMOS_THREADS=8 are bit-identical.
//
// The ctest tier-1 flow runs this whole binary twice, with LUMOS_THREADS
// pinned to 1 and to 8 (see tests/CMakeLists.txt); the determinism tests
// additionally flip the pool size explicitly so each run compares both
// settings in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "core/lumos5g.h"
#include "data/features.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "sim/areas.h"

namespace lumos {
namespace {

// ---------- ThreadPool / parallel_for ----------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool::global().set_threads(4);
  std::vector<int> hits(10000, 0);
  parallel_for(0, hits.size(), 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, EmptyAndSingleChunkRangesAreSafe) {
  ThreadPool::global().set_threads(4);
  int calls = 0;
  parallel_for(5, 5, 10, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(0, 3, 10, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives) {
  ThreadPool::global().set_threads(4);
  EXPECT_THROW(parallel_for(0, 1000, 10,
                            [](std::size_t b, std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) {
                                if (i == 537) {
                                  throw std::runtime_error("boom");
                                }
                              }
                            }),
               std::runtime_error);
  // The pool must remain usable after a failed loop.
  std::atomic<int> n{0};
  parallel_for(0, 100, 1, [&](std::size_t b, std::size_t e) {
    n += static_cast<int>(e - b);
  });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool::global().set_threads(4);
  std::vector<double> sums(8, 0.0);
  parallel_for(0, 8, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      EXPECT_TRUE(ThreadPool::in_parallel_region());
      // The nested loop runs inline on this thread, so the plain
      // accumulation below is race-free.
      double s = 0.0;
      parallel_for(0, 1000, 100, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) s += static_cast<double>(i);
      });
      sums[o] = s;
    }
  });
  for (const double s : sums) EXPECT_EQ(s, 499500.0);
}

TEST(ThreadPool, SetThreadsResizesPool) {
  ThreadPool::global().set_threads(2);
  EXPECT_EQ(ThreadPool::global().threads(), 2u);
  ThreadPool::global().set_threads(1);
  EXPECT_EQ(ThreadPool::global().threads(), 1u);
  ThreadPool::global().set_threads(0);  // 0 = LUMOS_THREADS / hardware
  EXPECT_EQ(ThreadPool::global().threads(), configured_threads());
}

// ---------- parallel_reduce ----------

TEST(ParallelReduce, SumsBitIdenticallyAcrossThreadCounts) {
  const auto run = [] {
    return parallel_reduce(
        0, 100000, 1000, 0.0,
        [](std::size_t b, std::size_t e) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            s += std::sin(static_cast<double>(i) * 1e-3);
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  ThreadPool::global().set_threads(1);
  const double serial = run();
  ThreadPool::global().set_threads(8);
  const double threaded = run();
  EXPECT_EQ(serial, threaded);  // bitwise: chunk order is fixed
  ThreadPool::global().set_threads(0);
}

// ---------- model determinism on a simulated Intersection dataset ----------

const data::BuiltFeatures& intersection_features() {
  static const data::BuiltFeatures built = [] {
    const auto ds = sim::collect_area_dataset(sim::make_intersection(),
                                              /*walk_runs=*/3, 0, 7777);
    return data::build_features(ds, data::FeatureSetSpec::parse("L+M+C"), {});
  }();
  return built;
}

TEST(Determinism, GbdtRegressorIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ASSERT_GT(built.x.rows(), 100u);
  ml::GbdtConfig cfg;
  cfg.n_estimators = 40;
  cfg.max_depth = 5;
  cfg.subsample = 0.8;  // exercises the row-sampling RNG too

  ThreadPool::global().set_threads(1);
  ml::GbdtRegressor serial(cfg);
  serial.fit(built.x, built.y_reg);
  const auto p1 = serial.predict_all(built.x);

  ThreadPool::global().set_threads(8);
  ml::GbdtRegressor threaded(cfg);
  threaded.fit(built.x, built.y_reg);
  const auto p8 = threaded.predict_all(built.x);
  ThreadPool::global().set_threads(0);

  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i], p8[i]) << "row " << i;  // bitwise equality
  }
}

TEST(Determinism, GbdtClassifierIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ml::GbdtConfig cfg;
  cfg.n_estimators = 25;
  cfg.max_depth = 4;

  ThreadPool::global().set_threads(1);
  ml::GbdtClassifier serial(cfg);
  serial.fit(built.x, built.y_cls, data::kNumThroughputClasses);

  ThreadPool::global().set_threads(8);
  ml::GbdtClassifier threaded(cfg);
  threaded.fit(built.x, built.y_cls, data::kNumThroughputClasses);
  ThreadPool::global().set_threads(0);

  // The margins, not the argmax labels: a label cannot see a last-bit
  // difference in a score.
  for (std::size_t i = 0; i < built.x.rows(); ++i) {
    const auto s1 = serial.decision_function(built.x.row(i));
    const auto s8 = threaded.decision_function(built.x.row(i));
    ASSERT_EQ(s1.size(), s8.size());
    for (std::size_t c = 0; c < s1.size(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(s1[c]),
                std::bit_cast<std::uint64_t>(s8[c]))
          << "row " << i << " class " << c;
    }
  }
}

TEST(Determinism, RandomForestRegressorIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ml::ForestConfig cfg;
  cfg.n_trees = 30;
  cfg.max_depth = 8;

  ThreadPool::global().set_threads(1);
  ml::RandomForestRegressor serial(cfg);
  serial.fit(built.x, built.y_reg);
  const auto p1 = serial.predict_all(built.x);

  ThreadPool::global().set_threads(8);
  ml::RandomForestRegressor threaded(cfg);
  threaded.fit(built.x, built.y_reg);
  const auto p8 = threaded.predict_all(built.x);
  ThreadPool::global().set_threads(0);

  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i], p8[i]) << "row " << i;
  }
}

TEST(Determinism, RandomForestClassifierIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ml::ForestConfig cfg;
  cfg.n_trees = 20;
  cfg.max_depth = 6;

  ThreadPool::global().set_threads(1);
  ml::RandomForestClassifier serial(cfg);
  serial.fit(built.x, built.y_cls, data::kNumThroughputClasses);
  const auto p1 = serial.predict_all(built.x);

  ThreadPool::global().set_threads(8);
  ml::RandomForestClassifier threaded(cfg);
  threaded.fit(built.x, built.y_cls, data::kNumThroughputClasses);
  const auto p8 = threaded.predict_all(built.x);
  ThreadPool::global().set_threads(0);

  EXPECT_EQ(p1, p8);
}

// ---------- the facade's concurrent per-tier fits ----------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_mapper(const ml::BinMapper& a,
                                       const ml::BinMapper& b) {
  if (a.max_bins() != b.max_bins() || a.n_features() != b.n_features()) {
    return ::testing::AssertionFailure() << "mapper shape";
  }
  for (std::size_t f = 0; f < a.n_features(); ++f) {
    const auto& ea = a.edges()[f];
    const auto& eb = b.edges()[f];
    if (!std::equal(ea.begin(), ea.end(), eb.begin(), eb.end(), same_bits)) {
      return ::testing::AssertionFailure() << "mapper edges of feature " << f;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_trees(const std::vector<ml::GradientTree>& a,
                                      const std::vector<ml::GradientTree>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "tree count " << a.size() << " vs " << b.size();
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    const auto& na = a[t].nodes();
    const auto& nb = b[t].nodes();
    if (na.size() != nb.size() || a[t].gains().size() != b[t].gains().size() ||
        a[t].missing_code() != b[t].missing_code()) {
      return ::testing::AssertionFailure() << "tree " << t << " shape";
    }
    for (std::size_t i = 0; i < na.size(); ++i) {
      const auto& x = na[i];
      const auto& y = nb[i];
      if (x.feature != y.feature || x.bin != y.bin || x.left != y.left ||
          x.right != y.right || x.default_left != y.default_left ||
          !same_bits(x.threshold, y.threshold) ||
          !same_bits(x.value, y.value) ||
          !same_bits(a[t].gains()[i], b[t].gains()[i])) {
        return ::testing::AssertionFailure()
               << "tree " << t << " node " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every tier's trained flag, and every trained tier's regressor and
/// classifier field by field, bit for bit.
::testing::AssertionResult same_facade(const core::Lumos5G& a,
                                       const core::Lumos5G& b) {
  for (std::size_t i = 0; i < a.tier_specs().size(); ++i) {
    if (a.tier_trained(i) != b.tier_trained(i)) {
      return ::testing::AssertionFailure() << "tier " << i << " trained flag";
    }
    if (!a.tier_trained(i)) continue;
    const auto& ra = a.tier_regressor(i);
    const auto& rb = b.tier_regressor(i);
    if (!same_bits(ra.base(), rb.base()) ||
        ra.n_features() != rb.n_features()) {
      return ::testing::AssertionFailure() << "tier " << i << " regressor base";
    }
    if (auto r = same_mapper(ra.mapper(), rb.mapper()); !r) {
      return r << " (tier " << i << " regressor)";
    }
    if (auto r = same_trees(ra.trees(), rb.trees()); !r) {
      return r << " (tier " << i << " regressor)";
    }
    const auto& ca = a.tier_classifier(i);
    const auto& cb = b.tier_classifier(i);
    if (ca.n_classes() != cb.n_classes() ||
        ca.n_features() != cb.n_features() ||
        !std::equal(ca.base().begin(), ca.base().end(), cb.base().begin(),
                    cb.base().end(), same_bits)) {
      return ::testing::AssertionFailure()
             << "tier " << i << " classifier base";
    }
    if (auto r = same_mapper(ca.mapper(), cb.mapper()); !r) {
      return r << " (tier " << i << " classifier)";
    }
    if (auto r = same_trees(ca.trees(), cb.trees()); !r) {
      return r << " (tier " << i << " classifier)";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Determinism, Lumos5GTrainIdenticalAcrossThreadCounts) {
  core::Lumos5GConfig cfg;
  cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
  cfg.gbdt.n_estimators = 12;
  cfg.gbdt.max_depth = 5;
  cfg.gbdt.subsample = 0.8;  // each fit draws rows from its own Rng
  const auto train_at = [&cfg](std::size_t threads, const data::Dataset& ds) {
    ThreadPool::global().set_threads(threads);
    core::Lumos5G f(cfg);
    EXPECT_TRUE(f.train(ds).has_value());
    return f;
  };

  // The Intersection campaign trains every tier of T+M+C → L+M+C → L+M.
  // The Loop has no panel survey, so its T+M+C tier has no rows and only
  // the two fits of each other tier run.
  const auto intersection = sim::collect_area_dataset(
      sim::make_intersection(), /*walk_runs=*/2, 0, 4242);
  const auto loop =
      sim::collect_area_dataset(sim::make_loop(), /*walk_runs=*/1, 0, 4243);
  for (const data::Dataset* ds : {&intersection, &loop}) {
    const core::Lumos5G serial = train_at(1, *ds);
    ASSERT_EQ(serial.tier_specs().size(), 3u);
    EXPECT_EQ(serial.tier_trained(0), ds == &intersection);
    EXPECT_TRUE(serial.tier_trained(1));
    EXPECT_TRUE(serial.tier_trained(2));
    for (const std::size_t threads : {2, 8}) {
      const core::Lumos5G threaded = train_at(threads, *ds);
      EXPECT_TRUE(same_facade(serial, threaded))
          << (ds == &intersection ? "Intersection" : "Loop") << " at "
          << threads << " threads";
    }
  }
  ThreadPool::global().set_threads(0);
}

}  // namespace
}  // namespace lumos
