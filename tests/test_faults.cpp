// Robustness suite: fault injection -> validate/repair -> train -> predict.
// Exercises the full dirty-data path at impairment rates {0, 0.05, 0.2,
// 0.5}, checks determinism of every stage, and verifies the prediction
// fallback chain degrades gracefully instead of failing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/lumos5g.h"
#include "data/csv.h"
#include "data/features.h"
#include "data/quality.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "sim/areas.h"
#include "sim/faults.h"

namespace lumos {
namespace {

using core::Lumos5G;
using core::Lumos5GConfig;
using data::Dataset;
using data::FeatureSetSpec;
using sim::FaultConfig;
using sim::FaultInjector;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult records_identical(const data::SampleRecord& a,
                                             const data::SampleRecord& b) {
  if (a.area != b.area || a.trajectory_id != b.trajectory_id ||
      a.run_id != b.run_id || a.detected_activity != b.detected_activity ||
      a.radio_type != b.radio_type || a.cell_id != b.cell_id ||
      a.horizontal_handoff != b.horizontal_handoff ||
      a.vertical_handoff != b.vertical_handoff || a.pixel_x != b.pixel_x ||
      a.pixel_y != b.pixel_y) {
    return ::testing::AssertionFailure() << "non-double field differs";
  }
  const double* da[] = {&a.timestamp_s, &a.latitude, &a.longitude,
                        &a.gps_accuracy_m, &a.moving_speed_mps,
                        &a.compass_deg, &a.compass_accuracy,
                        &a.throughput_mbps, &a.lte_rsrp, &a.lte_rsrq,
                        &a.lte_rssi, &a.nr_ssrsrp, &a.nr_ssrsrq,
                        &a.nr_ssrssi, &a.ue_panel_distance_m, &a.theta_p_deg,
                        &a.theta_m_deg};
  const double* db[] = {&b.timestamp_s, &b.latitude, &b.longitude,
                        &b.gps_accuracy_m, &b.moving_speed_mps,
                        &b.compass_deg, &b.compass_accuracy,
                        &b.throughput_mbps, &b.lte_rsrp, &b.lte_rsrq,
                        &b.lte_rssi, &b.nr_ssrsrp, &b.nr_ssrsrq,
                        &b.nr_ssrssi, &b.ue_panel_distance_m, &b.theta_p_deg,
                        &b.theta_m_deg};
  for (std::size_t i = 0; i < std::size(da); ++i) {
    if (!same_bits(*da[i], *db[i])) {
      return ::testing::AssertionFailure()
             << "double field " << i << " differs: " << *da[i] << " vs "
             << *db[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult datasets_identical(const Dataset& a,
                                              const Dataset& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto r = records_identical(a[i], b[i]);
    if (!r) return ::testing::AssertionFailure() << "row " << i << ": "
                                                 << r.message();
  }
  return ::testing::AssertionSuccess();
}

/// Small airport campaign shared by the pipeline tests.
const Dataset& base_ds() {
  static const Dataset ds = [] {
    return sim::collect_area_dataset(sim::make_airport(), /*walk_runs=*/3,
                                     /*drive_runs=*/0, /*seed=*/777);
  }();
  return ds;
}

Lumos5GConfig pipeline_config() {
  Lumos5GConfig cfg;
  cfg.feature_spec = FeatureSetSpec::parse("L+M+C");
  cfg.features.max_gap_s = 2.5;  // gap-aware windowing on
  cfg.gbdt.n_estimators = 25;
  return cfg;
}

// ---------- injector ----------

TEST(FaultInjector, RateZeroIsBitIdentical) {
  const FaultInjector inj(FaultConfig::uniform(0.0), 123);
  const Dataset out = inj.inject(base_ds());
  EXPECT_TRUE(datasets_identical(base_ds(), out));
}

TEST(FaultInjector, DeterministicForFixedSeed) {
  const FaultInjector inj(FaultConfig::uniform(0.2), 42);
  const Dataset a = inj.inject(base_ds());
  const Dataset b = inj.inject(base_ds());
  EXPECT_TRUE(datasets_identical(a, b));

  const FaultInjector other(FaultConfig::uniform(0.2), 43);
  const Dataset c = other.inject(base_ds());
  EXPECT_FALSE(datasets_identical(a, c));
}

TEST(FaultInjector, InjectsEveryConfiguredDefectClass) {
  const FaultInjector inj(FaultConfig::uniform(0.2), 7);
  const Dataset dirty = inj.inject(base_ds());
  EXPECT_LT(dirty.size(), base_ds().size() + base_ds().size() / 4);
  const auto rep = data::validate(dirty);
  EXPECT_GT(rep.nan_fields, 0u);            // GPS dropout / signal loss
  EXPECT_GT(rep.duplicate_timestamps, 0u);  // duplicated rows
  EXPECT_GT(rep.out_of_order, 0u);          // swapped rows
  EXPECT_GT(rep.timestamp_gaps, 0u);        // sample loss
  EXPECT_FALSE(rep.clean());
}

// ---------- validate / repair ----------

TEST(Quality, CleanDatasetValidatesClean) {
  const auto rep = data::validate(base_ds());
  EXPECT_TRUE(rep.clean()) << rep.describe();
  EXPECT_EQ(rep.n_samples, base_ds().size());
  EXPECT_GT(rep.n_runs, 0u);
}

TEST(Quality, RepairIsNoOpOnCleanData) {
  Dataset copy = base_ds();
  const auto sum = data::repair(copy);
  EXPECT_EQ(sum.total_repairs(), 0u);
  EXPECT_TRUE(datasets_identical(copy, base_ds()));
}

TEST(Quality, RepairRemovesInjectedDefects) {
  const FaultInjector inj(FaultConfig::uniform(0.2), 7);
  Dataset dirty = inj.inject(base_ds());
  const auto before = data::validate(dirty);
  const auto sum = data::repair(dirty);
  EXPECT_GT(sum.total_repairs(), 0u);
  const auto after = data::validate(dirty);
  // Everything except timestamp gaps is repairable; gaps (lost seconds)
  // remain and are handled by gap-aware windowing downstream.
  EXPECT_EQ(after.nan_fields, 0u) << after.describe();
  EXPECT_EQ(after.inf_fields, 0u);
  EXPECT_EQ(after.duplicate_timestamps, 0u);
  EXPECT_EQ(after.out_of_order, 0u);
  EXPECT_EQ(after.out_of_range, 0u);
  EXPECT_LT(after.total_defects(), before.total_defects());
}

TEST(Quality, RepairIsDeterministic) {
  const FaultInjector inj(FaultConfig::uniform(0.3), 11);
  Dataset a = inj.inject(base_ds());
  Dataset b = inj.inject(base_ds());
  // Identical impaired inputs must yield identical repair actions too.
  const auto sum_a = data::repair(a);
  const auto sum_b = data::repair(b);
  EXPECT_EQ(sum_a.total_repairs(), sum_b.total_repairs());
  EXPECT_TRUE(datasets_identical(a, b));
}

TEST(Quality, MaxRepairSpanDropsLongOutages) {
  // A 30 s GPS outage must not be bridged by interpolation.
  std::vector<data::SampleRecord> rows;
  for (int t = 0; t < 60; ++t) {
    data::SampleRecord s;
    s.area = "x";
    s.timestamp_s = t;
    s.latitude = 44.0;
    s.longitude = -93.0;
    s.throughput_mbps = 100.0;
    s.lte_rsrp = -90.0;
    s.lte_rsrq = -10.0;
    s.lte_rssi = -60.0;
    s.nr_ssrsrp = -80.0;
    s.nr_ssrsrq = -10.0;
    s.nr_ssrssi = -60.0;
    if (t >= 15 && t < 45) {
      s.latitude = data::SampleRecord::nan_value();
      s.longitude = data::SampleRecord::nan_value();
    }
    rows.push_back(s);
  }
  Dataset ds(std::move(rows));
  data::RepairPolicy policy;
  policy.max_repair_span_s = 5.0;
  const auto sum = data::repair(ds, policy);
  // Rows near the edges of the outage are within span of an observed fix
  // and get repaired; the deep middle of the outage is dropped.
  EXPECT_GT(sum.rows_dropped, 0u);
  EXPECT_GT(ds.size(), 30u);
  EXPECT_LT(ds.size(), 60u);
  EXPECT_EQ(data::validate(ds).nan_fields, 0u);
}

// ---------- end-to-end sweep ----------

/// Runs the full pipeline (optionally skipping injection entirely) and
/// returns the predictions over every usable window of the repaired data.
struct PipelineResult {
  std::vector<double> predictions;
  std::vector<int> tiers;
  std::size_t windows = 0;
};

PipelineResult run_pipeline(double rate, std::uint64_t seed,
                            bool skip_injection = false) {
  Dataset ds = skip_injection
                   ? base_ds()
                   : FaultInjector(FaultConfig::uniform(rate), seed)
                         .inject(base_ds());
  (void)data::repair(ds);  // end-to-end sweep: the summary is not under test

  const Lumos5GConfig cfg = pipeline_config();
  Lumos5G predictor(cfg);
  const auto trained = predictor.train(ds);
  EXPECT_TRUE(trained.has_value())
      << "rate " << rate << ": " << trained.error().describe();
  PipelineResult out;
  if (!trained) return out;

  const auto runs = ds.runs();
  for (const auto& run : runs) {
    if (run.size() < 6) continue;
    for (std::size_t i = 5; i < run.size(); i += 7) {
      std::vector<data::SampleRecord> window;
      for (std::size_t k = i - 5; k <= i; ++k) window.push_back(ds[run[k]]);
      ++out.windows;
      const auto pred = predictor.predict(window);
      if (pred) {
        EXPECT_TRUE(std::isfinite(pred->throughput_mbps));
        EXPECT_GE(pred->throughput_class, 0);
        EXPECT_LT(pred->throughput_class, 3);
        out.predictions.push_back(pred->throughput_mbps);
        out.tiers.push_back(pred->tier);
      } else {
        EXPECT_EQ(pred.error().code, ErrorCode::kWindowUnusable);
      }
    }
  }
  return out;
}

TEST(FaultSweep, PipelineSurvivesAllImpairmentRates) {
  for (const double rate : {0.0, 0.05, 0.2, 0.5}) {
    SCOPED_TRACE("rate=" + std::to_string(rate));
    const auto res = run_pipeline(rate, 99);
    EXPECT_GT(res.windows, 0u);
    // With the harmonic tail every window with some observed throughput is
    // answerable; require the vast majority of sampled windows to be.
    EXPECT_GT(res.predictions.size(), res.windows * 3 / 4);
  }
}

TEST(FaultSweep, RateZeroMatchesUninjectedPath) {
  const auto injected = run_pipeline(0.0, 99);
  const auto pristine = run_pipeline(0.0, 1234, /*skip_injection=*/true);
  ASSERT_EQ(injected.predictions.size(), pristine.predictions.size());
  for (std::size_t i = 0; i < injected.predictions.size(); ++i) {
    EXPECT_TRUE(same_bits(injected.predictions[i], pristine.predictions[i]))
        << "prediction " << i;
  }
  EXPECT_EQ(injected.tiers, pristine.tiers);
}

TEST(FaultSweep, SweepIsDeterministicForFixedSeed) {
  const auto a = run_pipeline(0.2, 5);
  const auto b = run_pipeline(0.2, 5);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_TRUE(same_bits(a.predictions[i], b.predictions[i]));
  }
  EXPECT_EQ(a.tiers, b.tiers);
}

TEST(FaultSweep, LowRatesMostlyAnsweredByModelTiers) {
  const auto res = run_pipeline(0.05, 21);
  ASSERT_GT(res.predictions.size(), 0u);
  std::size_t model_answers = 0;
  for (int t : res.tiers) {
    if (t < 2) ++model_answers;  // chain is [L+M+C, L+M]; 2 = harmonic tail
  }
  EXPECT_GT(model_answers, res.predictions.size() / 2);
}

// ---------- fallback chain ----------

TEST(Fallback, ChainDerivedFromPrimarySpec) {
  Lumos5GConfig cfg;
  cfg.feature_spec = FeatureSetSpec::parse("T+M+C");
  const Lumos5G predictor(cfg);
  const auto& tiers = predictor.tier_specs();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_EQ(tiers[0].name(), "T+M+C");
  EXPECT_EQ(tiers[1].name(), "L+M+C");  // T dropped, L added
  EXPECT_EQ(tiers[2].name(), "L+M");    // then C dropped
}

TEST(Fallback, MissingGeometryFallsToNextTier) {
  Lumos5GConfig cfg = pipeline_config();
  cfg.feature_spec = FeatureSetSpec::parse("T+M+C");
  Lumos5G predictor(cfg);
  ASSERT_TRUE(predictor.train(base_ds()).has_value());

  const auto runs = base_ds().runs();
  std::vector<data::SampleRecord> window;
  for (std::size_t i = 20; i < 26; ++i) {
    window.push_back(base_ds()[runs[0][i]]);
  }
  const auto full = predictor.predict(window);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->tier, 0);

  // Panel survey unavailable at query time: T features can't be built.
  for (auto& s : window) {
    s.ue_panel_distance_m = data::SampleRecord::nan_value();
    s.theta_p_deg = data::SampleRecord::nan_value();
    s.theta_m_deg = data::SampleRecord::nan_value();
  }
  const auto degraded = predictor.predict(window);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->tier, 1);  // L+M+C
}

TEST(Fallback, GapInLagHistoryDropsCGroup) {
  Lumos5GConfig cfg = pipeline_config();
  Lumos5G predictor(cfg);
  ASSERT_TRUE(predictor.train(base_ds()).has_value());

  const auto runs = base_ds().runs();
  std::vector<data::SampleRecord> window;
  for (std::size_t i = 20; i < 26; ++i) {
    window.push_back(base_ds()[runs[0][i]]);
  }
  // A 10 s logging outage inside the lag history: the C tier must refuse
  // the window and the no-C tier answers.
  window[2].timestamp_s += 10.0;
  for (std::size_t k = 3; k < window.size(); ++k) {
    window[k].timestamp_s += 10.0;
  }
  const auto pred = predictor.predict(window);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->tier, 1);  // L+M
}

TEST(Fallback, HarmonicTailServesOtherwiseUnusableWindow) {
  Lumos5GConfig cfg = pipeline_config();
  cfg.feature_spec = FeatureSetSpec::parse("C");
  Lumos5G predictor(cfg);
  ASSERT_TRUE(predictor.train(base_ds()).has_value());
  ASSERT_EQ(predictor.tier_specs().size(), 1u);  // C alone has no sub-tier

  std::vector<data::SampleRecord> window;
  for (int t = 0; t < 6; ++t) {
    data::SampleRecord s;
    s.timestamp_s = t * 20.0;  // every pair of samples straddles a gap
    s.throughput_mbps = 200.0;
    window.push_back(s);
  }
  const auto pred = predictor.predict(window);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->tier, 1);  // == tier_specs().size()
  EXPECT_NEAR(pred->throughput_mbps, 200.0, 1e-9);
}

TEST(Fallback, LoopAreaTrainsViaFallbackDespiteTPrimary) {
  // The Loop has no panel survey: a T+M+C primary cannot train there, but
  // the derived L+M+C / L+M tiers can.
  const Dataset loop =
      sim::collect_area_dataset(sim::make_loop(), /*walk_runs=*/1,
                                /*drive_runs=*/1, /*seed=*/31);
  Lumos5GConfig cfg = pipeline_config();
  cfg.feature_spec = FeatureSetSpec::parse("T+M+C");
  Lumos5G predictor(cfg);
  ASSERT_TRUE(predictor.train(loop).has_value());
  EXPECT_FALSE(predictor.tier_trained(0));
  EXPECT_TRUE(predictor.tier_trained(1));

  const auto runs = loop.runs();
  std::vector<data::SampleRecord> window;
  for (std::size_t i = 20; i < 26; ++i) window.push_back(loop[runs[0][i]]);
  const auto pred = predictor.predict(window);
  ASSERT_TRUE(pred.has_value());
  EXPECT_GT(pred->tier, 0);
}

// ---------- NaN-safe trees ----------

/// Synthetic regression data where one informative feature is missing at
/// random: y depends on x0, x1; x1 is NaN for a third of rows.
void make_nan_data(ml::FeatureMatrix& x, std::vector<double>& y) {
  Rng rng(2718);
  for (int i = 0; i < 400; ++i) {
    const double x0 = rng.uniform(0.0, 10.0);
    double x1 = rng.uniform(-5.0, 5.0);
    if (i % 3 == 0) x1 = data::SampleRecord::nan_value();
    const double target = 3.0 * x0 + (std::isnan(x1) ? 0.0 : 2.0 * x1) +
                          rng.normal(0.0, 0.1);
    const double row[] = {x0, x1, rng.uniform()};
    x.push_row(row);
    y.push_back(target);
  }
}

TEST(NanSafeTrees, GbdtHandlesNaNDeterministicallyAcrossThreads) {
  ml::FeatureMatrix x;
  std::vector<double> y;
  make_nan_data(x, y);

  ml::GbdtConfig cfg;
  cfg.n_estimators = 40;
  const auto fit_and_predict = [&](std::size_t threads) {
    ThreadPool::global().set_threads(threads);
    ml::GbdtRegressor reg(cfg);
    reg.fit(x, y);
    return reg.predict_all(x);
  };
  const auto p1 = fit_and_predict(1);
  const auto p8 = fit_and_predict(8);
  ThreadPool::global().set_threads(0);  // restore configured size
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_TRUE(same_bits(p1[i], p8[i])) << "row " << i;
    EXPECT_TRUE(std::isfinite(p1[i]));
  }
}

TEST(NanSafeTrees, ForestHandlesNaNDeterministicallyAcrossThreads) {
  ml::FeatureMatrix x;
  std::vector<double> y;
  make_nan_data(x, y);

  ml::ForestConfig cfg;
  cfg.n_trees = 20;
  const auto fit_and_predict = [&](std::size_t threads) {
    ThreadPool::global().set_threads(threads);
    ml::RandomForestRegressor reg(cfg);
    reg.fit(x, y);
    return reg.predict_all(x);
  };
  const auto p1 = fit_and_predict(1);
  const auto p8 = fit_and_predict(8);
  ThreadPool::global().set_threads(0);
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_TRUE(same_bits(p1[i], p8[i])) << "row " << i;
    EXPECT_TRUE(std::isfinite(p1[i]));
  }
}

TEST(NanSafeTrees, LearnsUsefulDefaultDirection) {
  // A model trained with NaN-aware routing should beat the constant
  // predictor on rows where the feature is missing.
  ml::FeatureMatrix x;
  std::vector<double> y;
  make_nan_data(x, y);
  ml::GbdtConfig cfg;
  cfg.n_estimators = 60;
  ml::GbdtRegressor reg(cfg);
  reg.fit(x, y);

  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double model_se = 0.0, const_se = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (!std::isnan(x.at(i, 1))) continue;
    const double err = reg.predict(x.row(i)) - y[i];
    model_se += err * err;
    const_se += (mean - y[i]) * (mean - y[i]);
  }
  EXPECT_LT(model_se, const_se * 0.5);
}

// ---------- CSV corruption ----------

TEST(CorruptCsv, FieldGarblingIsCountedAndDetected) {
  const std::string clean_path = ::testing::TempDir() + "faults_clean.csv";
  const std::string dirty_path = ::testing::TempDir() + "faults_dirty.csv";
  Dataset small;
  for (std::size_t i = 0; i < 50; ++i) small.append(base_ds()[i]);
  data::write_csv(small, clean_path);

  FaultConfig cfg;
  cfg.field_corruption = 0.3;
  const FaultInjector inj(cfg, 9);
  const std::size_t corrupted = inj.corrupt_csv(clean_path, dirty_path);
  EXPECT_GT(corrupted, 0u);
  EXPECT_EQ(inj.corrupt_csv(clean_path, dirty_path), corrupted);  // determinism

  try {
    (void)data::read_csv(dirty_path);
    FAIL() << "corrupt file parsed without error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("column '"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line "), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace lumos
