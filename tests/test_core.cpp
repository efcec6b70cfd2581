// Tests for lumos::core — the evaluation harness behind Tables 7/8/9, the
// Lumos5G prediction facade, and the throughput map.
#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/lumos5g.h"
#include "core/throughput_map.h"
#include "sim/areas.h"

namespace lumos::core {
namespace {

using data::FeatureSetSpec;

/// Small airport dataset shared by the fixture-based tests.
const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.gbdt.n_estimators = 60;
  cfg.forest.n_trees = 30;
  cfg.seq2seq.epochs = 3;
  cfg.seq2seq.hidden = 16;
  cfg.seq2seq.layers = 1;
  return cfg;
}

TEST(Evaluate, GdbtProducesSaneMetrics) {
  const auto r = evaluate_model(ModelKind::kGdbt, airport_ds(),
                                FeatureSetSpec::parse("L+M"), fast_config());
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.n_train, r.n_test);
  EXPECT_GT(r.mae, 0.0);
  EXPECT_GT(r.rmse, r.mae);       // RMSE >= MAE always
  EXPECT_GT(r.weighted_f1, 0.5);  // far better than chance
  EXPECT_LE(r.weighted_f1, 1.0);
  EXPECT_GE(r.low_recall, 0.0);
  EXPECT_EQ(r.model, "GDBT");
  EXPECT_EQ(r.feature_group, "L+M");
}

TEST(Evaluate, MoreFeaturesNeverHurtMuch) {
  const auto cfg = fast_config();
  const auto l = evaluate_model(ModelKind::kGdbt, airport_ds(),
                                FeatureSetSpec::parse("L"), cfg);
  const auto lmc = evaluate_model(ModelKind::kGdbt, airport_ds(),
                                  FeatureSetSpec::parse("L+M+C"), cfg);
  ASSERT_TRUE(l.valid && lmc.valid);
  EXPECT_LT(lmc.mae, l.mae);  // the paper's core feature-group finding
  EXPECT_GT(lmc.weighted_f1, l.weighted_f1);
}

TEST(Evaluate, KrigingOnlyAppliesToL) {
  const auto cfg = fast_config();
  const auto ok_l = evaluate_model(ModelKind::kKriging, airport_ds(),
                                   FeatureSetSpec::parse("L"), cfg);
  EXPECT_TRUE(ok_l.valid);
  const auto ok_lm = evaluate_model(ModelKind::kKriging, airport_ds(),
                                    FeatureSetSpec::parse("L+M"), cfg);
  EXPECT_FALSE(ok_lm.valid);  // Table 9 footnote: OK is L-only
}

TEST(Evaluate, TGroupInvalidWithoutSurveyedPanels) {
  // The Loop area has no panel survey (paper §6.2): T must be skipped.
  const sim::Area loop = sim::make_loop();
  data::Dataset ds;
  sim::MeasurementCollector collector(loop.env);
  sim::CollectorConfig ccfg;
  ccfg.n_runs = 1;
  sim::MotionConfig motion;
  collector.collect(loop.walking[0], motion, {}, ccfg, 1, ds);
  ds.clean();
  const auto r = evaluate_model(ModelKind::kGdbt, ds,
                                FeatureSetSpec::parse("T+M"), fast_config());
  EXPECT_FALSE(r.valid);
}

TEST(Evaluate, HarmonicMeanIgnoresFeatures) {
  const auto r = evaluate_model(ModelKind::kHarmonicMean, airport_ds(),
                                FeatureSetSpec::parse("L"), fast_config());
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.feature_group, "history");
  EXPECT_GT(r.mae, 0.0);
}

TEST(Evaluate, HarmonicMeanReportsConsumedHistory) {
  const auto cfg = fast_config();
  const auto r = evaluate_model(ModelKind::kHarmonicMean, airport_ds(),
                                FeatureSetSpec::parse("L"), cfg);
  ASSERT_TRUE(r.valid);
  // n_train counts the history-window samples consumed before predicting:
  // hm_window per contributing trace, never zero when predictions exist.
  EXPECT_GT(r.n_train, 0u);
  EXPECT_EQ(r.n_train % cfg.hm_window, 0u);
}

TEST(Evaluate, GridMatchesSequentialEvaluation) {
  const auto cfg = fast_config();
  const std::vector<GridCell> cells = {
      {ModelKind::kGdbt, FeatureSetSpec::parse("L+M")},
      {ModelKind::kKnn, FeatureSetSpec::parse("L")},
      {ModelKind::kKriging, FeatureSetSpec::parse("L+M")},  // invalid cell
      {ModelKind::kRandomForest, FeatureSetSpec::parse("L+M+C")},
  };
  const auto grid = evaluate_grid(airport_ds(), cells, cfg);
  ASSERT_EQ(grid.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto seq =
        evaluate_model(cells[i].kind, airport_ds(), cells[i].spec, cfg);
    EXPECT_EQ(grid[i].valid, seq.valid) << "cell " << i;
    EXPECT_EQ(grid[i].model, seq.model) << "cell " << i;
    EXPECT_EQ(grid[i].mae, seq.mae) << "cell " << i;  // bitwise
    EXPECT_EQ(grid[i].rmse, seq.rmse) << "cell " << i;
    EXPECT_EQ(grid[i].weighted_f1, seq.weighted_f1) << "cell " << i;
    EXPECT_EQ(grid[i].n_train, seq.n_train) << "cell " << i;
  }
}

TEST(Evaluate, Seq2SeqRuns) {
  const auto r = evaluate_model(ModelKind::kSeq2Seq, airport_ds(),
                                FeatureSetSpec::parse("L+M"), fast_config());
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.weighted_f1, 0.4);
  EXPECT_GT(r.mae, 0.0);
}

TEST(Evaluate, TransferAcrossDatasets) {
  // Split airport samples by serving panel, as in the paper's
  // North-panel -> South-panel transferability experiment (§6.2).
  const auto& ds = airport_ds();
  const auto north =
      ds.filter([](const data::SampleRecord& s) { return s.cell_id == 2; });
  const auto south =
      ds.filter([](const data::SampleRecord& s) { return s.cell_id == 1; });
  const auto r =
      evaluate_transfer(ModelKind::kGdbt, north, south,
                        FeatureSetSpec::parse("T+M"), fast_config());
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.weighted_f1, 0.2);
  EXPECT_GT(r.n_train, 0u);
  EXPECT_GT(r.n_test, 0u);
}

TEST(Evaluate, PredictTestTraceHasPairedSeries) {
  const auto tp = predict_test_trace(ModelKind::kGdbt, airport_ds(),
                                     FeatureSetSpec::parse("L+M"),
                                     fast_config(), 50);
  ASSERT_EQ(tp.actual.size(), tp.predicted.size());
  ASSERT_EQ(tp.actual.size(), 50u);
}

TEST(Evaluate, ModelNames) {
  EXPECT_STREQ(to_string(ModelKind::kGdbt), "GDBT");
  EXPECT_STREQ(to_string(ModelKind::kSeq2Seq), "Seq2Seq");
  EXPECT_STREQ(to_string(ModelKind::kKnn), "KNN");
  EXPECT_STREQ(to_string(ModelKind::kRandomForest), "RF");
  EXPECT_STREQ(to_string(ModelKind::kKriging), "OK");
  EXPECT_STREQ(to_string(ModelKind::kHarmonicMean), "HM");
}

// ---------- Lumos5G facade ----------

TEST(Lumos5GFacade, TrainAndPredictOnline) {
  Lumos5GConfig cfg;
  cfg.feature_spec = FeatureSetSpec::parse("L+M+C");
  cfg.gbdt.n_estimators = 60;
  Lumos5G predictor(cfg);
  EXPECT_FALSE(predictor.trained());
  ASSERT_TRUE(predictor.train(airport_ds()).has_value());
  EXPECT_TRUE(predictor.trained());

  // Use a real window from the dataset.
  const auto runs = airport_ds().runs();
  std::vector<data::SampleRecord> window;
  for (std::size_t i = 20; i < 25; ++i) {
    window.push_back(airport_ds()[runs[0][i]]);
  }
  const auto pred = predictor.predict(window);
  ASSERT_TRUE(pred.has_value());
  EXPECT_GE(pred->throughput_mbps, -100.0);
  EXPECT_LE(pred->throughput_mbps, 2500.0);
  EXPECT_GE(pred->throughput_class, 0);
  EXPECT_LT(pred->throughput_class, 3);
  // A full-context window is answered by the primary tier.
  EXPECT_EQ(pred->tier, 0);
  EXPECT_EQ(predictor.tier_specs()[0].name(), "L+M+C");
}

TEST(Lumos5GFacade, UntrainedPredictIsTypedError) {
  Lumos5G predictor;
  std::vector<data::SampleRecord> window(5);
  const auto pred = predictor.predict(window);
  ASSERT_FALSE(pred.has_value());
  EXPECT_EQ(pred.error().code, ErrorCode::kNotTrained);
}

TEST(Lumos5GFacade, UntrainedFeatureImportanceIsTypedError) {
  Lumos5G predictor;
  const auto imp = predictor.feature_importance();
  ASSERT_FALSE(imp.has_value());
  EXPECT_EQ(imp.error().code, ErrorCode::kNotTrained);
}

TEST(Lumos5GFacade, FeatureImportanceAlignsWithNames) {
  Lumos5GConfig cfg;
  cfg.feature_spec = FeatureSetSpec::parse("L+M");
  cfg.gbdt.n_estimators = 40;
  Lumos5G predictor(cfg);
  ASSERT_TRUE(predictor.train(airport_ds()).has_value());
  const auto imp = predictor.feature_importance();
  ASSERT_TRUE(imp.has_value());
  ASSERT_EQ(imp->size(), predictor.feature_names().size());
  double total = 0.0;
  for (double v : *imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(Lumos5GFacade, TooSmallDatasetIsTypedError) {
  Lumos5G predictor;
  data::Dataset tiny;
  const auto r = predictor.train(tiny);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kDatasetTooSmall);
  EXPECT_FALSE(predictor.trained());
}

// ---------- throughput map ----------

TEST(ThroughputMapTest, AggregatesCells) {
  const auto map = ThroughputMap::build(airport_ds(), 2);
  EXPECT_GT(map.cells().size(), 50u);
  std::size_t total = 0;
  for (const auto& [key, c] : map.cells()) {
    total += c.count;
    EXPECT_GE(c.mean_mbps, 0.0);
    EXPECT_GE(c.cv, 0.0);
    EXPECT_GE(c.coverage_5g, 0.0);
    EXPECT_LE(c.coverage_5g, 1.0);
  }
  EXPECT_EQ(total, airport_ds().size());
}

TEST(ThroughputMapTest, LookupFindsMeasuredCells) {
  const auto map = ThroughputMap::build(airport_ds(), 2);
  const auto& s = airport_ds()[100];
  const CellStats* cell = map.lookup(s.pixel_x, s.pixel_y);
  ASSERT_NE(cell, nullptr);
  EXPECT_GT(cell->count, 0u);
  EXPECT_EQ(map.lookup(0, 0), nullptr);  // far away, unmeasured
}

TEST(ThroughputMapTest, CoverageAndFractions) {
  const auto map = ThroughputMap::build(airport_ds(), 2);
  EXPECT_GT(map.coverage_5g(), 0.75);  // mostly 5G; SB's tail sits on LTE
  EXPECT_GE(map.fraction_above(0.0), 0.99);
  EXPECT_LT(map.fraction_above(1e9), 0.01);
  EXPECT_GE(map.fraction_above(300.0), map.fraction_above(700.0));
}

TEST(ThroughputMapTest, AsciiRenderHasContent) {
  const auto map = ThroughputMap::build(airport_ds(), 2);
  const std::string art = map.render_ascii(40);
  EXPECT_GT(art.size(), 40u);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(ThroughputMapTest, EmptyDatasetRendersPlaceholder) {
  const auto map = ThroughputMap::build(data::Dataset{}, 2);
  EXPECT_EQ(map.render_ascii(), "(empty map)\n");
  EXPECT_EQ(map.coverage_5g(), 0.0);
}

}  // namespace
}  // namespace lumos::core
