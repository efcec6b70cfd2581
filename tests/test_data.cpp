// Tests for lumos::data — dataset cleaning (paper §3.1 rules), CSV round
// trips, the composable feature groups (Table 6), sequence windowing and
// the split/standardization utilities.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/csv.h"
#include "data/dataset.h"
#include "data/features.h"
#include "data/split.h"

namespace lumos::data {
namespace {

/// Builds a minimal synthetic run: `n` seconds along a line with fixed
/// throughput ramp, as (area, traj, run).
std::vector<SampleRecord> make_run(const std::string& area, int traj, int run,
                                   int n, double gps_err = 2.0,
                                   double tput0 = 100.0) {
  std::vector<SampleRecord> v;
  for (int t = 0; t < n; ++t) {
    SampleRecord s;
    s.area = area;
    s.trajectory_id = traj;
    s.run_id = run;
    s.timestamp_s = t;
    s.latitude = 44.98 + t * 1e-5;
    s.longitude = -93.26;
    s.gps_accuracy_m = gps_err;
    s.detected_activity = Activity::kWalking;
    s.moving_speed_mps = 1.4;
    s.compass_deg = 45.0;
    s.throughput_mbps = tput0 + 10.0 * t;
    s.radio_type = RadioType::kNrMmWave;
    s.cell_id = 1;
    s.lte_rsrp = -90.0;
    s.nr_ssrsrp = -85.0;
    s.ue_panel_distance_m = 50.0 + t;
    s.theta_p_deg = 10.0;
    s.theta_m_deg = 170.0;
    v.push_back(std::move(s));
  }
  return v;
}

Dataset two_run_dataset(int n = 40) {
  Dataset ds;
  for (const auto& s : make_run("airport", 1, 0, n)) ds.append(s);
  for (const auto& s : make_run("airport", 1, 1, n)) ds.append(s);
  return ds;
}

// ---------- cleaning ----------

TEST(Cleaning, DropsHighGpsErrorRuns) {
  Dataset ds;
  for (const auto& s : make_run("airport", 1, 0, 30, /*gps_err=*/2.0)) {
    ds.append(s);
  }
  for (const auto& s : make_run("airport", 1, 1, 30, /*gps_err=*/8.0)) {
    ds.append(s);
  }
  ds.clean();
  EXPECT_EQ(ds.runs().size(), 1u);
  for (const auto& s : ds.samples()) EXPECT_EQ(s.run_id, 0);
}

TEST(Cleaning, TrimsWarmupBuffer) {
  Dataset ds = two_run_dataset(40);
  const std::size_t dropped = ds.clean(CleaningConfig{.buffer_period_s = 10.0});
  EXPECT_EQ(dropped, 2u * 10u);
  for (const auto& s : ds.samples()) {
    EXPECT_GE(s.timestamp_s, 10.0);
  }
}

TEST(Cleaning, FillsPixelCoordinates) {
  Dataset ds = two_run_dataset();
  ds.clean();
  for (const auto& s : ds.samples()) {
    EXPECT_GT(s.pixel_x, 0);
    EXPECT_GT(s.pixel_y, 0);
  }
  // Same lat/lon quantize identically.
  const auto px = geo::pixelize({ds[0].latitude, ds[0].longitude}, 17);
  EXPECT_EQ(ds[0].pixel_x, px.x);
  EXPECT_EQ(ds[0].pixel_y, px.y);
}

TEST(Cleaning, SortsByAreaTrajectoryRunTime) {
  Dataset ds;
  auto run = make_run("airport", 1, 0, 5);
  // Insert out of order.
  ds.append(run[3]);
  ds.append(run[1]);
  ds.append(run[4]);
  ds.append(run[0]);
  ds.append(run[2]);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  for (std::size_t i = 1; i < ds.size(); ++i) {
    EXPECT_LT(ds[i - 1].timestamp_s, ds[i].timestamp_s);
  }
}

TEST(DatasetOps, RunsGroupAndOrder) {
  Dataset ds = two_run_dataset(20);
  const auto runs = ds.runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].size(), 20u);
  EXPECT_EQ(runs[1].size(), 20u);
}

TEST(DatasetOps, FilterKeepsMatching) {
  Dataset ds = two_run_dataset(20);
  const Dataset only0 =
      ds.filter([](const SampleRecord& s) { return s.run_id == 0; });
  EXPECT_EQ(only0.size(), 20u);
}

TEST(DatasetOps, ThroughputTracesMatchRuns) {
  Dataset ds = two_run_dataset(15);
  const auto traces = ds.throughput_traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_NEAR(traces[0][0], 100.0, 1e-9);
  EXPECT_NEAR(traces[0][14], 240.0, 1e-9);
}

TEST(DatasetOps, GridGroupsNearbySamples) {
  Dataset ds = two_run_dataset(20);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  const auto grid = ds.throughput_by_grid(2);
  std::size_t total = 0;
  for (const auto& [key, v] : grid) total += v.size();
  EXPECT_EQ(total, ds.size());
  EXPECT_LT(grid.size(), ds.size());  // some cells shared
}

// ---------- CSV ----------

TEST(Csv, RoundTripPreservesEverything) {
  Dataset ds = two_run_dataset(10);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  ds[3].horizontal_handoff = true;
  ds[4].vertical_handoff = true;
  ds[5].radio_type = RadioType::kLte;
  ds[5].ue_panel_distance_m = SampleRecord::nan_value();
  ds[5].theta_p_deg = SampleRecord::nan_value();
  ds[5].theta_m_deg = SampleRecord::nan_value();

  const std::string path = "/tmp/lumos_test_roundtrip.csv";
  write_csv(ds, path);
  const Dataset back = read_csv(path);
  std::filesystem::remove(path);

  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(back[i].area, ds[i].area);
    EXPECT_EQ(back[i].run_id, ds[i].run_id);
    EXPECT_NEAR(back[i].latitude, ds[i].latitude, 1e-8);
    EXPECT_NEAR(back[i].throughput_mbps, ds[i].throughput_mbps, 1e-6);
    EXPECT_EQ(back[i].radio_type, ds[i].radio_type);
    EXPECT_EQ(back[i].horizontal_handoff, ds[i].horizontal_handoff);
    EXPECT_EQ(back[i].vertical_handoff, ds[i].vertical_handoff);
    EXPECT_EQ(back[i].pixel_x, ds[i].pixel_x);
    EXPECT_EQ(std::isnan(back[i].ue_panel_distance_m),
              std::isnan(ds[i].ue_panel_distance_m));
  }
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv("/tmp/definitely_not_here_lumos.csv"),
               std::runtime_error);
}

// ---------- feature specs ----------

TEST(FeatureSpec, ParseAndName) {
  EXPECT_EQ(FeatureSetSpec::parse("L").name(), "L");
  EXPECT_EQ(FeatureSetSpec::parse("l+m").name(), "L+M");
  EXPECT_EQ(FeatureSetSpec::parse("T+M+C").name(), "T+M+C");
  EXPECT_EQ(FeatureSetSpec::parse("C+L").name(), "L+C");
  EXPECT_THROW((void)FeatureSetSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)FeatureSetSpec::parse("X"), std::invalid_argument);
}

TEST(FeatureSpec, NamesMatchTable6) {
  const FeatureConfig cfg;
  const auto l = feature_names(FeatureSetSpec::parse("L"), cfg);
  EXPECT_EQ(l, (std::vector<std::string>{"pixel_x", "pixel_y"}));

  const auto lm = feature_names(FeatureSetSpec::parse("L+M"), cfg);
  EXPECT_EQ(lm.size(), 5u);  // pixels + speed + compass sin/cos

  const auto tm = feature_names(FeatureSetSpec::parse("T+M"), cfg);
  // Table 6: T+M = speed + distance + positional + mobility angle
  // (compass replaced by panel-relative angles).
  EXPECT_EQ(tm.size(), 4u);

  const auto lmc = feature_names(FeatureSetSpec::parse("L+M+C"), cfg);
  EXPECT_EQ(lmc.size(), 5u + static_cast<std::size_t>(cfg.throughput_lags) + 5u);
}

TEST(FeatureClasses, ThresholdsMatchPaper) {
  const FeatureConfig cfg;  // 300 / 700 Mbps
  EXPECT_EQ(throughput_class(0.0, cfg), 0);
  EXPECT_EQ(throughput_class(299.9, cfg), 0);
  EXPECT_EQ(throughput_class(300.0, cfg), 1);
  EXPECT_EQ(throughput_class(699.9, cfg), 1);
  EXPECT_EQ(throughput_class(700.0, cfg), 2);
  EXPECT_EQ(throughput_class(2000.0, cfg), 2);
}

// ---------- feature building ----------

TEST(BuildFeatures, TargetsAreNextSlotThroughput) {
  Dataset ds = two_run_dataset(30);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  const auto built = build_features(ds, FeatureSetSpec::parse("L"));
  // Each run of 30 gives 29 samples (horizon 1, no lags for L).
  EXPECT_EQ(built.x.rows(), 2u * 29u);
  // Throughput ramps by +10/s; target should be current + 10.
  for (std::size_t i = 0; i < built.x.rows(); ++i) {
    const auto& src = ds[built.source_index[i]];
    EXPECT_NEAR(built.y_reg[i], src.throughput_mbps + 10.0, 1e-9);
  }
}

TEST(BuildFeatures, LagFeaturesLookBackwards) {
  Dataset ds = two_run_dataset(30);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  FeatureConfig cfg;
  cfg.throughput_lags = 3;
  const auto built = build_features(ds, FeatureSetSpec::parse("C"), cfg);
  // First usable index is lag-2 (3 lags), last emits target at +1:
  // 30 - 2 - 1 = 27 samples per run.
  EXPECT_EQ(built.x.rows(), 2u * 27u);
  const auto names = built.feature_names;
  ASSERT_EQ(names[0], "tput_lag_0");
  for (std::size_t i = 0; i < built.x.rows(); ++i) {
    const double lag0 = built.x.at(i, 0);
    const double lag1 = built.x.at(i, 1);
    const double lag2 = built.x.at(i, 2);
    EXPECT_NEAR(lag0 - lag1, 10.0, 1e-9);
    EXPECT_NEAR(lag1 - lag2, 10.0, 1e-9);
  }
}

TEST(BuildFeatures, HorizonShiftsTarget) {
  Dataset ds = two_run_dataset(30);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  FeatureConfig cfg;
  cfg.horizon = 5;
  const auto built = build_features(ds, FeatureSetSpec::parse("L"), cfg);
  for (std::size_t i = 0; i < built.x.rows(); ++i) {
    const auto& src = ds[built.source_index[i]];
    EXPECT_NEAR(built.y_reg[i], src.throughput_mbps + 50.0, 1e-9);
  }
}

TEST(BuildFeatures, TSkipsSamplesWithoutGeometry) {
  Dataset ds = two_run_dataset(20);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  // Knock geometry out of one run.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds[i].run_id == 1) {
      ds[i].ue_panel_distance_m = SampleRecord::nan_value();
    }
  }
  const auto built = build_features(ds, FeatureSetSpec::parse("T"));
  EXPECT_EQ(built.x.rows(), 19u);  // only run 0 contributes
}

TEST(BuildFeatures, ShortRunsAreSkipped) {
  Dataset ds;
  for (const auto& s : make_run("airport", 1, 0, 2)) ds.append(s);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  FeatureConfig cfg;
  cfg.throughput_lags = 5;
  const auto built = build_features(ds, FeatureSetSpec::parse("C"), cfg);
  EXPECT_EQ(built.x.rows(), 0u);
}

TEST(BuildFeatures, InvalidConfigThrows) {
  Dataset ds = two_run_dataset(10);
  for (const int lags : {0, kMaxThroughputLags + 1}) {
    FeatureConfig cfg;
    cfg.throughput_lags = lags;
    EXPECT_THROW(build_features(ds, FeatureSetSpec::parse("C"), cfg),
                 std::invalid_argument)
        << "throughput_lags " << lags;
  }
  FeatureConfig cfg2;
  cfg2.horizon = 0;
  EXPECT_THROW(build_features(ds, FeatureSetSpec::parse("L"), cfg2),
               std::invalid_argument);
}

TEST(FeatureWindow, MatchesBatchBuilder) {
  Dataset ds = two_run_dataset(30);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  const auto spec = FeatureSetSpec::parse("L+M+C");
  const FeatureConfig cfg;
  const auto built = build_features(ds, spec, cfg);
  // Reconstruct the first sample's window by hand and compare.
  const std::size_t src = built.source_index[0];
  std::vector<SampleRecord> window;
  for (std::size_t i = src + 1 - static_cast<std::size_t>(cfg.throughput_lags);
       i <= src; ++i) {
    window.push_back(ds[i]);
  }
  const auto row = feature_row_from_window(window, spec, cfg);
  ASSERT_TRUE(row.has_value());
  ASSERT_EQ(row->size(), built.x.cols());
  for (std::size_t c = 0; c < row->size(); ++c) {
    EXPECT_NEAR((*row)[c], built.x.at(0, c), 1e-9);
  }
}

TEST(FeatureWindow, TooShortWindowIsNullopt) {
  Dataset ds = two_run_dataset(10);
  const auto spec = FeatureSetSpec::parse("C");
  std::vector<SampleRecord> window{ds[0]};  // needs 5 lags
  EXPECT_FALSE(feature_row_from_window(window, spec, {}).has_value());
}

// ---------- sequences ----------

TEST(BuildSequences, WindowAndTargetLayout) {
  Dataset ds = two_run_dataset(40);
  ds.clean(CleaningConfig{.buffer_period_s = 0.0});
  SequenceConfig seq;
  seq.seq_len = 10;
  seq.out_len = 3;
  const auto built =
      build_sequences(ds, FeatureSetSpec::parse("L"), {}, seq);
  EXPECT_EQ(built.input_dim, 2u);
  // Per run of 40: windows end at e in [9, 36] -> 28 windows.
  EXPECT_EQ(built.samples.size(), 2u * 28u);
  const auto& s = built.samples[0];
  EXPECT_EQ(s.x.size(), 10u * 2u);
  ASSERT_EQ(s.y.size(), 3u);
  // Targets continue the +10 ramp past the window end.
  EXPECT_NEAR(s.y[1] - s.y[0], 10.0, 1e-9);
  EXPECT_NEAR(s.y[2] - s.y[1], 10.0, 1e-9);
}

TEST(BuildSequences, RejectsZeroWindows) {
  Dataset ds = two_run_dataset(40);
  SequenceConfig seq;
  seq.seq_len = 0;
  EXPECT_THROW(build_sequences(ds, FeatureSetSpec::parse("L"), {}, seq),
               std::invalid_argument);
}

// ---------- standardizer / scaler / split ----------

TEST(StandardizerTest, ZeroMeanUnitVariance) {
  ml::FeatureMatrix x(100, 2);
  Rng rng(1);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = rng.normal(50.0, 10.0);
    x.at(i, 1) = rng.normal(-3.0, 0.5);
  }
  Standardizer sc;
  sc.fit(x);
  sc.transform(x);
  double m0 = 0.0, v0 = 0.0;
  for (std::size_t i = 0; i < 100; ++i) m0 += x.at(i, 0);
  m0 /= 100.0;
  for (std::size_t i = 0; i < 100; ++i) {
    v0 += (x.at(i, 0) - m0) * (x.at(i, 0) - m0);
  }
  EXPECT_NEAR(m0, 0.0, 1e-9);
  EXPECT_NEAR(v0 / 100.0, 1.0, 1e-9);
}

TEST(StandardizerTest, ConstantColumnIsSafe) {
  ml::FeatureMatrix x(10, 1);
  for (std::size_t i = 0; i < 10; ++i) x.at(i, 0) = 5.0;
  Standardizer sc;
  sc.fit(x);
  sc.transform(x);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(std::isfinite(x.at(i, 0)));
  }
}

TEST(TargetScalerTest, InverseUndoesTransform) {
  TargetScaler ts;
  const std::vector<double> y{100.0, 200.0, 300.0, 400.0};
  ts.fit(y);
  EXPECT_NEAR(ts.inverse(ts.transform(237.0)), 237.0, 1e-9);
}

TEST(Split, FractionAndDisjointness) {
  const auto split = train_test_split(1000, 0.7, 42);
  EXPECT_EQ(split.train.size(), 700u);
  EXPECT_EQ(split.test.size(), 300u);
  std::vector<bool> seen(1000, false);
  for (std::size_t i : split.train) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  for (std::size_t i : split.test) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Split, DeterministicBySeed) {
  const auto a = train_test_split(100, 0.7, 7);
  const auto b = train_test_split(100, 0.7, 7);
  EXPECT_EQ(a.train, b.train);
  const auto c = train_test_split(100, 0.7, 8);
  EXPECT_NE(a.train, c.train);
}

TEST(Split, SubsetSelectsRows) {
  ml::FeatureMatrix x(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    x.at(i, 1) = static_cast<double>(10 * i);
  }
  const std::vector<std::size_t> idx{1, 3};
  const auto sub = subset(x, idx);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.at(0, 0), 1.0);
  EXPECT_EQ(sub.at(1, 1), 30.0);
  const std::vector<double> v{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(subset(v, idx), (std::vector<double>{1.0, 3.0}));
}

TEST(Split, ClampsOutOfRangeTrainFraction) {
  // fraction 0.0 -> everything in test, 1.0 -> everything in train.
  const auto none = train_test_split(50, 0.0, 9);
  EXPECT_EQ(none.train.size(), 0u);
  EXPECT_EQ(none.test.size(), 50u);
  const auto all = train_test_split(50, 1.0, 9);
  EXPECT_EQ(all.train.size(), 50u);
  EXPECT_EQ(all.test.size(), 0u);
  // Out-of-range fractions clamp instead of overflowing the index count.
  const auto over = train_test_split(50, 1.5, 9);
  EXPECT_EQ(over.train.size(), 50u);
  EXPECT_EQ(over.test.size(), 0u);
  const auto under = train_test_split(50, -0.5, 9);
  EXPECT_EQ(under.train.size(), 0u);
  EXPECT_EQ(under.test.size(), 50u);
  const auto empty = train_test_split(0, 0.7, 9);
  EXPECT_EQ(empty.train.size(), 0u);
  EXPECT_EQ(empty.test.size(), 0u);
}

TEST(Csv, TrailingCommaIsAnExtraEmptyField) {
  Dataset ds;
  for (const auto& s : make_run("airport", 1, 0, 3)) ds.append(s);
  const std::string path = "/tmp/lumos_test_trailing_comma.csv";
  write_csv(ds, path);

  // Simulate a hand-edited export: append a ',' to the first data row.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  lines[1] += ",";
  {
    std::ofstream out(path);
    for (const auto& l : lines) out << l << "\n";
  }

  // The trailing empty field must be counted (28 fields), not silently
  // dropped, and the error must say what was seen vs expected.
  try {
    (void)read_csv(path);
    FAIL() << "read_csv accepted a 28-field row";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("got 28"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected 27"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lumos::data
