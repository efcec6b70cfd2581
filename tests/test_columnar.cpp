// Tests for the columnar (SoA) feature layer (DESIGN §11): the pre-binned
// BinnedMatrix training store (code equality with the row-major encode,
// uint8/uint16 width promotion, NaN missing-code routing), bit-identity of
// columnar-vs-row tree training and prediction, the serving-side
// ColumnStore + FlatForest/FlatClassifier columnar block kernels, and the
// Predictor's tier-packed columnar batch walk against per-window
// Predictor::predict. The suite runs with LUMOS_THREADS pinned to 1 and 8
// (CMake registrations): every equality here is a bit-identity contract,
// not a tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/lumos5g.h"
#include "data/column_store.h"
#include "data/dataset.h"
#include "data/features.h"
#include "ml/binned.h"
#include "ml/gbdt.h"
#include "ml/tree.h"
#include "serve/flat_model.h"
#include "serve/predictor.h"
#include "sim/areas.h"

namespace lumos {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }

/// Random matrix with a deliberate mix of pathologies: NaN holes in some
/// columns, one constant column, one near-constant column.
ml::FeatureMatrix make_matrix(std::size_t rows, std::size_t cols,
                              unsigned seed) {
  ml::FeatureMatrix x(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = x.row(r);
    for (std::size_t f = 0; f < cols; ++f) {
      if (f == 0) {
        row[f] = 3.25;  // constant column
      } else if (f == 1 && r % 7 == 3) {
        row[f] = kNaN;  // NaN-pocked column
      } else {
        row[f] = rng.normal(0.0, 1.0);
      }
    }
  }
  return x;
}

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

const data::BuiltFeatures& lmc() {
  static const data::BuiltFeatures bf =
      data::build_features(airport_ds(), data::FeatureSetSpec::parse("L+M+C"));
  return bf;
}

// ---- BinnedMatrix: codes, widths, edge cases ------------------------------

TEST(BinnedMatrix, CodesMatchRowMajorEncode) {
  const auto x = make_matrix(512, 9, 11);
  ml::BinMapper mapper;
  mapper.fit(x, 64);
  const auto codes = mapper.encode(x);
  const auto binned = ml::BinnedMatrix::build(mapper, x);

  ASSERT_EQ(binned.rows(), x.rows());
  ASSERT_EQ(binned.cols(), x.cols());
  EXPECT_EQ(binned.missing_code(), mapper.missing_code());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      ASSERT_EQ(binned.code(r, f), codes[r * x.cols() + f])
          << "r=" << r << " f=" << f;
    }
  }
  // 64 bins + missing code 64 all fit a byte: every column stays narrow,
  // and the whole store is one byte per cell.
  for (std::size_t f = 0; f < x.cols(); ++f) EXPECT_TRUE(binned.narrow(f));
  EXPECT_EQ(binned.code_bytes(), x.rows() * x.cols());
}

TEST(BinnedMatrix, WideMapperPromotesToUint16) {
  // 300 quantile bins cannot fit uint8, so every non-trivial column must
  // be promoted — and the codes must still match the row-major encode.
  const auto x = make_matrix(2048, 4, 17);
  ml::BinMapper mapper;
  mapper.fit(x, 300);
  const auto codes = mapper.encode(x);
  const auto binned = ml::BinnedMatrix::build(mapper, x);

  bool any_wide = false;
  for (std::size_t f = 0; f < x.cols(); ++f) any_wide |= !binned.narrow(f);
  EXPECT_TRUE(any_wide);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      ASSERT_EQ(binned.code(r, f), codes[r * x.cols() + f]);
    }
  }
}

TEST(BinnedMatrix, ConstantColumnStaysNarrowSingleCode) {
  const auto x = make_matrix(256, 3, 23);
  ml::BinMapper mapper;
  mapper.fit(x, 128);
  const auto binned = ml::BinnedMatrix::build(mapper, x);
  // Column 0 is constant: one code everywhere, stored narrow even though
  // the mapper allows 128 bins.
  EXPECT_TRUE(binned.narrow(0));
  const std::uint16_t c0 = binned.code(0, 0);
  for (std::size_t r = 1; r < x.rows(); ++r) EXPECT_EQ(binned.code(r, 0), c0);
}

TEST(BinnedMatrix, MissingCodeAlonePromotesColumn) {
  // 256 real bins produce codes 0..255 (narrow-able), but the missing
  // code is 256 — a column containing NaN must be promoted to uint16,
  // while NaN-free columns under the same mapper stay narrow only if
  // their max code fits. The promotion rule is per column, driven purely
  // by the codes the column actually stores.
  ml::FeatureMatrix x(4096, 2);
  Rng rng(29);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x.at(r, 0) = rng.normal(0.0, 1.0);
    x.at(r, 1) = (r % 13 == 5) ? kNaN : rng.normal(0.0, 1.0);
  }
  ml::BinMapper mapper;
  mapper.fit(x, 256);
  const auto binned = ml::BinnedMatrix::build(mapper, x);
  EXPECT_EQ(mapper.missing_code(), 256);
  EXPECT_FALSE(binned.narrow(1));  // holds code 256 somewhere
  for (std::size_t r = 0; r < x.rows(); ++r) {
    if (r % 13 == 5) {
      EXPECT_EQ(binned.code(r, 1), mapper.missing_code());
    }
  }
}

// ---- tree training: columnar bit-identical to the row path ----------------

TEST(ColumnarTreeFit, BitIdenticalToRowMajorFit) {
  const auto x = make_matrix(1500, 8, 31);
  ml::BinMapper mapper;
  mapper.fit(x, 64);
  const auto codes = mapper.encode(x);
  const auto binned = ml::BinnedMatrix::build(mapper, x);

  std::vector<double> grad(x.rows()), hess(x.rows(), 1.0);
  Rng rng(37);
  for (auto& g : grad) g = rng.normal(0.0, 2.0);
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});

  ml::TreeConfig cfg;
  cfg.max_depth = 6;
  ml::GradientTree row_tree, col_tree;
  row_tree.fit(codes, mapper, grad, hess, idx, cfg);
  col_tree.fit(binned, mapper, grad, hess, idx, cfg);

  ASSERT_EQ(row_tree.nodes().size(), col_tree.nodes().size());
  for (std::size_t i = 0; i < row_tree.nodes().size(); ++i) {
    const auto& a = row_tree.nodes()[i];
    const auto& b = col_tree.nodes()[i];
    EXPECT_EQ(a.feature, b.feature) << "node " << i;
    EXPECT_EQ(a.bin, b.bin) << "node " << i;
    EXPECT_EQ(bits(a.threshold), bits(b.threshold)) << "node " << i;
    EXPECT_EQ(bits(a.value), bits(b.value)) << "node " << i;
    EXPECT_EQ(a.left, b.left) << "node " << i;
    EXPECT_EQ(a.right, b.right) << "node " << i;
    EXPECT_EQ(a.default_left, b.default_left) << "node " << i;
  }
  ASSERT_EQ(row_tree.gains().size(), col_tree.gains().size());
  for (std::size_t i = 0; i < row_tree.gains().size(); ++i) {
    EXPECT_EQ(bits(row_tree.gains()[i]), bits(col_tree.gains()[i]));
  }
}

TEST(ColumnarTreeFit, BootstrapIndicesBitIdentical) {
  // Non-identity index sets (a forest's bootstrap sample) must take the
  // indirected accumulate path and still match the row fit exactly.
  const auto x = make_matrix(1000, 6, 41);
  ml::BinMapper mapper;
  mapper.fit(x, 32);
  const auto codes = mapper.encode(x);
  const auto binned = ml::BinnedMatrix::build(mapper, x);

  std::vector<double> grad(x.rows()), hess(x.rows(), 1.0);
  Rng grng(43);
  for (auto& g : grad) g = grng.normal(0.0, 1.0);
  std::vector<std::size_t> idx(x.rows());
  Rng irng(47);
  for (auto& i : idx) {
    i = static_cast<std::size_t>(irng.uniform_int(x.rows()));
  }

  ml::TreeConfig cfg;
  cfg.max_depth = 5;
  ml::GradientTree row_tree, col_tree;
  row_tree.fit(codes, mapper, grad, hess, idx, cfg);
  col_tree.fit(binned, mapper, grad, hess, idx, cfg);
  ASSERT_EQ(row_tree.nodes().size(), col_tree.nodes().size());
  for (std::size_t i = 0; i < row_tree.nodes().size(); ++i) {
    EXPECT_EQ(bits(row_tree.nodes()[i].value),
              bits(col_tree.nodes()[i].value));
    EXPECT_EQ(row_tree.nodes()[i].feature, col_tree.nodes()[i].feature);
  }
}

TEST(ColumnarTreeFit, NaNDefaultDirectionPreserved) {
  // Trees trained columnar must learn the same default branch for missing
  // values, and raw-row predict must route NaN the same way afterwards.
  const auto x = make_matrix(1200, 5, 53);
  ml::BinMapper mapper;
  mapper.fit(x, 64);
  const auto codes = mapper.encode(x);
  const auto binned = ml::BinnedMatrix::build(mapper, x);

  std::vector<double> grad(x.rows()), hess(x.rows(), 1.0);
  Rng rng(59);
  for (auto& g : grad) g = rng.normal(0.0, 1.0);
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});

  ml::TreeConfig cfg;
  ml::GradientTree row_tree, col_tree;
  row_tree.fit(codes, mapper, grad, hess, idx, cfg);
  col_tree.fit(binned, mapper, grad, hess, idx, cfg);

  bool any_default_left = false;
  for (std::size_t i = 0; i < row_tree.nodes().size(); ++i) {
    EXPECT_EQ(row_tree.nodes()[i].default_left,
              col_tree.nodes()[i].default_left);
    any_default_left |= col_tree.nodes()[i].default_left;
  }
  // The NaN-pocked column makes at least one learned-left split likely;
  // regardless, every all-NaN probe row must take identical branches.
  std::vector<double> probe(x.cols(), kNaN);
  EXPECT_EQ(bits(row_tree.predict(probe)), bits(col_tree.predict(probe)));
  (void)any_default_left;
}

TEST(ColumnarTreeFit, PredictBinnedMatchesRawPredict) {
  const auto x = make_matrix(800, 7, 61);
  ml::BinMapper mapper;
  mapper.fit(x, 64);
  const auto binned = ml::BinnedMatrix::build(mapper, x);

  std::vector<double> grad(x.rows()), hess(x.rows(), 1.0);
  Rng rng(67);
  for (auto& g : grad) g = rng.normal(0.0, 1.0);
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  ml::GradientTree tree;
  tree.fit(binned, mapper, grad, hess, idx, ml::TreeConfig{});

  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double raw = tree.predict(x.row(r));
    ASSERT_EQ(bits(raw), bits(tree.predict_binned(binned, r))) << "row " << r;
  }
}

// ---- serving: ColumnStore + columnar flat-model kernels -------------------

TEST(ColumnStore, BlockViewsAndScatter) {
  data::ColumnStore s(100, 4);
  EXPECT_EQ(s.row_capacity(), 100u);
  EXPECT_EQ(s.cols(), 4u);
  const std::vector<double> row{1.0, 2.0, 3.0, 4.0};
  s.put_row(7, row);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_EQ(s.at(7, f), row[f]);
    EXPECT_EQ(s.col(f)[7], row[f]);
  }
  const auto block = s.block(5, 10);
  EXPECT_EQ(block.n_rows, 10u);
  EXPECT_EQ(block.col(2)[2], 3.0);  // store row 7 = block row 2
  const auto sub = block.rows(2, 3);
  EXPECT_EQ(sub.col(2)[0], 3.0);
}

TEST(ColumnarServe, FlatForestMatchesRowPredict) {
  ml::GbdtConfig cfg;
  cfg.n_estimators = 40;
  cfg.max_depth = 5;
  ml::GbdtRegressor model(cfg);
  model.fit(lmc().x, lmc().y_reg);
  const auto flat = serve::FlatForest::flatten(model);

  const auto cols = data::ColumnStore::from_matrix(lmc().x);
  std::vector<double> out(lmc().x.rows());
  flat.predict_columnar(cols.block(0, lmc().x.rows()), out);
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    ASSERT_EQ(bits(out[r]), bits(model.predict(lmc().x.row(r)))) << "row " << r;
  }
}

TEST(ColumnarServe, FlatForestRoutesNaNIdentically) {
  ml::GbdtConfig cfg;
  cfg.n_estimators = 30;
  ml::GbdtRegressor model(cfg);
  model.fit(lmc().x, lmc().y_reg);
  const auto flat = serve::FlatForest::flatten(model);

  // Blank a different feature of every row so many distinct default
  // branches are exercised, including whole-row NaN.
  ml::FeatureMatrix holed(128, lmc().x.cols());
  for (std::size_t r = 0; r < holed.rows(); ++r) {
    const auto src = lmc().x.row(r);
    const auto dst = holed.row(r);
    for (std::size_t f = 0; f < holed.cols(); ++f) dst[f] = src[f];
    if (r + 1 == holed.rows()) {
      for (std::size_t f = 0; f < holed.cols(); ++f) dst[f] = kNaN;
    } else {
      dst[r % holed.cols()] = kNaN;
    }
  }
  const auto cols = data::ColumnStore::from_matrix(holed);
  std::vector<double> out(holed.rows());
  flat.predict_columnar(cols.block(0, holed.rows()), out);
  for (std::size_t r = 0; r < holed.rows(); ++r) {
    ASSERT_EQ(bits(out[r]), bits(model.predict(holed.row(r)))) << "row " << r;
  }
}

TEST(ColumnarServe, FlatClassifierMatchesRowPredict) {
  ml::GbdtConfig cfg;
  cfg.n_estimators = 30;
  ml::GbdtClassifier model(cfg);
  model.fit(lmc().x, lmc().y_cls, data::kNumThroughputClasses);
  const auto flat = serve::FlatClassifier::flatten(model);

  const auto cols = data::ColumnStore::from_matrix(lmc().x);
  std::vector<int> out(lmc().x.rows());
  flat.predict_columnar(cols.block(0, lmc().x.rows()), out);
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    ASSERT_EQ(out[r], model.predict(lmc().x.row(r))) << "row " << r;
  }
}

TEST(ColumnarServe, EmptyClassifierPredictsClassZero) {
  const serve::FlatClassifier empty;
  data::ColumnStore s(8, 2);
  std::vector<int> out(8, 99);
  empty.predict_columnar(s.block(0, 8), out);
  for (int c : out) EXPECT_EQ(c, 0);
}

// ---- Predictor: tier-packed columnar walk vs per-window predict ----------

const core::Lumos5G& facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg;
    cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
    cfg.gbdt.n_estimators = 40;
    cfg.gbdt.max_depth = 5;
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

TEST(PredictorColumnar, MatchesPredictSpansAtEveryMinTier) {
  auto compiled = serve::Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());
  const serve::Predictor& p = *compiled;

  // Windows of every usable shape: full windows, short windows (forcing
  // tier fallback), and an empty window (forcing the error path).
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  std::vector<std::vector<data::SampleRecord>> storage;
  for (const auto& run : runs) {
    for (std::size_t start = 0; start + 2 < run.size() && storage.size() < 120;
         start += 11) {
      std::vector<data::SampleRecord> w;
      const std::size_t len = 1 + (storage.size() % 9);
      for (std::size_t i = start; i < std::min(start + len, run.size()); ++i) {
        w.push_back(ds[run[i]]);
      }
      storage.push_back(std::move(w));
    }
  }
  storage.emplace_back();  // empty window
  std::vector<std::span<const data::SampleRecord>> windows;
  for (const auto& w : storage) windows.emplace_back(w);

  serve::PredictScratch scratch;
  scratch.reserve(windows.size(), p.max_width());

  for (std::size_t min_tier = 0; min_tier <= p.tier_specs().size() + 1;
       ++min_tier) {
    std::vector<Expected<core::Prediction>> row_out;
    for (const auto& w : windows) row_out.push_back(p.predict(w, min_tier));
    std::vector<Expected<core::Prediction>> col_out(
        windows.size(),
        Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
    p.predict_spans_columnar(windows, col_out, scratch, min_tier);

    for (std::size_t i = 0; i < windows.size(); ++i) {
      ASSERT_EQ(row_out[i].has_value(), col_out[i].has_value())
          << "min_tier=" << min_tier << " window " << i;
      if (!row_out[i].has_value()) {
        EXPECT_EQ(row_out[i].error().code, col_out[i].error().code);
        continue;
      }
      EXPECT_EQ(bits(row_out[i]->throughput_mbps),
                bits(col_out[i]->throughput_mbps))
          << "min_tier=" << min_tier << " window " << i;
      EXPECT_EQ(row_out[i]->throughput_class, col_out[i]->throughput_class);
      EXPECT_EQ(row_out[i]->tier, col_out[i]->tier);
    }
  }
}

TEST(PredictorColumnar, ScratchIsReusableAcrossBatches) {
  auto compiled = serve::Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());
  const serve::Predictor& p = *compiled;

  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  std::vector<data::SampleRecord> w(
      ds.samples().begin() + static_cast<std::ptrdiff_t>(runs[0][4]),
      ds.samples().begin() + static_cast<std::ptrdiff_t>(runs[0][12]));
  const std::span<const data::SampleRecord> win{w};
  const std::vector<std::span<const data::SampleRecord>> windows{win, win};

  serve::PredictScratch scratch;
  scratch.reserve(8, p.max_width());
  std::vector<Expected<core::Prediction>> first(
      2, Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  std::vector<Expected<core::Prediction>> second = first;
  p.predict_spans_columnar(windows, first, scratch);
  p.predict_spans_columnar(windows, second, scratch);
  ASSERT_TRUE(first[0].has_value());
  EXPECT_EQ(bits(first[0]->throughput_mbps), bits(second[0]->throughput_mbps));
  EXPECT_EQ(bits(first[1]->throughput_mbps), bits(second[1]->throughput_mbps));
}

// ---- Dataset::reserve / append_all ----------------------------------------

TEST(DatasetReserve, AppendAllReservesOnce) {
  data::Dataset a;
  a.reserve(4);
  EXPECT_GE(a.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    data::SampleRecord r;
    r.throughput_mbps = static_cast<double>(i);
    a.append(r);
  }

  data::Dataset b;
  const auto& ds = airport_ds();
  for (std::size_t i = 0; i < 100; ++i) b.append(ds[i]);

  a.append_all(b);
  EXPECT_EQ(a.size(), 104u);
  EXPECT_GE(a.capacity(), 104u);
  EXPECT_EQ(a[0].throughput_mbps, 0.0);
  EXPECT_EQ(bits(a[4].throughput_mbps), bits(ds[0].throughput_mbps));
}

}  // namespace
}  // namespace lumos
