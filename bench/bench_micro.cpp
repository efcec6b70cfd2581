// Micro-benchmarks (google-benchmark): hot-path costs of the simulator
// and the prediction stack — per-second sim tick, feature extraction,
// and model inference latency (GDBT vs Seq2Seq vs KNN), which bounds how
// cheaply a 5G-aware app can query Lumos5G online (paper §5.2 notes
// short-term inference must be lightweight).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "core/lumos5g.h"
#include "core/throughput_map.h"
#include "data/features.h"
#include "data/quality.h"
#include "sim/faults.h"
#include "data/column_store.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/knn.h"
#include "ml/tree.h"
#include "nn/seq2seq.h"
#include "serve/flat_model.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"
#include "sim/connection.h"

namespace {

using namespace lumos;

const sim::Area& airport_area() {
  static const sim::Area area = sim::make_airport();
  return area;
}

const data::Dataset& airport_ds() {
  static const data::Dataset ds =
      sim::collect_area_dataset(airport_area(), 6, 0, 11);
  return ds;
}

void BM_SimTick(benchmark::State& state) {
  const auto& area = airport_area();
  Rng rng(1);
  sim::ConnectionManager conn(area.env, rng);
  sim::UEContext ue{{1.5, 0.0}, 0.0, 1.4, data::Activity::kWalking};
  double y = -95.0;
  for (auto _ : state) {
    ue.pos.y = y;
    y += 1.4;
    if (y > 95.0) y = -95.0;
    benchmark::DoNotOptimize(conn.tick(ue, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimTick);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto& ds = airport_ds();
  const auto spec = data::FeatureSetSpec::parse("L+M+C");
  const data::FeatureConfig cfg;
  const auto runs = ds.runs();
  std::vector<data::SampleRecord> window;
  for (std::size_t i = 20; i < 25; ++i) window.push_back(ds[runs[0][i]]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::feature_row_from_window(window, spec, cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtraction);

void BM_GdbtPredict(benchmark::State& state) {
  const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  ml::GbdtConfig cfg;
  cfg.n_estimators = static_cast<std::size_t>(state.range(0));
  static std::map<long, ml::GbdtRegressor> cache;
  auto [it, fresh] = cache.try_emplace(state.range(0), cfg);
  if (fresh) it->second.fit(built.x, built.y_reg);
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(it->second.predict(built.x.row(row)));
    row = (row + 1) % built.x.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GdbtPredict)->Arg(100)->Arg(300);

void BM_KnnPredict(benchmark::State& state) {
  const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M"), {});
  static ml::KnnRegressor knn;
  static bool fitted = false;
  if (!fitted) {
    knn.fit(built.x, built.y_reg);
    fitted = true;
  }
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.predict(built.x.row(row)));
    row = (row + 1) % built.x.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KnnPredict);

void BM_Seq2SeqPredict(benchmark::State& state) {
  nn::Seq2SeqConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden = 40;
  cfg.layers = 2;
  cfg.seq_len = 12;
  cfg.epochs = 1;
  static nn::Seq2Seq* net = nullptr;
  if (net == nullptr) {
    net = new nn::Seq2Seq(cfg);
    std::vector<nn::SeqSample> tiny(8);
    Rng rng(2);
    for (auto& s : tiny) {
      s.x.resize(cfg.seq_len * cfg.input_dim);
      for (auto& v : s.x) v = rng.normal(0.0, 1.0);
      s.y.assign(1, 0.0);
    }
    net->fit(tiny);
  }
  std::vector<double> window(cfg.seq_len * cfg.input_dim, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->predict(window));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Seq2SeqPredict);

void BM_GdbtTrain1k(benchmark::State& state) {
  const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M"), {});
  ml::GbdtConfig cfg;
  cfg.n_estimators = 50;
  // Train on the first 1000 rows.
  ml::FeatureMatrix x(1000, built.x.cols());
  std::vector<double> y(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    const auto src = built.x.row(i);
    std::copy(src.begin(), src.end(), x.row(i).begin());
    y[i] = built.y_reg[i];
  }
  for (auto _ : state) {
    ml::GbdtRegressor model(cfg);
    model.fit(x, y);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_GdbtTrain1k)->Unit(benchmark::kMillisecond);

// ---- serial vs parallel engine (Arg = thread-pool size) ----
//
// The same fits as above but with the global pool pinned to Arg threads;
// Arg(1) is the sequential fallback path, Arg(4) the threaded path.
// Results are bit-identical across Args (see tests/test_parallel.cpp) —
// only the wall clock may differ, and only on multi-core hosts.

void BM_GdbtTrainThreads(benchmark::State& state) {
  const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  ThreadPool::global().set_threads(static_cast<std::size_t>(state.range(0)));
  ml::GbdtConfig cfg;
  cfg.n_estimators = 60;
  for (auto _ : state) {
    ml::GbdtRegressor model(cfg);
    model.fit(built.x, built.y_reg);
    benchmark::DoNotOptimize(model);
  }
  ThreadPool::global().set_threads(0);  // back to LUMOS_THREADS / hardware
}
BENCHMARK(BM_GdbtTrainThreads)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_RfTrainThreads(benchmark::State& state) {
  const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  ThreadPool::global().set_threads(static_cast<std::size_t>(state.range(0)));
  ml::ForestConfig cfg;
  cfg.n_trees = 30;
  for (auto _ : state) {
    ml::RandomForestRegressor model(cfg);
    model.fit(built.x, built.y_reg);
    benchmark::DoNotOptimize(model);
  }
  ThreadPool::global().set_threads(0);
}
BENCHMARK(BM_RfTrainThreads)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_PredictAllThreads(benchmark::State& state) {
  const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  static ml::KnnRegressor knn;
  static bool fitted = false;
  if (!fitted) {
    knn.fit(built.x, built.y_reg);
    fitted = true;
  }
  ThreadPool::global().set_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.predict_all(built.x));
  }
  ThreadPool::global().set_threads(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(built.x.rows()));
}
BENCHMARK(BM_PredictAllThreads)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// ---- dirty-data path: validate / repair throughput ----
//
// A fault-injected copy of the airport campaign (uniform 20% impairment
// rate) exercises every defect class the quality layer knows about.

const data::Dataset& dirty_ds() {
  static const data::Dataset ds = [] {
    sim::FaultConfig fc = sim::FaultConfig::uniform(0.2);
    return sim::FaultInjector(fc, 42).inject(airport_ds());
  }();
  return ds;
}

void BM_ValidateDataset(benchmark::State& state) {
  const auto& ds = dirty_ds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::validate(ds));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.size()));
}
BENCHMARK(BM_ValidateDataset)->Unit(benchmark::kMillisecond);

void BM_RepairDataset(benchmark::State& state) {
  const auto& ds = dirty_ds();
  const data::RepairPolicy policy;
  for (auto _ : state) {
    data::Dataset copy = ds;  // repair() works in place
    benchmark::DoNotOptimize(data::repair(copy, policy));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.size()));
}
BENCHMARK(BM_RepairDataset)->Unit(benchmark::kMillisecond);

// NaN-routing overhead: the same fitted model scores a clean row
// (Arg = 0) and a row whose signal features are NaN (Arg = 1), so any
// missing-branch routing cost shows up as the delta between the two.
void BM_GdbtPredictNaNRouting(benchmark::State& state) {
  static const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  ml::GbdtConfig cfg;
  cfg.n_estimators = 100;
  static ml::GbdtRegressor* model = nullptr;
  if (model == nullptr) {
    model = new ml::GbdtRegressor(cfg);
    model->fit(built.x, built.y_reg);
  }
  std::vector<double> row(built.x.row(0).begin(), built.x.row(0).end());
  if (state.range(0) == 1) {
    // Blank out the tail (connection-context) half of the feature row.
    for (std::size_t j = row.size() / 2; j < row.size(); ++j) {
      row[j] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GdbtPredictNaNRouting)->Arg(0)->Arg(1);

// ---- serving runtime: flattened layout vs pointer layout ----
//
// The same fitted GBDT scored two ways over the full feature matrix:
//   Arg(0)  pointer layout, per-row predict() (the seed path)
//   Arg(1)  flattened node-array, per-row predict() (a one-row block
//           through the columnar kernel)
// Both are bit-identical (tests/test_serve.cpp); only the walk differs.
// items/sec is rows scored per second, so the flat/pointer ratio reads
// directly off the report.

void BM_FlatVsPointerPredict(benchmark::State& state) {
  static const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  ml::GbdtConfig cfg;
  cfg.n_estimators = 300;
  static ml::GbdtRegressor* model = nullptr;
  if (model == nullptr) {
    model = new ml::GbdtRegressor(cfg);
    model->fit(built.x, built.y_reg);
  }
  static const serve::FlatForest flat = serve::FlatForest::flatten(*model);
  const long mode = state.range(0);
  for (auto _ : state) {
    if (mode == 0) {
      for (std::size_t r = 0; r < built.x.rows(); ++r) {
        benchmark::DoNotOptimize(model->predict(built.x.row(r)));
      }
    } else {
      for (std::size_t r = 0; r < built.x.rows(); ++r) {
        benchmark::DoNotOptimize(flat.predict(built.x.row(r)));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(built.x.rows()));
}
BENCHMARK(BM_FlatVsPointerPredict)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- columnar feature store (DESIGN §11) ----
//
// The histogram build is the inner loop of every tree fit. Arg(0) builds
// one tree over row-major uint16 codes (the seed layout: a d-strided walk
// per candidate feature); Arg(1) over the pre-binned SoA BinnedMatrix
// (one contiguous, usually uint8, column per feature). The fitted trees
// are bit-identical (tests/test_columnar.cpp); only the memory walk
// differs, so the Arg(0)/Arg(1) ratio is the layout win.
void BM_HistogramBuild(benchmark::State& state) {
  // Sized like a wide training campaign (full L+M+C expansion plus lag
  // features): the row-major codes (rows x cols x 2B = 4 MB, 128 B row
  // stride) spill the cache, while one columnar uint8 column (32 KB)
  // stays resident.
  constexpr std::size_t kRows = 32768;
  constexpr std::size_t kCols = 64;
  static const ml::FeatureMatrix* x = [] {
    auto* m = new ml::FeatureMatrix(kRows, kCols);
    Rng rng(7);
    for (std::size_t r = 0; r < kRows; ++r) {
      const auto row = m->row(r);
      for (std::size_t f = 0; f < kCols; ++f) row[f] = rng.normal(0.0, 1.0);
    }
    return m;
  }();
  static const std::vector<double>* grad = [] {
    auto* g = new std::vector<double>(kRows);
    Rng rng(8);
    for (auto& v : *g) v = rng.normal(0.0, 1.0);
    return g;
  }();
  static const std::vector<double> hess(kRows, 1.0);
  static const std::vector<std::size_t>* indices = [] {
    auto* idx = new std::vector<std::size_t>(kRows);
    for (std::size_t i = 0; i < kRows; ++i) (*idx)[i] = i;
    return idx;
  }();
  static const ml::BinMapper* mapper = [] {
    auto* m = new ml::BinMapper;
    m->fit(*x, 128);  // codes fit uint8: every columnar column is narrow
    return m;
  }();
  static const std::vector<std::uint16_t> codes = mapper->encode(*x);
  static const ml::BinnedMatrix binned = ml::BinnedMatrix::build(*mapper, *x);
  ml::TreeConfig cfg;
  // Shallow tree: the big sequential root-level histogram passes dominate,
  // which is the kernel under measurement (deeper levels shrink nodes into
  // cache, where layout stops mattering and tree bookkeeping takes over).
  cfg.max_depth = 3;
  const long mode = state.range(0);
  for (auto _ : state) {
    ml::GradientTree tree;
    if (mode == 0) {
      tree.fit(codes, *mapper, *grad, hess, *indices, cfg);
    } else {
      tree.fit(binned, *mapper, *grad, hess, *indices, cfg);
    }
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_HistogramBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Serving-side layout comparison over the same flattened 300-tree GBDT:
//   Arg(0)  per-row predict() over row-major feature rows
//   Arg(1)  predict_columnar() over a ColumnStore (level-synchronous row
//           blocks over contiguous feature columns)
// Outputs are bit-identical (tests/test_columnar.cpp). Both walks run
// sequentially on the calling thread at any pool size, so the
// Arg(0)/Arg(1) ratio is the column layout alone.
void BM_ColumnarVsRowPredict(benchmark::State& state) {
  static const auto built = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  ml::GbdtConfig cfg;
  cfg.n_estimators = 300;
  static ml::GbdtRegressor* model = nullptr;
  if (model == nullptr) {
    model = new ml::GbdtRegressor(cfg);
    model->fit(built.x, built.y_reg);
  }
  static const serve::FlatForest flat = serve::FlatForest::flatten(*model);
  static const data::ColumnStore cols =
      data::ColumnStore::from_matrix(built.x);
  static std::vector<double> out(built.x.rows());
  const long mode = state.range(0);
  for (auto _ : state) {
    if (mode == 0) {
      for (std::size_t r = 0; r < built.x.rows(); ++r) {
        out[r] = flat.predict(built.x.row(r));
      }
    } else {
      flat.predict_columnar(cols.block(0, built.x.rows()), out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(built.x.rows()));
}
BENCHMARK(BM_ColumnarVsRowPredict)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Shared serving fixtures: one trained T+M+C facade and its compiled
// snapshot, reused by the batch, server-loop, and reload benches.
const core::Lumos5G& serve_facade() {
  static const core::Lumos5G* facade = [] {
    core::Lumos5GConfig cfg;
    cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
    cfg.gbdt.n_estimators = 60;
    auto* f = new core::Lumos5G(cfg);
    if (!f->train(airport_ds())) std::abort();
    return f;
  }();
  return *facade;
}

const serve::Predictor& serve_predictor() {
  static const serve::Predictor* predictor = [] {
    auto compiled = serve::Predictor::compile(serve_facade());
    if (!compiled) std::abort();
    return new serve::Predictor(std::move(*compiled));
  }();
  return *predictor;
}

// End-to-end serving throughput (preds/sec): a compiled Predictor answers
// 256 per-UE windows of 8 records through the batched columnar walk one
// server lane runs. The walk is sequential on the calling thread at any
// pool size (the server's lanes are the only fan-out); Arg(1) keeps the
// row's baseline name. The scratch and output slots are reserved once,
// outside the timed loop, as Server does.
void BM_ServePredictBatch(benchmark::State& state) {
  static const serve::Predictor* predictor = &serve_predictor();
  static const std::vector<std::vector<data::SampleRecord>> records = [] {
    std::vector<std::vector<data::SampleRecord>> out;
    const auto& ds = airport_ds();
    const auto runs = ds.runs();
    for (const auto& run : runs) {
      for (std::size_t start = 10; start + 8 < run.size() && out.size() < 256;
           start += 9) {
        std::vector<data::SampleRecord>& w = out.emplace_back();
        for (std::size_t i = start; i < start + 8; ++i) w.push_back(ds[run[i]]);
      }
    }
    return out;
  }();
  const std::vector<std::span<const data::SampleRecord>> windows(
      records.begin(), records.end());
  std::vector<Expected<core::Prediction>> out(
      windows.size(),
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  serve::PredictScratch scratch;
  scratch.reserve(windows.size(), predictor->max_width());
  for (auto _ : state) {
    predictor->predict_spans_columnar(windows, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_ServePredictBatch)->Arg(1)->Unit(benchmark::kMillisecond);

// The resilient server loop end to end (requests/sec): admission control,
// deadline stamping, session upkeep, the depth-derived tier floor, and the
// batched predict, driven submit->poll on a virtual clock on a pool of one
// (so one lane). The delta against BM_ServePredictBatch is the loop's
// overhead. Each iteration serves a fresh server; building it (the
// Predictor copy and the server's arenas) and tearing it down are not
// timed. The lane fan-out is measured on wall time by bench/e2e
// (`capacity_rps`, `common.parallel.scaling`), not here: this row reads
// the main thread's CPU time, which cannot see pool workers.
void BM_ServerThroughput(benchmark::State& state) {
  static const std::vector<data::SampleRecord>* stream = [] {
    auto* v = new std::vector<data::SampleRecord>;
    const auto& ds = airport_ds();
    for (const auto& run : ds.runs()) {
      for (std::size_t i = 0; i < run.size() && v->size() < 2048; ++i) {
        v->push_back(ds[run[i]]);
      }
    }
    return v;
  }();
  const serve::Predictor& predictor = serve_predictor();  // trains once
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool::global().set_threads(threads);
  serve::ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  std::vector<serve::Response> slots(cfg.max_batch);
  for (auto _ : state) {
    state.PauseTiming();
    ManualClock clock;
    std::optional<serve::Server> server;
    server.emplace(serve::Predictor(predictor), cfg, clock);
    state.ResumeTiming();
    std::size_t i = 0;
    for (const auto& s : *stream) {
      benchmark::DoNotOptimize(server->submit({i % 16, s, 0}));
      if (++i % 16 == 0) {
        clock.advance_ms(1'000);
        benchmark::DoNotOptimize(server->poll(slots));
      }
    }
    while (server->queue_depth() > 0) {
      benchmark::DoNotOptimize(server->poll(slots));
    }
    state.PauseTiming();
    server.reset();
    state.ResumeTiming();
  }
  ThreadPool::global().set_threads(0);
  const auto total = state.iterations() *
                     static_cast<std::int64_t>(stream->size());
  state.SetItemsProcessed(total);
  state.counters["preds_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServerThroughput)
    ->ArgName("threads")
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Session-store cost as the store grows: the time per request must stay
// flat from 1k to 64k sessions. One lane on a pool of 1. The store is
// prefilled to max_sessions (Arg) outside the timed loop; each iteration
// then submits 64 never-seen UEs and polls once, so every request creates
// a session and evicts the LRU victim (TTL on, nothing idle long enough
// to expire). Windows hold 2 records, which keeps the largest row at
// ~30 MB of ring storage. Degradation is off: the full 64-request queue
// would otherwise send every request to the harmonic tail, and each
// request walks the L+M tier as a first contact does in serving.
void BM_ServerSessions(benchmark::State& state) {
  static const std::vector<data::SampleRecord>* samples = [] {
    auto* v = new std::vector<data::SampleRecord>;
    const auto& ds = airport_ds();
    for (std::size_t i = 0; i < ds.size() && v->size() < 256; ++i) {
      v->push_back(ds[i]);
    }
    return v;
  }();
  constexpr std::size_t kBatch = 64;
  const auto n = static_cast<std::size_t>(state.range(0));
  ThreadPool::global().set_threads(1);
  ManualClock clock;
  serve::ServerConfig cfg;
  cfg.queue_capacity = kBatch;
  cfg.shed_watermark = 1.0;
  cfg.degrade_watermarks.clear();  // a full queue must not skip the model
  cfg.max_batch = kBatch;
  cfg.max_sessions = n;
  cfg.session_capacity = 2;
  cfg.session_ttl_ms = 3'600'000;
  serve::Server server(serve::Predictor(serve_predictor()), cfg, clock);
  std::vector<serve::Response> out(kBatch);
  std::uint64_t ue = 0;
  const auto batch = [&] {
    for (std::size_t i = 0; i < kBatch; ++i, ++ue) {
      if (!server.submit({ue, (*samples)[ue % samples->size()], 0})) {
        std::abort();
      }
    }
    clock.advance_ms(1);
    return server.poll(out);
  };
  while (server.n_sessions() < n) batch();
  const std::uint64_t evicted_before = server.stats().evicted_lru;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch());
  }
  ThreadPool::global().set_threads(0);
  const auto requests =
      state.iterations() * static_cast<std::int64_t>(kBatch);
  if (server.stats().evicted_lru - evicted_before !=
      static_cast<std::uint64_t>(requests)) {
    std::abort();  // some request did not take the eviction path
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ServerSessions)
    ->Arg(1024)
    ->Arg(8192)
    ->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

// The stall a hot reload inserts between polls: the word-at-a-time
// envelope hash, load_predictor's checked read of the stored 16-byte
// serving nodes (no pointer trees, no compile step) and the swap, for a
// T+M+C facade artifact already in memory (the disk read is BM-irrelevant
// and retried I/O is a policy knob, not a hot path).
void BM_ServerReloadStall(benchmark::State& state) {
  static const std::string* bytes =
      new std::string(serve::save_bytes(serve_facade()));
  ManualClock clock;
  serve::Server server(serve::Predictor(serve_predictor()),
                       serve::ServerConfig{}, clock);
  for (auto _ : state) {
    if (!server.reload_bytes(*bytes)) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerReloadStall)->Unit(benchmark::kMillisecond);

void BM_ThroughputMapBuild(benchmark::State& state) {
  const auto& ds = airport_ds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ThroughputMap::build(ds, 2));
  }
}
BENCHMARK(BM_ThroughputMapBuild)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of benchmark_main: stamps the context key benchgate
// gates on (`lumos_build_type` — the measured library's own build type, as
// opposed to google-benchmark's `library_build_type`), and prints a loud
// banner when this binary was built without NDEBUG so debug numbers never
// get committed as a baseline.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("lumos_build_type", lumos::bench::build_type());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  lumos::bench::warn_if_debug();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
