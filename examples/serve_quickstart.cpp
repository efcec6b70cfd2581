// Serving quickstart: the paper's consumer story (§2.3, Fig. 4) end to
// end — train a per-area predictor once, save it as a binary artifact,
// load it (as a freshly deployed device would) straight into the
// flattened serving runtime, and answer a fleet of per-UE windows.
//
//   1. Train core::Lumos5G with the T+M+C fallback chain on a simulated
//      airport campaign.
//   2. serve::save_model -> one versioned .l5gm artifact on disk.
//   3. serve::load_predictor -> flattened serving snapshot (16-byte
//      nodes, iterative traversal), parsed without building the
//      training-side pointer trees.
//   4. Answer one recent-sample window per UE in one
//      predict_spans_columnar batch (a sequential walk on scratch reserved
//      once), verifying the reloaded runtime matches the trainer bit for
//      bit.
//
// Build & run:  ./examples/serve_quickstart
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/lumos5g.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "sim/areas.h"

int main() {
  using namespace lumos;

  std::printf("collecting simulated airport campaign...\n");
  const data::Dataset ds =
      sim::collect_area_dataset(sim::make_airport(), /*walk_runs=*/8,
                                /*drive_runs=*/0, /*seed=*/1);
  std::printf("  %zu per-second samples\n", ds.size());

  // 1. Train the full fallback chain: T+M+C -> L+M+C -> L+M.
  core::Lumos5GConfig cfg;
  cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
  cfg.gbdt.n_estimators = 150;
  core::Lumos5G trainer(cfg);
  if (const auto r = trainer.train(ds); !r) {
    std::printf("training failed: %s\n", r.error().describe().c_str());
    return 1;
  }

  // 2. Save one artifact.
  const auto path =
      std::filesystem::temp_directory_path() / "lumos_airport.l5gm";
  if (const auto r = serve::save_model(trainer, path); !r) {
    std::printf("save failed: %s\n", r.error().describe().c_str());
    return 1;
  }
  std::printf("saved artifact: %s (%ju bytes)\n", path.c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)));

  // 3. Load the serving snapshot, as a serving process would at startup.
  const auto bytes = serve::read_artifact(path);
  if (!bytes) {
    std::printf("read failed: %s\n", bytes.error().describe().c_str());
    return 1;
  }
  const auto predictor = serve::load_predictor(*bytes);
  if (!predictor) {
    std::printf("load failed: %s\n", predictor.error().describe().c_str());
    return 1;
  }
  std::printf("loaded serving snapshot: %zu flat nodes (%zu KiB)\n",
              predictor->n_nodes(), predictor->n_nodes() * 16 / 1024);

  // 4. Serve a small fleet: each replayed UE's last 8 samples, oldest
  //    first (a serve::Server keeps these windows per UE itself).
  const auto runs = ds.runs();
  std::vector<std::vector<data::SampleRecord>> fleet;
  for (std::size_t r = 0; r < runs.size() && fleet.size() < 8; ++r) {
    std::vector<data::SampleRecord>& recent = fleet.emplace_back();
    for (std::size_t i = 20; i < 28 && i < runs[r].size(); ++i) {
      recent.push_back(ds[runs[r][i]]);
    }
  }
  // The batched walk writes into caller-owned slots and a scratch
  // reserved once for the batch size (a server reserves it at startup).
  const std::vector<std::span<const data::SampleRecord>> windows(
      fleet.begin(), fleet.end());
  std::vector<Expected<core::Prediction>> batch(
      fleet.size(),
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  serve::PredictScratch scratch;
  scratch.reserve(windows.size(), predictor->max_width());
  predictor->predict_spans_columnar(windows, batch, scratch);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto direct = trainer.predict(fleet[i]);
    if (!batch[i] || !direct) {
      std::printf("  UE%zu: no prediction\n", i);
      continue;
    }
    if (std::bit_cast<std::uint64_t>(batch[i]->throughput_mbps) !=
        std::bit_cast<std::uint64_t>(direct->throughput_mbps)) {
      ++mismatches;
    }
    // A tier past the model chain is the harmonic tail.
    const auto& tiers = predictor->tier_specs();
    const auto tier = static_cast<std::size_t>(batch[i]->tier);
    const std::string group =
        tier < tiers.size() ? tiers[tier].name() : "harmonic";
    std::printf("  UE%zu: %7.0f Mbps  class %d  tier %zu (%s)\n", i,
                batch[i]->throughput_mbps, batch[i]->throughput_class, tier,
                group.c_str());
  }
  std::filesystem::remove(path);

  if (mismatches != 0) {
    std::printf("FAIL: %zu reloaded predictions differ from the trainer\n",
                mismatches);
    return 1;
  }
  std::printf("reloaded serving runtime matches the trainer bit for bit\n");
  return 0;
}
