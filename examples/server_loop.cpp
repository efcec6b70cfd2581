// Server-loop quickstart: the resilient long-running serving layer on top
// of the flattened Predictor — what serve_quickstart's one-shot batch call
// becomes when it has to run for months.
//
//   1. Train a per-area model and compile it into a serve::Server with a
//      bounded queue, deadlines, watermark degradation, and session LRU/TTL.
//   2. Pump steady per-UE traffic through submit()/poll() and watch the
//      tier column: under calm load everything answers from tier 0.
//   3. Flood the queue past the degrade watermarks: the same UEs are now
//      answered from cheaper tiers (reported honestly), and past the shed
//      watermark requests get typed kOverloaded rejections.
//   4. Hot-reload the model artifact mid-traffic — once with bytes damaged
//      in flight (rolled back, old model keeps serving), once intact
//      (atomic swap, generation bumps).
//
// Everything runs on a ManualClock so the demo is deterministic; a real
// deployment passes a lumos::SteadyClock instead and nothing else changes.
//
// Build & run:  ./examples/server_loop
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/lumos5g.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

int main() {
  using namespace lumos;

  std::printf("collecting simulated airport campaign...\n");
  const data::Dataset ds =
      sim::collect_area_dataset(sim::make_airport(), /*walk_runs=*/8,
                                /*drive_runs=*/0, /*seed=*/1);

  core::Lumos5GConfig model_cfg;
  model_cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
  model_cfg.gbdt.n_estimators = 150;
  core::Lumos5G trainer(model_cfg);
  if (const auto r = trainer.train(ds); !r) {
    std::printf("training failed: %s\n", r.error().describe().c_str());
    return 1;
  }
  auto predictor = serve::Predictor::compile(trainer);
  if (!predictor) {
    std::printf("compile failed: %s\n", predictor.error().describe().c_str());
    return 1;
  }

  // 1. A small server so the pressure mechanics are visible at demo scale.
  serve::ServerConfig cfg;
  cfg.queue_capacity = 16;
  cfg.shed_watermark = 0.75;          // shed at 12 queued
  cfg.degrade_watermarks = {0.25, 0.5};  // tier floor 1 at 4, 2 at 8
  cfg.default_deadline_ms = 2'000;
  cfg.max_sessions = 8;
  ManualClock clock;
  serve::Server server(std::move(*predictor), cfg, clock);
  // Each poll() answers up to max_batch requests into these slots, owned
  // here and reused, so the serving loop itself never allocates.
  std::vector<serve::Response> slots(cfg.max_batch);
  const auto poll = [&] {
    return std::span<const serve::Response>(slots.data(), server.poll(slots));
  };

  const auto runs = ds.runs();
  // Each UE replays its own run in order, so session windows see forward
  // timestamps just as a live device would deliver them.
  std::size_t next_t[8] = {};
  const auto sample_for = [&](std::uint64_t ue) {
    const auto& run = runs[ue % runs.size()];
    return ds[run[(20 + next_t[ue]++) % run.size()]];
  };

  // Warm each UE's rolling window so the C-group lag features are
  // available and calm traffic can answer from the full tier-0 model.
  for (std::size_t t = 0; t < 32; ++t) {
    clock.advance_ms(1'000);
    (void)server.submit({t % 4, sample_for(t % 4), 0});
    (void)poll();
  }

  // 2. Calm traffic: one UE request per virtual second, served immediately.
  std::printf("\n-- calm load: one request per tick --\n");
  for (std::size_t t = 0; t < 8; ++t) {
    clock.advance_ms(1'000);
    (void)server.submit({t % 4, sample_for(t % 4), 0});
    for (const auto& r : poll()) {
      if (r.result) {
        std::printf("  tick %zu  ue%ju  %7.0f Mbps  tier %d  floor %zu\n", t,
                    static_cast<std::uintmax_t>(r.ue_id),
                    r.result->throughput_mbps, r.result->tier, r.min_tier);
      }
    }
  }

  // 3. Flood: 14 submissions against a capacity of 16 crosses both degrade
  //    watermarks and then the shed watermark.
  std::printf("\n-- flood: 14 requests in one tick --\n");
  std::size_t shed = 0;
  for (std::size_t i = 0; i < 14; ++i) {
    if (!server.submit({i % 8, sample_for(i % 8), 0})) ++shed;
  }
  std::printf("  queue %zu deep, %zu shed as kOverloaded\n",
              server.queue_depth(), shed);
  while (server.queue_depth() > 0) {
    for (const auto& r : poll()) {
      if (r.result) {
        std::printf("  ue%ju  %7.0f Mbps  tier %d  (floor was %zu)\n",
                    static_cast<std::uintmax_t>(r.ue_id),
                    r.result->throughput_mbps, r.result->tier, r.min_tier);
      }
    }
  }

  // 4. Hot reload: a damaged artifact rolls back, an intact one swaps in.
  const auto path =
      std::filesystem::temp_directory_path() / "lumos_server_loop.l5gm";
  std::string bytes = serve::save_bytes(trainer);
  std::string damaged = bytes;
  damaged[damaged.size() / 3] ^= 0x10;

  std::printf("\n-- hot reload --\n");
  (void)serve::write_artifact(path, damaged);
  if (const auto r = server.reload(path); !r) {
    std::printf("  damaged artifact: %s\n", r.error().describe().c_str());
  }
  std::printf("  still serving generation %ju\n",
              static_cast<std::uintmax_t>(server.model_generation()));

  (void)serve::write_artifact(path, bytes);
  if (const auto r = server.reload(path); !r) {
    std::printf("  reload failed: %s\n", r.error().describe().c_str());
    return 1;
  }
  std::printf("  intact artifact swapped in: now generation %ju\n",
              static_cast<std::uintmax_t>(server.model_generation()));
  std::filesystem::remove(path);

  const auto& st = server.stats();
  std::printf("\nstats: %ju submitted, %ju served, %ju shed, %ju reloads ok, "
              "%ju rolled back\n",
              static_cast<std::uintmax_t>(st.submitted),
              static_cast<std::uintmax_t>(st.served),
              static_cast<std::uintmax_t>(st.shed),
              static_cast<std::uintmax_t>(st.reloads_ok),
              static_cast<std::uintmax_t>(st.reloads_failed));
  server.begin_shutdown();
  return 0;
}
