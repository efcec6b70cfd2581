// benchgate — perf-regression gate over the committed micro-benchmark
// baseline. Runs the serve/predict rows of bench_micro in google-benchmark
// JSON mode, compares each row's cpu_time against the committed
// BENCH_micro.json, and fails (exit 1) when any row regresses beyond the
// threshold (default 2x — generous enough for shared-CI noise, tight
// enough to catch an accidental O(n) -> O(n^2) or a lost arena).
//
//   benchgate --bench <bench_micro> --baseline <BENCH_micro.json>
//             [--filter <regex>] [--threshold <x>]
//
// The threshold default can also be set via LUMOS_BENCHGATE_FACTOR (a CI
// knob for noisier-than-usual runners); an explicit --threshold wins over
// the environment. A one-line worst-ratio summary prints even on pass, so
// green runs still leave a trend datapoint in the log.
//
// Exit status: 0 = within threshold (or a row is missing from the
// baseline — new rows gate once the baseline is refreshed), 1 = regression,
// 2 = usage/run error — including a build-type mismatch: when the
// baseline's recorded build type (lumos_build_type, falling back to
// google-benchmark's library_build_type) differs from the fresh run's,
// the comparison measures the build type rather than the change under
// test, and benchgate refuses to gate it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// benchmark name -> cpu_time in nanoseconds.
using Rows = std::map<std::string, double>;

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

/// Minimal scanner for google-benchmark JSON output: pulls (name,
/// cpu_time, time_unit) triples out of the "benchmarks" array without a
/// full JSON parser. Aggregate rows (mean/median/stddev) are skipped.
Rows parse_rows(const std::string& text) {
  Rows out;
  static const std::regex kRow(
      R"rx("name"\s*:\s*"([^"]+)"[^{}]*?"cpu_time"\s*:\s*([0-9.eE+-]+)\s*,\s*"time_unit"\s*:\s*"([a-z]+)")rx");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kRow);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (name.find("_mean") != std::string::npos ||
        name.find("_median") != std::string::npos ||
        name.find("_stddev") != std::string::npos) {
      continue;
    }
    out[name] = std::atof((*it)[2].str().c_str()) * unit_to_ns((*it)[3].str());
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Build type recorded in a google-benchmark JSON context. Prefers the
/// bench binary's own `lumos_build_type` stamp (the build type of the
/// measured library); falls back to google-benchmark's
/// `library_build_type` (how the benchmark library was compiled) for
/// baselines recorded before the custom stamp existed. Empty when neither
/// key is present.
std::string build_type_of(const std::string& text) {
  static const std::regex kKey(
      R"rx("(?:lumos|library)_build_type"\s*:\s*"([^"]+)")rx");
  std::string lumos, library;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kKey);
       it != std::sregex_iterator(); ++it) {
    const std::string whole = (*it)[0].str();
    if (whole.find("lumos_build_type") != std::string::npos) {
      lumos = (*it)[1].str();
    } else {
      library = (*it)[1].str();
    }
  }
  return lumos.empty() ? library : lumos;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench;
  std::string baseline;
  std::string filter = "BM_ServerThroughput|BM_ServerSessions|"
                       "BM_FlatVsPointerPredict|BM_ServePredictBatch|"
                       "BM_HistogramBuild|BM_ColumnarVsRowPredict";
  double threshold = 2.0;
  if (const char* env = std::getenv("LUMOS_BENCHGATE_FACTOR")) {
    const double f = std::atof(env);
    if (f > 0.0) threshold = f;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench") == 0 && i + 1 < argc) {
      bench = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: benchgate --bench BIN --baseline JSON "
                   "[--filter RE] [--threshold X]\n");
      return 2;
    }
  }
  if (bench.empty() || baseline.empty()) {
    std::fprintf(stderr, "benchgate: --bench and --baseline are required\n");
    return 2;
  }

  const Rows base = parse_rows(read_file(baseline));
  if (base.empty()) {
    std::fprintf(stderr, "benchgate: no rows parsed from baseline %s\n",
                 baseline.c_str());
    return 2;
  }

  const std::string out_path = bench + ".benchgate.json";
  const std::string cmd = "\"" + bench + "\" --benchmark_filter=\"" + filter +
                          "\" --benchmark_format=json --benchmark_out=\"" +
                          out_path + "\" >/dev/null 2>&1";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "benchgate: bench run failed: %s\n", cmd.c_str());
    return 2;
  }
  const std::string fresh_text = read_file(out_path);
  const Rows fresh = parse_rows(fresh_text);
  if (fresh.empty()) {
    std::fprintf(stderr, "benchgate: no rows parsed from fresh run\n");
    return 2;
  }

  // A debug run gated against a Release baseline (or vice versa) measures
  // the build type, not the change under test — refuse outright rather
  // than emit a misleading pass/fail.
  const std::string base_bt = build_type_of(read_file(baseline));
  const std::string fresh_bt = build_type_of(fresh_text);
  if (!base_bt.empty() && !fresh_bt.empty() && base_bt != fresh_bt) {
    std::fprintf(stderr,
                 "benchgate: build-type mismatch: baseline is '%s' but the "
                 "fresh run is '%s'; refusing to gate (rebuild to match, or "
                 "refresh the baseline from a '%s' build)\n",
                 base_bt.c_str(), fresh_bt.c_str(), fresh_bt.c_str());
    return 2;
  }

  int regressions = 0;
  int gated = 0;
  double worst_ratio = 0.0;
  std::string worst_name;
  for (const auto& [name, ns] : fresh) {
    const auto it = base.find(name);
    if (it == base.end()) {
      std::printf("benchgate: %-40s NEW (no baseline row, not gated)\n",
                  name.c_str());
      continue;
    }
    const double ratio = ns / it->second;
    const bool bad = ratio > threshold;
    std::printf("benchgate: %-40s %10.3f ms vs %10.3f ms  (%.2fx)%s\n",
                name.c_str(), ns / 1e6, it->second / 1e6, ratio,
                bad ? "  REGRESSION" : "");
    ++gated;
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst_name = name;
    }
    if (bad) ++regressions;
  }
  if (regressions > 0) {
    std::printf("benchgate: %d row(s) regressed beyond %.1fx\n", regressions,
                threshold);
    return 1;
  }
  // Print the worst ratio even on pass: green runs leave a trend
  // datapoint, and a slow drift toward the gate is visible before it trips.
  if (gated > 0) {
    std::printf(
        "benchgate: PASS  %d row(s) within %.1fx; worst %.2fx (%s)\n", gated,
        threshold, worst_ratio, worst_name.c_str());
  } else {
    std::printf("benchgate: PASS  no gated rows matched the filter\n");
  }
  return 0;
}
