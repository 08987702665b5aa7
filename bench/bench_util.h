#pragma once

/// \file bench_util.h
/// \brief Shared helpers for the per-figure benchmark harnesses.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "srs/common/timer.h"
#include "srs/engine/query_engine.h"
#include "srs/eval/ranking.h"

namespace srs::bench {

/// Command-line knobs common to all harnesses. Usage: `bench_x [scale]
/// [seed] [--json] [--json-out PATH]`, where `scale` multiplies the
/// default dataset sizes (default 1.0, chosen so every harness finishes in
/// seconds on a laptop) and `seed` is the single top-level RNG seed
/// (default 42) every synthetic input derives from (via srs::DeriveSeed),
/// making whole runs reproducible from one number. `--json` additionally
/// emits one JSON object per measured configuration (see JsonLine) so perf
/// trajectories can be scraped from bench output. `--json-out PATH`
/// (implies `--json`) appends every JSON line to PATH as well — several
/// harnesses can share one file, which is how the CI bench smoke collects
/// a `BENCH_smoke.json` artifact across its smoke steps. `--large` switches
/// the harnesses that support it (bench_kernel_backends, bench_topk) to
/// their n >= 1M tier — million-node graphs swept across the SIMD dispatch
/// ladder — which is how `BENCH_kernels.json` is produced; harnesses
/// without a large tier ignore the flag.
struct BenchArgs {
  double scale = 1.0;
  uint64_t seed = 42;
  bool json = false;
  bool large = false;
};

/// The optional `--json-out` sink shared by every JsonLine of the process;
/// null means stdout only. Opened (append) by ParseArgs, flushed per line,
/// deliberately left open until process exit.
inline FILE*& JsonOutFile() {
  static FILE* file = nullptr;
  return file;
}

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      args.json = true;
      continue;
    }
    if (arg == "--large") {
      args.large = true;
      continue;
    }
    if (arg == "--json-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json-out needs a PATH\n");
        std::exit(2);
      }
      FILE* file = std::fopen(argv[++i], "a");
      if (file == nullptr) {
        std::fprintf(stderr, "--json-out: cannot append to %s\n", argv[i]);
        std::exit(2);
      }
      JsonOutFile() = file;
      args.json = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      // A typo'd flag must not be silently swallowed as a positional — it
      // would corrupt the scale/seed and skew every scraped number.
      std::fprintf(stderr,
                   "unknown flag: %s (usage: [scale] [seed] [--json] "
                   "[--json-out PATH] [--large])\n",
                   arg.c_str());
      std::exit(2);
    }
    if (positional == 0) {
      const double s = std::atof(arg.c_str());
      if (s > 0) args.scale = s;
      positional = 1;
    } else if (positional == 1) {
      args.seed =
          static_cast<uint64_t>(std::strtoull(arg.c_str(), nullptr, 10));
      positional = 2;
    }
  }
  return args;
}

/// \brief Builder for one machine-readable result line.
///
/// Collects fields in call order and prints a single flat JSON object to
/// stdout — one object per measured configuration, `{"bench":"...",...}` —
/// easily filtered from the human-readable tables with `grep '^{'`.
/// String values must not contain quotes or backslashes (bench names and
/// enum strings never do).
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) { Add("bench", bench); }

  JsonLine& Add(const std::string& key, const std::string& value) {
    AppendKey(key);
    body_ += '"';
    body_ += value;
    body_ += '"';
    return *this;
  }

  JsonLine& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }

  JsonLine& Add(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    AppendKey(key);
    body_ += buf;
    return *this;
  }

  JsonLine& Add(const std::string& key, int64_t value) {
    AppendKey(key);
    body_ += std::to_string(value);
    return *this;
  }

  JsonLine& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }

  /// Prints the line to stdout and, when `--json-out` is set, appends it
  /// to that file too (flushed per line so a crashed sweep keeps what it
  /// measured).
  void Print() const {
    std::printf("%s}\n", body_.c_str());
    if (FILE* file = JsonOutFile()) {
      std::fprintf(file, "%s}\n", body_.c_str());
      std::fflush(file);
    }
  }

 private:
  void AppendKey(const std::string& key) {
    body_ += body_.size() == 1 ? "\"" : ",\"";
    body_ += key;
    body_ += "\":";
  }

  std::string body_ = "{";
};

/// Wall-clock seconds of one invocation of `fn`.
inline double TimeSeconds(const std::function<void()>& fn) {
  Timer timer;
  fn();
  return timer.Seconds();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// The full-row-then-rank baseline of the top-k harnesses: full rows of
/// `batch` at full accuracy, each ranked top-`k` (query excluded) with the
/// bounded heap of TopKInto.
inline std::vector<std::vector<RankedNode>> RankFullRows(
    QueryEngine& engine, QueryMeasure measure,
    const std::vector<NodeId>& batch, size_t k) {
  const std::vector<std::vector<double>> rows =
      engine.BatchScores(measure, batch).ValueOrDie();
  std::vector<std::vector<RankedNode>> rankings(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    TopKInto(rows[i], k, batch[i], &rankings[i]);
  }
  return rankings;
}

}  // namespace srs::bench
