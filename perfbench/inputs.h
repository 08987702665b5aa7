#pragma once

// Seeded inputs of the benchmark: the R-MAT graph, the delta stream and the
// read streams. Everything here is a pure function of (workload, seed), so
// the load generator and the traced replay see identical inputs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Edge = std::pair<int32_t, int32_t>;

// splitmix64-seeded xoshiro256**: small, fast and identical on every host.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  double Uniform();  // [0, 1)
  uint64_t Below(uint64_t bound);

 private:
  uint64_t s_[4];
};

// Mixes a stream tag into a seed, so each input stream has its own RNG.
uint64_t StreamSeed(uint64_t seed, uint64_t tag);

// One workload's fixed make-up.
struct Workload {
  std::string name;
  int scale = 0;          // R-MAT over 2^scale ids before dropping isolates
  int64_t rmat_edges = 0; // edges sampled (before dedupe / self-loop drop)
  int readers = 1;        // reader connections in the read phase
  int write_readers = 1;  // reader connections beside the writer
  int top_k = 10;         // 0 = full score rows
  bool hot = false;       // Zipf over a warmed hot set, else never-repeating
  int hot_set = 0;
  double zipf_s = 1.0;
  int deltas = 0;         // apply_delta ops in the write phase
  int delta_inserts = 0;
  int delta_removes = 0;
  int delta_interval_ms = 0;  // the writer's pace: delta i is due at i * this
  int write_read_pace_ms = 0; // write-phase readers: 0 = closed loop, else
                              // one query per reader every this many ms
  int setups = 0;         // server starts per run (setup_s is their median)
  int restarts = 0;       // recoveries per run (recover_s is their median)
  int checks = 0;         // read-phase answers checked against the reference
  int windows = 1;        // read-phase windows (metrics: median over them)
  double warmup_s = 0;    // untimed load before the read phase
};

// The workload named `name`; false when unknown.
bool FindWorkload(const std::string& name, Workload* out);

// Directed simple graph whose node ids are dense, [0, n), and ordered by
// first appearance in `edges` — so srs_serve's LoadEdgeList assigns every
// node the id the benchmark uses for it.
struct EdgeSet {
  int64_t n = 0;
  std::vector<Edge> edges;  // emission order of the edge-list file
};

EdgeSet MakeRmatGraph(const Workload& w, uint64_t seed);

// Writes "u v" lines; false on I/O failure.
bool WriteEdgeList(const EdgeSet& g, const std::string& path);

struct Delta {
  std::vector<Edge> insert;  // edges absent before this delta
  std::vector<Edge> remove;  // edges present before this delta
};

// `w.deltas` deltas, each valid against the edge set all earlier ones
// produce.
std::vector<Delta> MakeDeltas(const EdgeSet& g, const Workload& w,
                              uint64_t seed);

// `base` with `deltas[0, count)` applied.
std::vector<Edge> ApplyDeltas(const std::vector<Edge>& base,
                              const std::vector<Delta>& deltas, int count);

// Where the readers' sources come from. Cold workloads walk a seeded
// permutation of the nodes (sources never repeat); hot ones draw
// Zipf-ranked entries of a seeded hot set.
class SourceStream {
 public:
  SourceStream(const EdgeSet& g, const Workload& w, uint64_t seed);

  // Cold: the i-th source of the permutation. Hot: a Zipf draw with the
  // reader's own generator.
  int32_t ColdSource(int64_t index) const;
  int32_t HotSource(Rng* rng) const;

  const std::vector<int32_t>& hot_set() const { return hot_set_; }
  int64_t n() const { return static_cast<int64_t>(perm_.size()); }

 private:
  std::vector<int32_t> perm_;
  std::vector<int32_t> hot_set_;
  std::vector<double> zipf_cdf_;
};

// Request lines of the wire protocol.
std::string QueryLine(int32_t source, int top_k, bool trace);
std::string DeltaLine(const Delta& d);

}  // namespace perfbench
