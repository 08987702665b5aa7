#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

uint64_t EdgeKey(const Edge& e) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(e.first)) << 32) |
         static_cast<uint32_t>(e.second);
}

// Stream tags: one independent generator per kind of input.
constexpr uint64_t kTagGraph = 1;
constexpr uint64_t kTagDeltas = 2;
constexpr uint64_t kTagPermutation = 3;
constexpr uint64_t kTagHotSet = 4;

const Workload kWorkloads[] = {
    // name, scale, rmat_edges, readers, write_readers, top_k, hot,
    // hot_set, zipf_s, deltas, inserts, removes, delta_interval_ms,
    // write_read_pace_ms, setups, restarts, checks, windows, warmup_s
    {"topk_cold", 17, 1000000, 1, 1, 10, false, 0, 1.0,
     16, 75, 25, 800, 0, 5, 3, 8, 1, 0},
    {"fullrow_cold", 17, 1000000, 1, 1, 0, false, 0, 1.0,
     16, 75, 25, 800, 0, 5, 3, 6, 1, 0},
    {"topk_hot", 15, 250000, 4, 3, 10, true, 256, 1.0,
     16, 75, 25, 250, 70, 5, 5, 8, 10, 3},
};

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(&seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

uint64_t Rng::Below(uint64_t bound) {
  // Lemire's multiply-shift; the tiny bias is irrelevant for load inputs.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  uint64_t x = seed ^ (tag * 0xd1b54a32d192ed03ull);
  return SplitMix(&x);
}

bool FindWorkload(const std::string& name, Workload* out) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

EdgeSet MakeRmatGraph(const Workload& w, uint64_t seed) {
  // R-MAT quadrant probabilities a, b, c (d = 1 - a - b - c), the repo's
  // generator defaults. The graph depends only on (scale, edges, seed), so
  // workloads naming the same size share one graph per seed.
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  Rng rng(StreamSeed(seed, kTagGraph));
  std::vector<Edge> raw;
  raw.reserve(static_cast<size_t>(w.rmat_edges));
  for (int64_t i = 0; i < w.rmat_edges; ++i) {
    int32_t u = 0, v = 0;
    for (int bit = 0; bit < w.scale; ++bit) {
      const double x = rng.Uniform();
      if (x < kA) continue;
      if (x < kA + kB) {
        v |= 1 << bit;
      } else if (x < kA + kB + kC) {
        u |= 1 << bit;
      } else {
        u |= 1 << bit;
        v |= 1 << bit;
      }
    }
    if (u != v) raw.emplace_back(u, v);
  }
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());

  // Relabel by first appearance in emission order: the loader interns ids
  // in exactly that order, so label i loads as internal id i. R-MAT ids
  // with no edge vanish here, and n counts only nodes that appear.
  std::vector<int32_t> label(size_t{1} << w.scale, -1);
  EdgeSet g;
  g.edges.reserve(raw.size());
  auto intern = [&](int32_t x) {
    if (label[static_cast<size_t>(x)] < 0) {
      label[static_cast<size_t>(x)] = static_cast<int32_t>(g.n++);
    }
    return label[static_cast<size_t>(x)];
  };
  for (const Edge& e : raw) {
    const int32_t u = intern(e.first);
    const int32_t v = intern(e.second);
    g.edges.emplace_back(u, v);
  }
  return g;
}

bool WriteEdgeList(const EdgeSet& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<char> buf(1 << 20);
  std::setvbuf(f, buf.data(), _IOFBF, buf.size());
  for (const Edge& e : g.edges) std::fprintf(f, "%d %d\n", e.first, e.second);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

std::vector<Delta> MakeDeltas(const EdgeSet& g, const Workload& w,
                              uint64_t seed) {
  Rng rng(StreamSeed(seed, kTagDeltas));
  std::unordered_set<uint64_t> present;
  present.reserve(g.edges.size() * 2);
  std::vector<Edge> live = g.edges;  // removal candidates, unordered
  for (const Edge& e : live) present.insert(EdgeKey(e));
  std::vector<Delta> deltas(static_cast<size_t>(w.deltas));
  for (Delta& d : deltas) {
    std::unordered_set<uint64_t> touched;  // one op per edge per delta
    while (static_cast<int>(d.remove.size()) < w.delta_removes) {
      const size_t i = rng.Below(live.size());
      const Edge e = live[i];
      if (!touched.insert(EdgeKey(e)).second) continue;
      d.remove.push_back(e);
      present.erase(EdgeKey(e));
      live[i] = live.back();
      live.pop_back();
    }
    while (static_cast<int>(d.insert.size()) < w.delta_inserts) {
      const Edge e{static_cast<int32_t>(rng.Below(g.n)),
                   static_cast<int32_t>(rng.Below(g.n))};
      if (e.first == e.second || present.count(EdgeKey(e)) != 0 ||
          !touched.insert(EdgeKey(e)).second) {
        continue;
      }
      d.insert.push_back(e);
      present.insert(EdgeKey(e));
      live.push_back(e);
    }
  }
  return deltas;
}

std::vector<Edge> ApplyDeltas(const std::vector<Edge>& base,
                              const std::vector<Delta>& deltas, int count) {
  std::unordered_set<uint64_t> removed;
  std::vector<Edge> out = base;
  for (int i = 0; i < count; ++i) {
    for (const Edge& e : deltas[static_cast<size_t>(i)].remove) {
      removed.insert(EdgeKey(e));
    }
    for (const Edge& e : deltas[static_cast<size_t>(i)].insert) {
      removed.erase(EdgeKey(e));  // a re-insert revives an earlier removal
      out.push_back(e);
    }
  }
  // Each edge is in `out` at most once per insert; drop removed edges and
  // duplicates of re-inserted ones.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::erase_if(out, [&](const Edge& e) { return removed.count(EdgeKey(e)); });
  return out;
}

SourceStream::SourceStream(const EdgeSet& g, const Workload& w,
                           uint64_t seed) {
  perm_.resize(static_cast<size_t>(g.n));
  for (int64_t i = 0; i < g.n; ++i) perm_[static_cast<size_t>(i)] = i;
  Rng rng(StreamSeed(seed, kTagPermutation));
  for (size_t i = perm_.size(); i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.Below(i)]);
  }
  if (!w.hot) return;
  Rng hot_rng(StreamSeed(seed, kTagHotSet));
  std::vector<int32_t> pool = perm_;
  for (int i = 0; i < w.hot_set; ++i) {
    const size_t j = i + hot_rng.Below(pool.size() - i);
    std::swap(pool[static_cast<size_t>(i)], pool[j]);
    hot_set_.push_back(pool[static_cast<size_t>(i)]);
  }
  double total = 0.0;
  for (int r = 0; r < w.hot_set; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

int32_t SourceStream::ColdSource(int64_t index) const {
  return perm_[static_cast<size_t>(index % n())];
}

int32_t SourceStream::HotSource(Rng* rng) const {
  const double x = rng->Uniform();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), x) -
      zipf_cdf_.begin());
  return hot_set_[std::min(rank, hot_set_.size() - 1)];
}

std::string QueryLine(int32_t source, int top_k, bool trace) {
  std::string line = "{\"op\":\"query\",\"sources\":[" +
                     std::to_string(source) + "]";
  if (top_k > 0) line += ",\"top_k\":" + std::to_string(top_k);
  if (trace) line += ",\"trace\":true";
  return line + "}\n";
}

std::string DeltaLine(const Delta& d) {
  auto pairs = [](const std::vector<Edge>& edges) {
    std::string s = "[";
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i > 0) s += ',';
      s += '[' + std::to_string(edges[i].first) + ',' +
           std::to_string(edges[i].second) + ']';
    }
    return s + ']';
  };
  std::string line = "{\"op\":\"apply_delta\"";
  if (!d.insert.empty()) line += ",\"insert\":" + pairs(d.insert);
  if (!d.remove.empty()) line += ",\"remove\":" + pairs(d.remove);
  return line + "}\n";
}

}  // namespace perfbench
