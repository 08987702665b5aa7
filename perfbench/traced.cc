// The traced replay. It feeds the workload's inputs (same seed, same
// graph, deltas and sources) to the library in-process and records a span
// around each call into a layer's public functions:
//
//   graph    LoadEdgeList, VersionedGraph::Apply
//   matrix   CsrOverlay::MultiplyVector (Q)
//   core     KernelBackend::AccumulateBinomialColumn
//   engine   MakeGraphSnapshot, MakeDerivedSnapshot, TopKEngine::BatchTopK,
//            QueryEngine::BatchScores, SrsService::Query / ApplyDelta,
//            PropagateResultCacheAcrossDelta
//   server   ParseRequestLine, EncodeQueryResponse + Encode, and a live
//            in-process SrsServer driven over TCP (admission, coalescing)
//   storage  WriteSnapshotFile, ReadSnapshotFile, Wal::Append
//
// Spans stay in memory until the run ends, then go to
// spans-<workload>.tsv beside the work dir; the per-layer metrics are
// medians over them.

#include "traced.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <type_traits>

#include "srs/common/json.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/single_source_kernel.h"
#include "srs/engine/delta_invalidation.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/engine/snapshot.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/delta.h"
#include "srs/graph/graph_io.h"
#include "srs/graph/versioned_graph.h"
#include "srs/server/protocol.h"
#include "srs/server/server.h"
#include "srs/storage/snapshot_file.h"
#include "srs/storage/wal.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t id;
    int64_t parent;
    double start_ms;
    double end_ms;
  };

  int64_t Begin(const char* name, int64_t parent) {
    const double now = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, static_cast<int64_t>(spans_.size()), parent, now,
                      now});
    return spans_.back().id;
  }

  void End(int64_t id) {
    const double now = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ms = now;
  }

  // Runs `fn` inside a span and returns its result; `*ms`, when given,
  // gets the span's duration.
  template <typename Fn>
  auto Timed(const char* name, int64_t parent, Fn&& fn,
             double* ms = nullptr) {
    const int64_t id = Begin(name, parent);
    const auto finish = [&] {
      End(id);
      if (ms != nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        const Span& s = spans_[static_cast<size_t>(id)];
        *ms = s.end_ms - s.start_ms;
      }
    };
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      finish();
    } else {
      auto result = fn();
      finish();
      return result;
    }
  }

  // Durations of every span named `name`, in ms.
  std::vector<double> Durations(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "id\tparent\tname\tstart_ms\tend_ms\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%lld\t%lld\t%s\t%.6f\t%.6f\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.name, s.start_ms,
                   s.end_ms);
    }
    std::fclose(f);
  }

 private:
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  const Clock::time_point start_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

srs::Result<srs::EdgeDelta> ToEdgeDelta(const Delta& d, int64_t n) {
  srs::EdgeDelta::Builder builder;
  for (const Edge& e : d.insert) builder.Insert(e.first, e.second);
  for (const Edge& e : d.remove) builder.Remove(e.first, e.second);
  return builder.Build(n);
}

// Counts an in-process operation; false (and failed) when `ok` is false.
bool Count(Tally* tally, bool ok, const std::string& what) {
  tally->attempted.fetch_add(1);
  if (!ok) {
    tally->failed.fetch_add(1);
    std::fprintf(stderr, "traced run: %s failed\n", what.c_str());
  }
  return ok;
}

// TCP readers against the in-process server. Every other request asks for
// the server's "trace" echo and is wrapped in a client-side span; the
// rest are untraced, so the two halves of one run give the tracing
// overhead.
struct TcpReadLog {
  std::vector<double> traced_ms, untraced_ms, admission_wait_ms;
};

TcpReadLog RunTcpReaders(int port, const Workload& w,
                         const SourceStream& stream, uint64_t seed,
                         std::atomic<int64_t>* cursor, int count,
                         Clock::time_point deadline,
                         const std::atomic<bool>* stop, Tracer* tracer,
                         Tally* tally) {
  std::vector<TcpReadLog> logs(static_cast<size_t>(count));
  std::vector<std::thread> threads;
  for (int r = 0; r < count; ++r) {
    threads.emplace_back([&, r] {
      TcpReadLog& log = logs[static_cast<size_t>(r)];
      Rng rng(StreamSeed(seed, 200 + static_cast<uint64_t>(r)));
      Conn conn;
      if (!Count(tally, conn.Connect(port), "connect")) return;
      std::string response;
      for (int64_t i = 0; Clock::now() < deadline && !stop->load(); ++i) {
        const int32_t source = w.hot ? stream.HotSource(&rng)
                                     : stream.ColdSource(cursor->fetch_add(1));
        const bool traced = (i % 2) == 0;
        const std::string line = QueryLine(source, w.top_k, traced);
        const Clock::time_point t0 = Clock::now();
        const int64_t span = traced ? tracer->Begin("client.read", -1) : -1;
        tally->attempted.fetch_add(1);
        const bool sent = conn.Call(line, &response);
        if (traced) tracer->End(span);
        const double ms = SecondsSince(t0) * 1e3;
        if (!sent || !IsOk(response)) {
          tally->failed.fetch_add(1);
          if (!sent) return;  // the connection is gone
          continue;
        }
        if (traced) {
          log.traced_ms.push_back(ms);
          log.admission_wait_ms.push_back(
              DoubleField(response, "admission_wait_ms"));
        } else {
          log.untraced_ms.push_back(ms);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TcpReadLog all;
  for (const TcpReadLog& log : logs) {
    all.traced_ms.insert(all.traced_ms.end(), log.traced_ms.begin(),
                         log.traced_ms.end());
    all.untraced_ms.insert(all.untraced_ms.end(), log.untraced_ms.begin(),
                           log.untraced_ms.end());
    all.admission_wait_ms.insert(all.admission_wait_ms.end(),
                                 log.admission_wait_ms.begin(),
                                 log.admission_wait_ms.end());
  }
  return all;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int RunTraced(const Options& opt, const Workload& w) {
  Tally tally;
  Tracer tracer;
  const EdgeSet g = MakeRmatGraph(w, opt.seed);
  const std::vector<Delta> deltas = MakeDeltas(g, w, opt.seed);
  const SourceStream stream(g, w, opt.seed);
  const std::string graph_path = opt.work_dir + "/graph.txt";
  const std::string data_dir = opt.work_dir + "/trace-data";
  const std::string snapshot_path = opt.work_dir + "/trace-snapshot.srs";
  const std::string wal_path = opt.work_dir + "/trace-wal.log";
  if (!WriteEdgeList(g, graph_path)) {
    std::fprintf(stderr, "cannot write %s\n", graph_path.c_str());
    return 1;
  }
  if (const std::string bad = perfref::SelfCheck(); !bad.empty()) {
    tally.Error(bad);
  }
  const perfref::Graph ref0(g.n, g.edges);
  const perfref::Graph ref_final(
      g.n, ApplyDeltas(g.edges, deltas, static_cast<int>(deltas.size())));

  srs::SimilarityOptions sim;
  sim.damping = kDamping;
  sim.iterations = kIterations;
  const srs::QueryMeasure measure = srs::QueryMeasure::kSimRankStarGeometric;

  // Set-up layers: load, snapshot build, snapshot write.
  srs::Graph graph;
  double bytes_per_edge = 0.0;
  for (int i = 0; i < w.setups; ++i) {
    const int64_t root = tracer.Begin("setup", -1);
    srs::Result<srs::Graph> loaded = tracer.Timed(
        "graph.load", root, [&] { return srs::LoadEdgeList(graph_path); });
    if (!Count(&tally, loaded.ok(), "LoadEdgeList")) return 1;
    graph = loaded.MoveValueOrDie();
    if (graph.NumNodes() != g.n) {
      tally.Error("loaded " + std::to_string(graph.NumNodes()) +
                  " nodes, generated " + std::to_string(g.n));
    }
    std::shared_ptr<const srs::GraphSnapshot> snap = tracer.Timed(
        "engine.snapshot_build", root,
        [&] { return srs::MakeGraphSnapshot(graph); });
    const srs::Status written =
        tracer.Timed("storage.snapshot_write", root, [&] {
          return srs::WriteSnapshotFile(snapshot_path, graph, *snap);
        });
    Count(&tally, written.ok(), "WriteSnapshotFile");
    tracer.End(root);
    bytes_per_edge = static_cast<double>(snap->ByteSize()) /
                     static_cast<double>(graph.NumEdges());
  }

  // The serving stack as srs_serve wires it, in-process.
  fs::remove_all(data_dir);
  auto cache = std::make_shared<srs::ResultCache>(
      srs::ResultCacheOptions{size_t{kCacheMb} << 20, 8});
  srs::SrsServiceOptions service_options;
  service_options.similarity = sim;
  service_options.num_threads = opt.threads;
  service_options.data_dir = data_dir;
  service_options.result_cache = cache;
  srs::Result<std::unique_ptr<srs::SrsService>> created =
      srs::SrsService::Create(graph, service_options);
  if (!Count(&tally, created.ok(), "SrsService::Create")) return 1;
  std::unique_ptr<srs::SrsService> service = created.MoveValueOrDie();
  srs::Result<std::unique_ptr<srs::SrsServer>> started =
      srs::SrsServer::Start(service.get(), srs::ServerOptions{});
  if (!Count(&tally, started.ok(), "SrsServer::Start")) return 1;
  std::unique_ptr<srs::SrsServer> server = started.MoveValueOrDie();
  const int port = server->port();
  {
    Conn conn;
    std::string response;
    if (conn.Connect(port) && w.hot) {
      for (int32_t source : stream.hot_set()) {
        CountedCall(&conn, QueryLine(source, w.top_k, false), &response,
                    &tally);
      }
    }
  }

  // Read phase over TCP: admission, coalescing, cache, trace echo.
  std::atomic<int64_t> cursor{0};
  std::atomic<bool> never{false};
  const srs::AdmissionQueueStats q0 = server->QueueStats();
  const srs::ResultCacheStats c0 = cache->Stats();
  const TcpReadLog tcp = RunTcpReaders(
      port, w, stream, opt.seed, &cursor, w.readers,
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds / 2)),
      &never, &tracer, &tally);
  const srs::AdmissionQueueStats q1 = server->QueueStats();
  const srs::ResultCacheStats c1 = cache->Stats();

  // Layer replay: the same kind of read, one layer call at a time.
  srs::VersionedGraph vg(graph);
  auto replay_cache = std::make_shared<srs::ResultCache>(
      srs::ResultCacheOptions{size_t{kCacheMb} << 20, 8});
  srs::TopKEngineOptions topk_options;
  topk_options.similarity = sim;
  topk_options.similarity.top_k = 10;
  topk_options.num_threads = opt.threads;
  topk_options.result_cache = replay_cache;
  srs::QueryEngineOptions rows_options;
  rows_options.similarity = sim;
  rows_options.num_threads = opt.threads;
  rows_options.result_cache = replay_cache;
  srs::Result<srs::TopKEngine> topk_engine =
      srs::TopKEngine::Create(srs::GraphRef(vg, 0), topk_options);
  srs::Result<srs::QueryEngine> rows_engine =
      srs::QueryEngine::Create(srs::GraphRef(vg, 0), rows_options);
  if (!Count(&tally, topk_engine.ok() && rows_engine.ok(), "engine create")) {
    return 1;
  }
  const std::shared_ptr<const srs::GraphSnapshot> snap0 =
      topk_engine.ValueOrDie().snapshot();
  const std::shared_ptr<const srs::KernelBackend> backend =
      srs::MakeKernelBackend(sim);
  std::unique_ptr<srs::KernelWorkspace> workspace = backend->NewWorkspace();
  const std::vector<double> weights =
      srs::GeometricStarLengthWeights(kDamping, kIterations);
  std::vector<double> column, spmv_out(static_cast<size_t>(g.n));
  std::vector<double> response_kb;
  int64_t levels_evaluated = 0, levels_total = 0;
  const int replay_reads = w.hot ? 24 : 12;
  for (int i = 0; i < replay_reads; ++i) {
    const int32_t source =
        w.hot ? stream.hot_set()[static_cast<size_t>(i) %
                                 stream.hot_set().size()]
              : stream.ColdSource(cursor.fetch_add(1));
    const int64_t root = tracer.Begin("read", -1);
    std::string line = QueryLine(source, w.top_k, false);
    line.pop_back();
    srs::Result<srs::ProtocolRequest> parsed =
        tracer.Timed("server.parse", root, [&] {
          return srs::ParseRequestLine(line, service->default_similarity());
        });
    if (!Count(&tally, parsed.ok(), "ParseRequestLine")) continue;
    srs::QueryRequest request = parsed.ValueOrDie().query;
    request.version = service->ServedVersion();
    srs::Result<srs::QueryResponse> answered = tracer.Timed(
        "engine.service_query", root, [&] { return service->Query(request); });
    if (!Count(&tally, answered.ok(), "SrsService::Query")) continue;
    const std::string encoded = tracer.Timed("server.encode", root, [&] {
      return srs::EncodeQueryResponse(srs::JsonValue(), answered.ValueOrDie())
          .Encode();
    });
    response_kb.push_back(static_cast<double>(encoded.size()) / 1024.0);
    const std::vector<double> ref =
        ref0.GsrStarColumn(source, kDamping, kIterations);
    if (const std::string bad = CheckAnswer(encoded, source, w.top_k, ref);
        !bad.empty()) {
      tally.Error("traced read: " + bad);
    }

    srs::Result<std::vector<srs::TopKResult>> topk =
        tracer.Timed("engine.topk_batch", root, [&] {
          return topk_engine.ValueOrDie().BatchTopK(measure, {source});
        });
    if (Count(&tally, topk.ok(), "TopKEngine::BatchTopK")) {
      levels_evaluated += topk.ValueOrDie()[0].levels_evaluated;
      levels_total += topk.ValueOrDie()[0].levels_total;
    }
    srs::Result<std::vector<std::vector<double>>> rows =
        tracer.Timed("engine.rows_batch", root, [&] {
          return rows_engine.ValueOrDie().BatchScores(measure, {source});
        });
    Count(&tally, rows.ok(), "QueryEngine::BatchScores");
    tracer.Timed("core.column", root, [&] {
      backend->AccumulateBinomialColumn(snap0->q, snap0->qt, source, weights,
                                        workspace.get(), &column);
    });
    for (size_t v = 0; v < column.size(); ++v) {
      if (std::fabs(column[v] - ref[v]) > kTolerance) {
        tally.Error("core column of " + std::to_string(source) +
                    " disagrees with the reference at " + std::to_string(v));
        break;
      }
    }
    tracer.Timed("matrix.spmv", root, [&] {
      snap0->q.MultiplyVector(column.data(), spmv_out.data());
    });
    tracer.End(root);
  }

  // Write phase, part 1: the service's ApplyDelta, paced as in the
  // untraced run, beside closed-loop TCP readers.
  std::atomic<bool> writer_done{false};
  const srs::ServiceStats s0 = service->Stats();
  const srs::ResultCacheStats c2 = cache->Stats();
  std::thread writer([&] {
    const Clock::time_point first = Clock::now();
    for (size_t i = 0; i < deltas.size(); ++i) {
      const Delta& d = deltas[i];
      // The untraced run's pace: delta i is due at i * interval.
      std::this_thread::sleep_until(
          first + std::chrono::milliseconds(w.delta_interval_ms) *
                      static_cast<int64_t>(i));
      srs::Result<srs::EdgeDelta> delta = ToEdgeDelta(d, g.n);
      if (!Count(&tally, delta.ok(), "EdgeDelta::Build")) continue;
      srs::Result<uint64_t> applied =
          tracer.Timed("engine.apply_delta", -1, [&] {
            return service->ApplyDelta(delta.ValueOrDie());
          });
      Count(&tally, applied.ok(), "SrsService::ApplyDelta");
    }
    writer_done.store(true);
  });
  const TcpReadLog write_reads =
      RunTcpReaders(port, w, stream, opt.seed + 1, &cursor, w.write_readers,
                    Clock::time_point::max(), &writer_done, &tracer, &tally);
  writer.join();
  const srs::ServiceStats s1 = service->Stats();
  const srs::ResultCacheStats c3 = cache->Stats();

  // Write phase, part 2: each delta's layers on their own — WAL append,
  // graph apply, snapshot derive, cache propagation.
  srs::Result<std::unique_ptr<srs::Wal>> wal = srs::Wal::Create(
      wal_path, srs::Wal::Header{vg.BaseFingerprint(), 0, 0});
  if (!Count(&tally, wal.ok(), "Wal::Create")) return 1;
  std::shared_ptr<const srs::GraphSnapshot> parent = snap0;
  std::vector<double> version_mb, replay_delta_ms;
  for (const Delta& d : deltas) {
    srs::Result<srs::EdgeDelta> delta = ToEdgeDelta(d, g.n);
    if (!Count(&tally, delta.ok(), "EdgeDelta::Build")) continue;
    const int64_t root = tracer.Begin("delta", -1);
    srs::Wal::Record record;
    record.version = vg.CurrentVersion() + 1;
    record.version_fingerprint =
        vg.NextVersionFingerprint(delta.ValueOrDie());
    record.delta = delta.ValueOrDie();
    const srs::Status appended = tracer.Timed(
        "storage.wal_append", root, [&] { return wal.ValueOrDie()->Append(record); });
    Count(&tally, appended.ok(), "Wal::Append");
    double apply_ms = 0, derive_ms = 0;
    srs::Result<uint64_t> version = tracer.Timed(
        "graph.apply", root, [&] { return vg.Apply(delta.ValueOrDie()); },
        &apply_ms);
    if (!Count(&tally, version.ok(), "VersionedGraph::Apply")) break;
    if (vg.IsCompacted(version.ValueOrDie())) {
      // A graph-level compaction rebuilds instead of deriving; not a
      // derive sample.
      parent = srs::MakeGraphSnapshot(
          *vg.MaterializedBase(version.ValueOrDie()));
      tracer.End(root);
      continue;
    }
    std::shared_ptr<const srs::GraphSnapshot> child =
        tracer.Timed(
            "engine.snapshot_derive", root,
            [&] {
              return srs::MakeDerivedSnapshot(parent, vg,
                                              version.ValueOrDie());
            },
            &derive_ms);
    replay_delta_ms.push_back(apply_ms + derive_ms);
    version_mb.push_back(static_cast<double>(child->CacheByteSize()) / 1e6);
    srs::Result<srs::DeltaInvalidationStats> propagated =
        tracer.Timed("engine.invalidation", root, [&] {
          return srs::PropagateResultCacheAcrossDelta(replay_cache.get(),
                                                      *parent, *child, sim);
        });
    Count(&tally, propagated.ok(), "PropagateResultCacheAcrossDelta");
    parent = std::move(child);
    tracer.End(root);
  }

  // Answers on the mutated edge set, through the service.
  const Delta& last = deltas.back();
  for (const int32_t source : {last.insert[0].second, last.insert[0].first}) {
    srs::QueryRequest request;
    request.measure = measure;
    request.sources = {source};
    request.options = sim;
    request.options.top_k = w.top_k;
    srs::Result<srs::QueryResponse> answered = service->Query(request);
    if (!Count(&tally, answered.ok(), "SrsService::Query")) continue;
    const std::string encoded =
        srs::EncodeQueryResponse(srs::JsonValue(), answered.ValueOrDie())
            .Encode();
    if (answered.ValueOrDie().version != deltas.size()) {
      tally.Error("served version after the writes is " +
                  std::to_string(answered.ValueOrDie().version));
    }
    const std::string bad =
        CheckAnswer(encoded, source, w.top_k,
                    ref_final.GsrStarColumn(source, kDamping, kIterations));
    if (!bad.empty()) tally.Error("traced, after writes: " + bad);
  }

  // Recovery's storage layer: reading the checkpoint back.
  for (int i = 0; i < w.restarts; ++i) {
    srs::Result<srs::SnapshotFileData> read = tracer.Timed(
        "storage.snapshot_read", -1,
        [&] { return srs::ReadSnapshotFile(srs::DurableStore::SnapshotPath(data_dir)); });
    Count(&tally, read.ok(), "ReadSnapshotFile");
  }

  server->RequestShutdown();
  server->Wait();
  server.reset();
  service.reset();
  // Next to the work dir, which run.py removes after each run.
  tracer.Write((fs::path(opt.work_dir).parent_path() /
                ("spans-" + w.name + ".tsv"))
                   .string());
  fs::remove_all(data_dir);
  fs::remove(snapshot_path);
  fs::remove(wal_path);

  const auto ms = [&](const char* name) { return Median(tracer.Durations(name)); };
  const auto seconds = [&](const char* name) { return ms(name) / 1e3; };
  const srs::CsrOverlay& q = snap0->q;
  // Computed bytes of one Q * x: column index (4 B), value (8 B) and the
  // gathered x entry (8 B) per nonzero; row offset (8 B) and y (8 B) per
  // row.
  const double spmv_bytes = 20.0 * static_cast<double>(q.nnz()) +
                            16.0 * static_cast<double>(q.rows());
  const double spmv_ms = ms("matrix.spmv");
  std::vector<Metric> metrics = {
      {"matrix.spmv_ms", spmv_ms, "ms"},
      {"matrix.spmv_gbps", Ratio(spmv_bytes / 1e9, spmv_ms / 1e3), "GB/s"},
      {"core.column_ms", ms("core.column"), "ms"},
      {"core.topk_levels_ratio",
       Ratio(static_cast<double>(levels_evaluated),
             static_cast<double>(levels_total)),
       "ratio"},
      {"engine.topk_batch_ms", ms("engine.topk_batch"), "ms"},
      {"engine.rows_batch_ms", ms("engine.rows_batch"), "ms"},
      {"engine.service_query_ms", ms("engine.service_query"), "ms"},
      {"engine.cache_hit_ratio",
       Ratio(static_cast<double>(c1.hits - c0.hits),
             static_cast<double>(c1.hits - c0.hits + c1.misses - c0.misses)),
       "ratio"},
      {"server.parse_us", ms("server.parse") * 1e3, "us"},
      {"server.encode_ms", ms("server.encode"), "ms"},
      {"server.response_kb", Median(response_kb), "KiB"},
      {"server.batch_sources_mean",
       Ratio(static_cast<double>(q1.admitted - q0.admitted),
             static_cast<double>(q1.batches - q0.batches)),
       "count"},
      {"server.admission_wait_ms", Median(tcp.admission_wait_ms), "ms"},
      {"graph.apply_ms", ms("graph.apply"), "ms"},
      {"engine.snapshot_derive_ms", ms("engine.snapshot_derive"), "ms"},
      {"engine.replay_delta_ms", Median(replay_delta_ms), "ms"},
      {"engine.version_mb", Median(version_mb), "MB"},
      {"engine.invalidation_ms", ms("engine.invalidation"), "ms"},
      {"engine.apply_delta_ms", ms("engine.apply_delta"), "ms"},
      {"engine.cache_retained_ratio",
       Ratio(static_cast<double>(s1.cache_rows_retained -
                                 s0.cache_rows_retained),
             static_cast<double>(s1.cache_rows_retained -
                                 s0.cache_rows_retained +
                                 s1.cache_rows_evicted -
                                 s0.cache_rows_evicted)),
       "ratio"},
      {"engine.write_cache_hit_ratio",
       Ratio(static_cast<double>(c3.hits - c2.hits),
             static_cast<double>(c3.hits - c2.hits + c3.misses - c2.misses)),
       "ratio"},
      {"storage.wal_append_ms", ms("storage.wal_append"), "ms"},
      {"graph.load_s", seconds("graph.load"), "s"},
      {"engine.snapshot_build_s", seconds("engine.snapshot_build"), "s"},
      {"storage.snapshot_write_s", seconds("storage.snapshot_write"), "s"},
      {"storage.snapshot_read_s", seconds("storage.snapshot_read"), "s"},
      {"engine.snapshot_bytes_per_edge", bytes_per_edge, "B/edge"},
      {"trace.read_p50_ms", Median(tcp.traced_ms), "ms"},
      {"trace.overhead_ms", Median(tcp.traced_ms) - Median(tcp.untraced_ms),
       "ms"},
  };
  std::fprintf(stderr, "perfbench traced: %zu traced + %zu untraced reads, "
               "%zu reads beside the writes\n",
               tcp.traced_ms.size(), tcp.untraced_ms.size(),
               write_reads.traced_ms.size() + write_reads.untraced_ms.size());
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace perfbench
