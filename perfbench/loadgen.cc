// perfbench_loadgen — the srs_serve benchmark's load generator.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     --serve PATH/srs_serve --work-dir DIR [--git-sha SHA]
//
// --trace 0 starts srs_serve as a child process and drives it over its
// line-JSON TCP protocol through four phases: set-up (several starts, each
// timed to the first answer), a closed-loop read phase of S seconds, a
// write phase of a fixed count of apply_delta ops beside the readers, and
// recovery (SIGKILL, then several restarts from the data dir, each timed to
// the first answer at the recovered version). --trace 1 replays the same
// inputs in-process with spans around each layer's calls (traced.cc).
// Either way the last stdout line is one JSON object with "correct",
// "attempted", "failed" and "metrics".

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "harness.h"
#include "srs/common/cpu_features.h"
#include "traced.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Children still alive, so the watchdog can kill them if a run overruns.
constexpr int kMaxChildren = 4;
std::atomic<pid_t> g_children[kMaxChildren];

void TrackChild(pid_t pid, bool alive) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t expect = alive ? 0 : pid;
    if (slot.compare_exchange_strong(expect, alive ? pid : 0)) return;
  }
}

// Ends the process if the run exceeds its time limit, killing children
// first; joined (disarmed) when the run finishes in time.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                           [this] { return done_; })) {
            return;
          }
          std::fprintf(stderr, "perfbench: run exceeded %.0f s, aborting\n",
                       seconds);
          for (std::atomic<pid_t>& slot : g_children) {
            const pid_t pid = slot.load();
            if (pid > 0) {
              ::kill(pid, SIGKILL);
              ::waitpid(pid, nullptr, 0);
            }
          }
          std::_Exit(3);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// One srs_serve child: started with stdout on a pipe (its first line names
// the port) and stderr in a log file; killed with SIGKILL and reaped.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::vector<std::string>& args, const std::string& log,
             std::string* error) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return false;
    }
    const int log_fd = ::open(log.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out[1], 1);
      if (log_fd >= 0) ::dup2(log_fd, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (log_fd >= 0) ::close(log_fd);
    if (pid_ < 0) {
      ::close(out[0]);
      *error = "fork failed";
      return false;
    }
    TrackChild(pid_, true);
    // "srs_serve listening on 127.0.0.1:<port>"
    std::string line;
    char c = 0;
    pollfd pfd{out[0], POLLIN, 0};
    while (line.size() < 256) {
      if (::poll(&pfd, 1, 120000) <= 0 || ::read(out[0], &c, 1) != 1) break;
      if (c == '\n') break;
      line.push_back(c);
    }
    ::close(out[0]);
    const size_t colon = line.rfind(':');
    if (line.rfind("srs_serve listening on", 0) != 0 ||
        colon == std::string::npos) {
      *error = "srs_serve did not start (see " + log + ")";
      Kill();
      return false;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    return true;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // SIGKILL and reap; returns the child's peak RSS in KiB.
  long Kill() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGKILL);
    int status = 0;
    rusage usage{};
    ::wait4(pid_, &status, 0, &usage);
    TrackChild(pid_, false);
    pid_ = -1;
    return usage.ru_maxrss;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// utime + stime of `pid` in milliseconds, from /proc/<pid>/stat.
double ProcessCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  // Fields after "pid (comm)": state is field 3; utime/stime are 14/15.
  const char* p = stat.c_str() + close + 2;
  double utime = 0, stime = 0;
  for (int field = 3; field <= 15 && *p != '\0'; ++field) {
    if (field == 14) utime = std::atof(p);
    if (field == 15) stime = std::atof(p);
    while (*p != ' ' && *p != '\0') ++p;
    while (*p == ' ') ++p;
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// A reader's record of one phase.
struct ReaderLog {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion time of each read, from start
  std::vector<std::pair<int32_t, std::string>> kept;  // answers to check
};

// Readers, all driven by the calling thread: one thread polling every
// connection keeps the load generator's own CPU use and thread count low
// beside the server. With `pace` zero each connection is a closed loop: it
// sends its next query once the whole response line of the previous one
// has arrived, and latency runs from send to the last byte. With `pace`
// set, each connection is an open loop with one query due every `pace`
// (connections staggered across it); a query due while the previous one
// is outstanding goes out when that answer arrives, and latency runs from
// when the query was due. Cold workloads draw from one shared cursor into
// the never-repeating permutation; hot ones draw Zipf ranks from a
// per-connection generator. Only the answers picked for checking are kept;
// the rest are checked for "ok" and dropped. No query is sent once
// `deadline` has passed or `*stop` is set.
class Readers {
 public:
  Readers(const Workload& w, const SourceStream& stream, uint64_t seed,
          std::atomic<int64_t>* cold_cursor, Tally* tally)
      : w_(w), stream_(stream), seed_(seed), cursor_(cold_cursor),
        tally_(tally) {}

  // Runs `count` readers against `port`; `keep_every` > 0 keeps every such
  // answer of each reader, up to `keep_max` in total. Completion times are
  // logged relative to `start`. Returns one log per reader.
  std::vector<ReaderLog> Run(int port, int count, Clock::time_point start,
                             Clock::time_point deadline,
                             const std::atomic<bool>* stop, int phase,
                             Clock::duration pace, int keep_every,
                             int keep_max) {
    struct Slot {
      Conn conn;
      Rng rng{0};
      int32_t source = 0;
      int64_t index = 0;
      Clock::time_point due;  // when the next (or in-flight) query was due
      bool in_flight = false;
      bool active = false;    // in flight, or waiting for its due time
    };
    std::vector<ReaderLog> logs(static_cast<size_t>(count));
    std::vector<Slot> slots(static_cast<size_t>(count));
    const int keep_each = keep_max > 0 ? (keep_max + count - 1) / count : 0;
    auto send = [&](Slot& slot) {
      slot.source = w_.hot ? stream_.HotSource(&slot.rng)
                           : stream_.ColdSource(cursor_->fetch_add(1));
      tally_->attempted.fetch_add(1);
      if (pace == Clock::duration::zero()) slot.due = Clock::now();
      slot.in_flight = slot.conn.Send(QueryLine(slot.source, w_.top_k, false));
      if (!slot.in_flight) {
        tally_->failed.fetch_add(1);
        slot.active = false;
      }
    };
    // Schedules (open loop) or sends (closed loop) the slot's next query.
    auto next = [&](Slot& slot) {
      slot.in_flight = false;
      slot.active = Clock::now() < deadline && !stop->load();
      if (!slot.active) return;
      if (pace != Clock::duration::zero()) {
        slot.due += pace;
        if (slot.due > Clock::now()) return;  // waits for its due time
      }
      send(slot);
    };
    for (int r = 0; r < count; ++r) {
      Slot& slot = slots[static_cast<size_t>(r)];
      slot.rng = Rng(StreamSeed(seed_, 100 + 10 * static_cast<uint64_t>(phase) +
                                           static_cast<uint64_t>(r)));
      if (!slot.conn.Connect(port)) {
        tally_->attempted.fetch_add(1);
        tally_->failed.fetch_add(1);
        continue;
      }
      slot.due = Clock::now() + pace * r / count - pace;
      next(slot);
    }
    std::string response;
    std::vector<pollfd> fds;
    std::vector<Slot*> polled;
    while (true) {
      fds.clear();
      polled.clear();
      Clock::time_point wake = Clock::now() + std::chrono::seconds(1);
      bool any = false;
      for (Slot& slot : slots) {
        if (!slot.active) continue;
        any = true;
        if (slot.in_flight) {
          fds.push_back({slot.conn.fd(), POLLIN, 0});
          polled.push_back(&slot);
        } else {
          wake = std::min(wake, slot.due);
        }
      }
      if (!any) break;
      const auto timeout = std::chrono::ceil<std::chrono::milliseconds>(
          wake - Clock::now());
      if (::poll(fds.data(), fds.size(),
                 static_cast<int>(std::max<int64_t>(0, timeout.count()))) <
              0 &&
          errno != EINTR) {
        break;
      }
      for (size_t j = 0; j < fds.size(); ++j) {
        if (fds[j].revents == 0) continue;
        Slot& slot = *polled[j];
        const int got = slot.conn.Receive(&response);
        if (got == 0) continue;
        const double ms = SecondsSince(slot.due) * 1e3;
        if (got < 0 || !IsOk(response)) {
          tally_->failed.fetch_add(1);
          if (got < 0) {
            slot.in_flight = slot.active = false;
            continue;
          }
        } else {
          ReaderLog& log = logs[static_cast<size_t>(&slot - slots.data())];
          log.latency_ms.push_back(ms);
          log.done_s.push_back(SecondsSince(start));
          if (keep_every > 0 && slot.index % keep_every == 0 &&
              static_cast<int>(log.kept.size()) < keep_each) {
            log.kept.emplace_back(slot.source, std::move(response));
            response.clear();
          }
        }
        ++slot.index;
        next(slot);
      }
      for (Slot& slot : slots) {
        if (slot.active && !slot.in_flight && slot.due <= Clock::now()) {
          send(slot);
        }
      }
    }
    return logs;
  }

 private:
  const Workload& w_;
  const SourceStream& stream_;
  uint64_t seed_;
  std::atomic<int64_t>* cursor_;
  Tally* tally_;
};

std::vector<double> Latencies(const std::vector<ReaderLog>& logs) {
  std::vector<double> all;
  for (const ReaderLog& log : logs) {
    all.insert(all.end(), log.latency_ms.begin(), log.latency_ms.end());
  }
  return all;
}

// Reference columns, memoized per (version, source).
class ReferenceColumns {
 public:
  ReferenceColumns(const EdgeSet& g, const std::vector<Delta>& deltas)
      : g_(g), deltas_(deltas) {}

  const std::vector<double>& Column(int version, int32_t source) {
    auto& graph = graphs_[version];
    if (graph == nullptr) {
      graph = std::make_unique<perfref::Graph>(
          g_.n, ApplyDeltas(g_.edges, deltas_, version));
    }
    auto& col = columns_[{version, source}];
    if (col.empty()) col = graph->GsrStarColumn(source, kDamping, kIterations);
    return col;
  }

 private:
  const EdgeSet& g_;
  const std::vector<Delta>& deltas_;
  std::map<int, std::unique_ptr<perfref::Graph>> graphs_;
  std::map<std::pair<int, int32_t>, std::vector<double>> columns_;
};

int RunLoad(const Options& opt, const Workload& w) {
  Tally tally;
  const EdgeSet g = MakeRmatGraph(w, opt.seed);
  const std::vector<Delta> deltas = MakeDeltas(g, w, opt.seed);
  const SourceStream stream(g, w, opt.seed);
  const std::string graph_path = opt.work_dir + "/graph.txt";
  const std::string data_dir = opt.work_dir + "/data";
  const std::string log_path = opt.work_dir + "/srs_serve.log";
  if (!WriteEdgeList(g, graph_path)) {
    std::fprintf(stderr, "cannot write %s\n", graph_path.c_str());
    return 1;
  }
  fs::remove(log_path);
  if (const std::string bad = perfref::SelfCheck(); !bad.empty()) {
    tally.Error(bad);
  }
  ReferenceColumns refs(g, deltas);
  std::fprintf(stderr, "perfbench: %s seed %llu: n=%lld edges=%zu\n",
               w.name.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<long long>(g.n), g.edges.size());

  const std::vector<std::string> serving_flags = {
      "--threads", std::to_string(opt.threads), "--cache-mb",
      std::to_string(kCacheMb),
      "--damping", "0.6", "--iterations", std::to_string(kIterations)};
  auto server_args = [&](const std::string& dir, bool with_graph) {
    std::vector<std::string> args = {opt.serve_binary, "--data-dir", dir};
    if (with_graph) {
      args.push_back("--graph");
      args.push_back(graph_path);
    }
    args.insert(args.end(), serving_flags.begin(), serving_flags.end());
    return args;
  };
  // The first query of a start: a source the read phases never ask for.
  auto first_query = [&](int i) {
    return QueryLine(stream.ColdSource(g.n - 1 - i), w.top_k, false);
  };

  // Phase 1: set-up. Every start but the last is a throwaway on its own
  // data dir; the last one is the server the other phases drive.
  std::vector<double> setup_s;
  ServerProcess server;
  std::string response;
  for (int i = 0; i < w.setups; ++i) {
    const bool main = i == w.setups - 1;
    const std::string dir = main ? data_dir : opt.work_dir + "/data-setup";
    fs::remove_all(dir);
    ServerProcess extra;
    ServerProcess& proc = main ? server : extra;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    tally.attempted.fetch_add(1);
    if (!proc.Start(server_args(dir, true), log_path, &error)) {
      tally.failed.fetch_add(1);
      std::fprintf(stderr, "%s\n", error.c_str());
      PrintResult(tally, {});
      return 1;
    }
    Conn conn;
    if (!conn.Connect(proc.port()) ||
        !CountedCall(&conn, first_query(i), &response, &tally)) {
      std::fprintf(stderr, "set-up query failed: %s\n",
                   response.substr(0, 200).c_str());
      PrintResult(tally, {});
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
    if (!main) {
      extra.Kill();
      fs::remove_all(dir);
    }
  }
  std::error_code ec;
  const double snapshot_mb =
      static_cast<double>(fs::file_size(data_dir + "/snapshot.srs", ec)) / 1e6;
  const int port = server.port();

  Conn control;
  if (!control.Connect(port)) {
    std::fprintf(stderr, "cannot connect to srs_serve\n");
    return 1;
  }
  if (CountedCall(&control, "{\"op\":\"stats\"}\n", &response, &tally)) {
    if (IntField(response, "num_nodes") != g.n) {
      tally.Error("stats num_nodes " +
                  std::to_string(IntField(response, "num_nodes")) +
                  " != generated n " + std::to_string(g.n));
    }
  }
  if (w.hot) {
    for (int32_t source : stream.hot_set()) {
      CountedCall(&control, QueryLine(source, w.top_k, false), &response,
                  &tally);
    }
  }
  control.Close();

  // Phase 2: the closed-loop read phase.
  std::atomic<int64_t> cold_cursor{0};
  std::atomic<bool> never{false};
  Readers readers(w, stream, opt.seed, &cold_cursor, &tally);
  // Untimed warm-up under the phase's own load, so lazy set-up in the
  // server and the host (allocator pools, scheduler and idle-poll state)
  // has settled before timing starts.
  if (w.warmup_s > 0) {
    const Clock::time_point t = Clock::now();
    readers.Run(port, w.readers, t,
                t + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(w.warmup_s)),
                &never, 2, Clock::duration::zero(), 0, 0);
  }

  // The phase is cut into w.windows equal windows; server CPU is sampled
  // at each window edge, and each read counts in the window it completed
  // in. The read metrics all come from the window with the most reads:
  // with one window that is the whole phase; on the hot workload it is the
  // server's throughput while the host's scheduling lets it (see
  // README.md, "Why the best window").
  const double window_s = opt.seconds / w.windows;
  const Clock::time_point read_start = Clock::now();
  std::vector<double> cpu_edges;
  std::thread sampler([&] {
    for (int k = 0; k <= w.windows; ++k) {
      std::this_thread::sleep_until(
          read_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(k * window_s)));
      cpu_edges.push_back(ProcessCpuMs(server.pid()));
    }
  });
  // Answers kept for the reference check: every 5th of the cold reader,
  // every 17th per hot connection (spread over the Zipf draws).
  const std::vector<ReaderLog> read_logs = readers.Run(
      port, w.readers, read_start,
      read_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.seconds)),
      &never, 0, Clock::duration::zero(), w.hot ? 17 : 5, w.checks);
  sampler.join();
  std::vector<std::vector<double>> window_ms(static_cast<size_t>(w.windows));
  for (const ReaderLog& log : read_logs) {
    for (size_t i = 0; i < log.done_s.size(); ++i) {
      const size_t k = std::min(static_cast<size_t>(log.done_s[i] / window_s),
                                window_ms.size() - 1);
      window_ms[k].push_back(log.latency_ms[i]);
    }
  }
  size_t reads = 0, best = 0;
  std::fprintf(stderr, "perfbench: read windows (reads/s):");
  for (size_t k = 0; k < window_ms.size(); ++k) {
    reads += window_ms[k].size();
    if (window_ms[k].size() > window_ms[best].size()) best = k;
    std::fprintf(stderr, " %.0f",
                 static_cast<double>(window_ms[k].size()) / window_s);
  }
  std::fprintf(stderr, "\n");
  std::vector<double>& best_ms = window_ms[best];
  const double best_reads = static_cast<double>(best_ms.size());
  const double read_qps = best_reads / window_s;
  const double read_p50 = Quantile(&best_ms, 0.5);
  const double read_p90 = Quantile(&best_ms, 0.9);
  const double cpu_per_read =
      best_reads > 0 ? (cpu_edges[best + 1] - cpu_edges[best]) / best_reads
                     : 0.0;

  // Read answers against the reference, then symmetry on full rows.
  int32_t first_checked = stream.ColdSource(0);
  bool have_first = false;
  for (const ReaderLog& log : read_logs) {
    for (const auto& [source, answer] : log.kept) {
      if (!have_first) first_checked = source;
      have_first = true;
      const std::string bad =
          CheckAnswer(answer, source, w.top_k, refs.Column(0, source));
      if (!bad.empty()) tally.Error("read phase: " + bad);
    }
  }
  control.Connect(port);
  {
    const std::vector<perfref::Ranked> best =
        perfref::TopK(refs.Column(0, first_checked), first_checked, 1);
    const int32_t pair[3] = {first_checked, best.empty() ? 0 : best[0].node,
                             stream.ColdSource(g.n / 2)};
    std::vector<double> rows[3];
    for (int i = 0; i < 3; ++i) {
      if (CountedCall(&control, QueryLine(pair[i], 0, false), &response,
                      &tally)) {
        const std::string bad = CheckAnswer(response, pair[i], 0,
                                            refs.Column(0, pair[i]), &rows[i]);
        if (!bad.empty()) tally.Error("full row: " + bad);
      }
    }
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        if (rows[i].empty() || rows[j].empty()) continue;
        const double ab = rows[i][static_cast<size_t>(pair[j])];
        const double ba = rows[j][static_cast<size_t>(pair[i])];
        if (std::fabs(ab - ba) > kTolerance) {
          char msg[160];
          std::snprintf(msg, sizeof(msg),
                        "symmetry: S(%d,%d)=%.17g but S(%d,%d)=%.17g",
                        pair[i], pair[j], ab, pair[j], pair[i], ba);
          tally.Error(msg);
        }
      }
    }
  }
  control.Close();

  // Phase 3: the write phase — a fixed count of deltas from one writer
  // connection, the workload's readers beside it.
  std::atomic<bool> writer_done{false};
  std::vector<double> write_ms;
  int acknowledged = 0;
  std::thread writer([&] {
    Conn conn;
    std::string ack;
    if (conn.Connect(port)) {
      // Paced: delta i is due at i * interval, and its latency counts
      // from when it was due, so a slow acknowledgement that delays the
      // next delta shows in that one too.
      const Clock::time_point first = Clock::now();
      for (size_t i = 0; i < deltas.size(); ++i) {
        const Clock::time_point due =
            first + std::chrono::milliseconds(w.delta_interval_ms) *
                        static_cast<int64_t>(i);
        std::this_thread::sleep_until(due);
        if (!CountedCall(&conn, DeltaLine(deltas[i]), &ack, &tally)) {
          continue;
        }
        write_ms.push_back(SecondsSince(due) * 1e3);
        if (IntField(ack, "version") != static_cast<int64_t>(i + 1)) {
          tally.Error("delta " + std::to_string(i) + " acknowledged as " +
                      ack);
        }
        ++acknowledged;
      }
    }
    writer_done.store(true);
  });
  const std::vector<ReaderLog> write_logs =
      readers.Run(port, w.write_readers, Clock::now(),
                  Clock::time_point::max(), &writer_done, 1,
                  std::chrono::milliseconds(w.write_read_pace_ms), 0, 0);
  writer.join();
  std::vector<double> write_read_ms = Latencies(write_logs);

  // After the write phase: the served version and answers on the mutated
  // edge set. These answers are kept for the byte comparison after the
  // restart.
  const Delta& last = deltas.back();
  const int32_t check_sources[3] = {last.insert[0].second,
                                    last.insert[0].first,
                                    stream.ColdSource(g.n / 3)};
  std::string before_kill[3];
  control.Connect(port);
  if (CountedCall(&control, "{\"op\":\"stats\"}\n", &response, &tally) &&
      IntField(response, "served_version") != acknowledged) {
    tally.Error("served_version " +
                std::to_string(IntField(response, "served_version")) +
                " != acknowledged deltas " + std::to_string(acknowledged));
  }
  for (int i = 0; i < 3; ++i) {
    if (!CountedCall(&control, QueryLine(check_sources[i], w.top_k, false),
                     &response, &tally)) {
      continue;
    }
    const std::string bad = CheckAnswer(
        response, check_sources[i], w.top_k,
        refs.Column(acknowledged, check_sources[i]));
    if (!bad.empty()) tally.Error("after writes: " + bad);
    before_kill[i] = AnswerBytes(response);
  }
  control.Close();

  // Phase 4: SIGKILL, then restarts from the data dir alone.
  const double peak_rss_mb = static_cast<double>(server.Kill()) * 1024 / 1e6;
  std::vector<double> recover_s;
  for (int r = 0; r < w.restarts; ++r) {
    ServerProcess proc;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    tally.attempted.fetch_add(1);
    if (!proc.Start(server_args(data_dir, false), log_path, &error)) {
      tally.failed.fetch_add(1);
      std::fprintf(stderr, "%s\n", error.c_str());
      continue;
    }
    Conn conn;
    if (!conn.Connect(proc.port()) ||
        !CountedCall(&conn, QueryLine(check_sources[0], w.top_k, false),
                     &response, &tally)) {
      continue;
    }
    recover_s.push_back(SecondsSince(t0));
    if (IntField(response, "version") != acknowledged) {
      tally.Error("recovered version " +
                  std::to_string(IntField(response, "version")) + " != " +
                  std::to_string(acknowledged));
    }
    if (AnswerBytes(response) != before_kill[0]) {
      tally.Error("recovered answer for source " +
                  std::to_string(check_sources[0]) + " differs");
    }
    if (r == 0) {
      for (int i = 1; i < 3; ++i) {
        if (CountedCall(&conn, QueryLine(check_sources[i], w.top_k, false),
                        &response, &tally) &&
            AnswerBytes(response) != before_kill[i]) {
          tally.Error("recovered answer for source " +
                      std::to_string(check_sources[i]) + " differs");
        }
      }
    }
  }
  fs::remove_all(data_dir);

  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"recover_s", Median(recover_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"snapshot_mb", snapshot_mb, "MB"},
      {"read_qps", read_qps, "1/s"},
      {"read_p50_ms", read_p50, "ms"},
      {"read_p90_ms", read_p90, "ms"},
      {"cpu_ms_per_read", cpu_per_read, "ms"},
      {"write_p50_ms", Median(write_ms), "ms"},
      {"write_read_p50_ms", Median(write_read_ms), "ms"},
  };
  std::fprintf(stderr,
               "perfbench: %zu reads in the read phase, %zu beside %d "
               "deltas\n",
               reads, write_read_ms.size(), acknowledged);
  PrintResult(tally, metrics);
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

bool ParseArgs(int argc, char** argv, Options* opt, std::string* git_sha) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--serve") {
      opt->serve_binary = value;
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else if (flag == "--git-sha") {
      *git_sha = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !opt->workload.empty() && opt->seconds > 0 &&
         !opt->work_dir.empty() && (opt->trace || !opt->serve_binary.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string git_sha = "unknown";
  Workload w;
  if (!ParseArgs(argc, argv, &opt, &git_sha) ||
      !FindWorkload(opt.workload, &w)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--serve SRS_SERVE --work-dir DIR [--git-sha SHA]\n",
                 argv[0]);
    return 2;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  opt.threads = std::max(1, std::min(4, nproc));
  // No more connections than cores: readers (plus the writer beside them
  // in the write phase) are capped at nproc.
  w.readers = std::max(1, std::min(w.readers, nproc));
  w.write_readers = std::max(1, std::min(w.write_readers, nproc - 1));
  std::printf("host: cpu=\"%s\" nproc=%d simd=%s compiler=\"%s\" "
              "build_type=%s git_sha=%s\n",
              CpuModel().c_str(), nproc,
              srs::SimdLevelName(srs::ActiveSimdLevel()), kCompiler,
              PERFBENCH_BUILD_TYPE, git_sha.c_str());
  std::fflush(stdout);
  std::filesystem::create_directories(opt.work_dir);
  Watchdog watchdog(170.0);
  return opt.trace ? RunTraced(opt, w) : RunLoad(opt, w);
}
