#pragma once

// Pieces shared by the untraced load run (loadgen.cc) and the traced
// in-process replay (traced.cc): the command line, metric reporting, a
// line-protocol client, response parsing, and the checks against the
// independent reference.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "reference.h"

namespace perfbench {

// The model's fixed parameters (the paper's defaults, and the server's).
inline constexpr double kDamping = 0.6;
inline constexpr int kIterations = 5;
// The server's ResultCache budget. Small enough that the never-repeating
// full rows of fullrow_cold (~0.6 MB each) fill it within the first
// seconds of every run, so peak RSS does not depend on how many reads a
// run managed; the top-k workloads' entries stay far below it.
inline constexpr int kCacheMb = 64;
// Absolute tolerance between served scores and the reference: both sum
// the same series in a different order, so they agree to ~1e-16.
inline constexpr double kTolerance = 1e-10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;  // srs_serve to start as a child process
  std::string work_dir;      // scratch space inside the checkout
  int threads = 1;           // server worker threads: min(4, nproc)
};

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point t0);

// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

// Operation tally: every request sent is attempted; a non-"ok" answer or
// a transport error is failed. Check failures are recorded separately and
// make the run incorrect.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> errors;  // check failures, first few; under mu

  void Error(const std::string& what);  // thread-safe
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Prints the result object as the last line of stdout.
void PrintResult(const Tally& tally, const std::vector<Metric>& metrics);

// Blocking line-protocol connection to 127.0.0.1:port.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port);
  void Close();
  // Sends `line` (newline-terminated) and reads one response line into
  // `*response` (without the newline). False on a transport error.
  bool Call(const std::string& line, std::string* response);

  // The two halves of Call, for callers that poll many connections:
  // Send writes the whole line; Receive does one recv and returns 1 when
  // a response line is complete (then in `*response`), 0 when more bytes
  // are due, -1 on a transport error or EOF.
  bool Send(const std::string& line);
  int Receive(std::string* response);
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;                     // received, not yet returned
  std::vector<char> chunk_ = std::vector<char>(size_t{1} << 16);
};

// One request through `conn`, counted in `tally`; false (and counted as
// failed) unless the response arrived with "status":"ok".
bool CountedCall(Conn* conn, const std::string& line, std::string* response,
                 Tally* tally);

// True when a response line carries "status":"ok" (responses without an
// "id" start with it).
bool IsOk(const std::string& response);

// Integer value of `"key":` in `json`; -1 when absent.
int64_t IntField(const std::string& json, const char* key);
// Double value of `"key":` in `json`; NaN when absent.
double DoubleField(const std::string& json, const char* key);

// The answer part of a query response — its rows with the serving
// provenance ("served_from_cache") removed — so answers served by two
// processes for the same version compare byte for byte.
std::string AnswerBytes(const std::string& response);

// Checks one query response for `source` against the reference column
// `ref` (the source's exact gsr-star column): full rows within
// kTolerance; rankings equal to the reference top-k up to ties within
// kTolerance, each score within [ref - residual_bound - tol, ref + tol];
// every score in [0, 1]. Empty on success, else what failed. `*row` gets
// the parsed full row (full-row responses only) for symmetry checks.
std::string CheckAnswer(const std::string& response, int32_t source,
                        int top_k, const std::vector<double>& ref,
                        std::vector<double>* row = nullptr);

}  // namespace perfbench
