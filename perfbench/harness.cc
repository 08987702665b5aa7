#include "harness.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>

namespace perfbench {

namespace {

// Parses the number starting at json[pos]; advances pos past it.
bool ParseNumber(const std::string& json, size_t* pos, double* out) {
  const char* begin = json.data() + *pos;
  const char* end = json.data() + json.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc()) return false;
  *pos += static_cast<size_t>(ptr - begin);
  return true;
}

size_t FindValue(const std::string& json, const char* key, size_t from = 0) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = json.find(needle, from);
  return at == std::string::npos ? at : at + needle.size();
}

struct ParsedRanking {
  std::vector<std::pair<int32_t, double>> entries;
  double residual_bound = 0.0;
};

bool ParseRanking(const std::string& json, ParsedRanking* out) {
  size_t pos = FindValue(json, "ranking");
  if (pos == std::string::npos || json[pos] != '[') return false;
  ++pos;
  while (json[pos] == '{') {
    pos = FindValue(json, "node", pos);
    double node = 0, score = 0;
    if (pos == std::string::npos || !ParseNumber(json, &pos, &node)) {
      return false;
    }
    pos = FindValue(json, "score", pos);
    if (pos == std::string::npos || !ParseNumber(json, &pos, &score)) {
      return false;
    }
    out->entries.emplace_back(static_cast<int32_t>(node), score);
    if (json[pos] != '}') return false;
    ++pos;
    if (json[pos] == ',') ++pos;
  }
  if (json[pos] != ']') return false;
  out->residual_bound = DoubleField(json, "residual_bound");
  return !std::isnan(out->residual_bound);
}

bool ParseScores(const std::string& json, std::vector<double>* out) {
  size_t pos = FindValue(json, "scores");
  if (pos == std::string::npos || json[pos] != '[') return false;
  ++pos;
  while (json[pos] != ']') {
    double v = 0;
    if (!ParseNumber(json, &pos, &v)) return false;
    out->push_back(v);
    if (json[pos] == ',') ++pos;
  }
  return true;
}

std::string Fmt(const char* format, double a, double b, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

}  // namespace

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + (pos - static_cast<double>(lo)) * ((*v)[hi] - (*v)[lo]);
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

void Tally::Error(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu);
  if (errors.size() < 8) errors.push_back(what);
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::string out = "{\"correct\": ";
  out += tally.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted.load());
  out += ", \"failed\": " + std::to_string(tally.failed.load());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Conn::~Conn() { Close(); }

bool Conn::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // A wedged server must not hang the run past its time limit.
  timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Conn::Send(const std::string& line) {
  if (fd_ < 0) return false;
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

int Conn::Receive(std::string* response) {
  const ssize_t got = ::recv(fd_, chunk_.data(), chunk_.size(), 0);
  if (got <= 0) return -1;
  // Only the newly received bytes can hold the terminator.
  const size_t scanned = buf_.size();
  buf_.append(chunk_.data(), static_cast<size_t>(got));
  const size_t nl = buf_.find('\n', scanned);
  if (nl == std::string::npos) return 0;
  response->assign(buf_, 0, nl);
  buf_.erase(0, nl + 1);
  return 1;
}

bool Conn::Call(const std::string& line, std::string* response) {
  if (!Send(line)) return false;
  while (true) {
    const int got = Receive(response);
    if (got != 0) return got > 0;
  }
}

bool IsOk(const std::string& response) {
  return response.compare(0, 14, "{\"status\":\"ok\"") == 0;
}

bool CountedCall(Conn* conn, const std::string& line, std::string* response,
                 Tally* tally) {
  tally->attempted.fetch_add(1);
  if (conn->Call(line, response) && IsOk(*response)) return true;
  tally->failed.fetch_add(1);
  return false;
}

int64_t IntField(const std::string& json, const char* key) {
  size_t pos = FindValue(json, key);
  double v = 0;
  if (pos == std::string::npos || !ParseNumber(json, &pos, &v)) return -1;
  return static_cast<int64_t>(v);
}

double DoubleField(const std::string& json, const char* key) {
  size_t pos = FindValue(json, key);
  double v = 0;
  if (pos == std::string::npos || !ParseNumber(json, &pos, &v)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return v;
}

std::string AnswerBytes(const std::string& response) {
  const size_t rows = response.find("\"rows\":");
  std::string out =
      rows == std::string::npos ? std::string() : response.substr(rows);
  for (const char* tag :
       {",\"served_from_cache\":true", ",\"served_from_cache\":false"}) {
    for (size_t at = out.find(tag); at != std::string::npos;
         at = out.find(tag, at)) {
      out.erase(at, std::strlen(tag));
    }
  }
  return out;
}

std::string CheckAnswer(const std::string& response, int32_t source,
                        int top_k, const std::vector<double>& ref,
                        std::vector<double>* row) {
  const int64_t n = static_cast<int64_t>(ref.size());
  const std::string where = "source " + std::to_string(source) + ": ";
  if (!IsOk(response)) return where + "not ok: " + response.substr(0, 200);
  if (IntField(response, "source") != source) {
    return where + "answer names another source";
  }
  if (top_k == 0) {
    std::vector<double> scores;
    if (!ParseScores(response, &scores)) return where + "unparsable row";
    if (static_cast<int64_t>(scores.size()) != n) {
      return where + "row has " + std::to_string(scores.size()) +
             " scores, expected " + std::to_string(n);
    }
    for (int64_t i = 0; i < n; ++i) {
      const double s = scores[static_cast<size_t>(i)];
      if (!(s >= 0.0 && s <= 1.0)) {
        return where + Fmt("score[%.0f] = %.17g outside [0, 1]",
                           static_cast<double>(i), s);
      }
      if (std::fabs(s - ref[static_cast<size_t>(i)]) > kTolerance) {
        return where + Fmt("score[%.0f] = %.17g, reference %.17g",
                           static_cast<double>(i), s,
                           ref[static_cast<size_t>(i)]);
      }
    }
    if (row != nullptr) *row = std::move(scores);
    return "";
  }
  ParsedRanking ranking;
  if (!ParseRanking(response, &ranking)) return where + "unparsable ranking";
  const std::vector<perfref::Ranked> expect = perfref::TopK(ref, source, top_k);
  if (ranking.entries.size() != expect.size()) {
    return where + "ranking has " + std::to_string(ranking.entries.size()) +
           " entries, expected " + std::to_string(expect.size());
  }
  const double rb = ranking.residual_bound;
  if (!(rb >= 0.0)) return where + "negative residual_bound";
  std::vector<int32_t> seen;
  for (size_t i = 0; i < expect.size(); ++i) {
    const auto [node, score] = ranking.entries[i];
    if (node < 0 || node >= n || node == source) {
      return where + "ranked node " + std::to_string(node) + " invalid";
    }
    if (std::find(seen.begin(), seen.end(), node) != seen.end()) {
      return where + "node " + std::to_string(node) + " ranked twice";
    }
    seen.push_back(node);
    if (!(score >= 0.0 && score <= 1.0)) {
      return where + Fmt("rank %.0f score %.17g outside [0, 1]",
                         static_cast<double>(i), score);
    }
    const double r = ref[static_cast<size_t>(node)];
    if (score < r - rb - kTolerance || score > r + kTolerance) {
      return where + Fmt("node score %.17g outside [ref - bound, ref] of "
                         "ref %.17g, bound %.17g",
                         score, r, rb);
    }
    // Same node as the reference, or a tie with it within tolerance.
    if (node != expect[i].node && std::fabs(r - expect[i].score) > kTolerance) {
      return where + "rank " + std::to_string(i) + " is node " +
             std::to_string(node) + ", reference has node " +
             std::to_string(expect[i].node);
    }
  }
  return "";
}

}  // namespace perfbench
