// Measurement plumbing shared by the perfbench workloads: clocks and
// order statistics, process usage, the result line, the in-memory span
// log of the traced run, and a blocking wire-protocol client for the
// TCP front-end.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "util/result.h"

namespace perfbench {

namespace mx = meetxml;

/// \brief Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for store images (inside the checkout).
  std::string workdir;
};

/// \brief Pins the process to one CPU (the first it may use) and picks
/// a second one, when it may use another, for the open-loop generator.
/// On a shared host the number of cores a run actually gets swings from
/// run to run; a pinned stack makes the figures independent of that,
/// and a separate CPU keeps the generator's timed wake-ups off the
/// server's run queue. Threads are still created as usual.
bool PinCpus();

/// \brief Moves the calling thread — and the threads it starts — to
/// the load CPU for its lifetime, then back to the server CPU.
class OnLoadCpu {
 public:
  OnLoadCpu();
  ~OnLoadCpu();
  OnLoadCpu(const OnLoadCpu&) = delete;
  OnLoadCpu& operator=(const OnLoadCpu&) = delete;
};

/// \brief Steady-clock microseconds since an arbitrary epoch.
double NowUs();

/// \brief Linear-interpolated quantile, q in [0, 1]; 0 for no values.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// \brief getrusage(RUSAGE_SELF) totals, summed over every thread.
struct Usage {
  double cpu_ms = 0;
  double ctx_switches = 0;
  double max_rss_mb = 0;
};
Usage ReadUsage();

/// \brief One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a run attempted and how much of it failed; `correct` is
/// false when any answer mismatched its expectation or the run was
/// invalid.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// \brief Prints the metrics as a human-readable table, then the JSON
/// result object as the last line of stdout.
void PrintResult(std::string_view workload, const Outcome& outcome,
                 const std::vector<Metric>& metrics);

/// \brief Spans of the traced run: name, start, end, parent span and
/// the request they belong to. Kept in memory; written as JSON lines
/// when the run ends. Single-threaded.
class SpanLog {
 public:
  static constexpr size_t kNoParent = static_cast<size_t>(-1);

  size_t Begin(std::string_view name, size_t parent, uint64_t request);
  /// Records a span whose times were taken elsewhere (another thread).
  size_t Add(std::string_view name, double start_us, double end_us,
             size_t parent, uint64_t request);
  /// Ends span `id`; returns its duration in microseconds.
  double End(size_t id);
  /// Appends every span of `other`, keeping parents and request ids.
  void Append(const SpanLog& other);
  /// Sets the end of span `id` to a time taken elsewhere.
  void SetEnd(size_t id, double end_us) { spans_[id].end_us = end_us; }
  double Duration(size_t id) const;
  size_t size() const { return spans_.size(); }

  mx::util::Status Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    size_t parent = kNoParent;
    uint64_t request = 0;
  };
  std::vector<Span> spans_;
};

/// \brief The query reply a serial in-process run expects; replies are
/// compared by row count, truncation flag, and table hash and size.
struct Expected {
  uint64_t rows = 0;
  bool truncated = false;
  size_t table_bytes = 0;
  uint64_t table_hash = 0;

  bool operator==(const Expected&) const = default;
};
uint64_t HashBytes(std::string_view bytes);
/// \brief True when `response` decoded to an ok QUERY reply matching
/// `expected`.
bool ReplyMatches(const mx::util::Result<mx::server::Response>& response,
                  const Expected& expected);

/// \brief A framed QUERY request, encoded the way a client sends it.
std::string QueryFrame(std::string_view scope, std::string_view query);

/// \brief Blocking client for the TCP front-end: HELLO on connect,
/// then framed requests out and response payloads back, in order.
///
/// With `quick_ack` (the default) the client acknowledges every reply
/// segment at once (TCP_QUICKACK, re-armed before each read). The
/// server's accepted sockets leave Nagle's algorithm on, so a pipelining
/// client that delays its ACKs can lock a connection into holding each
/// reply until the client's next request carries the ACK; the
/// fanout_topk ledger measures that separately with `quick_ack` off.
class WireClient {
 public:
  static mx::util::Result<WireClient> Connect(uint16_t port,
                                              bool quick_ack = true);
  ~WireClient();
  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&&) = delete;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  mx::util::Status Send(std::string_view frame);
  /// \brief The next response payload off the stream.
  mx::util::Result<std::string> Receive();
  /// \brief One read of whatever bytes are available (call when the
  /// socket polls readable); appends every completed payload.
  mx::util::Status ReadAvailable(std::vector<std::string>* payloads);
  int fd() const { return fd_; }

 private:
  WireClient(int fd, bool quick_ack) : fd_(fd), quick_ack_(quick_ack) {}
  void ArmQuickAck() const;
  int fd_ = -1;
  bool quick_ack_ = true;
  mx::server::FrameBuffer frames_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
