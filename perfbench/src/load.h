// Load generators over the TCP front-end. Both time each request from
// the client's send (closed loop) or its due time (open loop) to the
// decoded reply, check every reply against its expectation outside the
// timed interval, and discard a warm-up before the timed window.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// \brief One distinct request of a workload: where it goes, what it
/// asks, which class it reports under, and the reply it must get.
struct RequestKind {
  std::string scope;
  std::string query;
  size_t klass = 0;
  Expected expected;
};

/// \brief What one load phase measured in its timed window.
struct LoadStats {
  std::vector<double> latency_ms;  // one per answered untraced request
  std::vector<size_t> klass;       // parallel to latency_ms
  std::vector<double> done_s;      // parallel: completion, s into the window
  std::vector<double> traced_latency_ms;  // answered traced requests
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, busy replies and wrong answers
  double window_s = 0;  // first timed send (or due time) to last reply
  Usage usage_before;
  Usage usage_after;
  std::vector<uint64_t> queue_wait_before;
  std::vector<uint64_t> queue_wait_after;
  // Traced phases only, one entry per traced request.
  std::vector<double> codec_us;      // encode + decode on the client
  std::vector<size_t> traced_klass;  // parallel to traced_latency_ms
  // Open loop only: the sender against its schedule.
  std::vector<double> late_ms;           // wake-up minus due time
  std::vector<double> generator_lag_ms;  // lateness not caused by a
                                         // blocked send
};

/// \brief `clients` client threads, each on its own connection, each
/// sending its next request only after the previous reply; client c
/// walks kinds[sequence[...]] from its own offset into `sequence`.
/// With `spans`, every other block of kinds.size() requests is traced.
mx::util::Status ClosedLoop(uint16_t port, const std::vector<RequestKind>& kinds,
                            const std::vector<size_t>& sequence, int clients,
                            double warmup_s, double seconds, SpanLog* spans,
                            uint64_t* next_request, LoadStats* out);

/// \brief One sender thread issuing `rate` requests per second on a
/// fixed schedule, round-robin over `connections` pipelined
/// connections, and one receiver thread polling them all; request j
/// asks kinds[sequence[j % sequence.size()]]. With `spans`, every other
/// block of 64 requests is recorded as spans. `quick_ack` as in
/// WireClient.
mx::util::Status OpenLoop(uint16_t port, const std::vector<RequestKind>& kinds,
                          const std::vector<size_t>& sequence, double rate,
                          int connections, bool quick_ack, double warmup_s,
                          double seconds,
                          SpanLog* spans, uint64_t* next_request,
                          LoadStats* out);

/// \brief False when the open-loop sender, not the server, fell behind
/// its schedule: its own lag has a median above 1 ms or sums past 5% of
/// the window. Such a run measures the generator and is invalid.
bool GeneratorKeptUp(const LoadStats& load, double window_s);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
