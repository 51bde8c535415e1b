// The per-layer ledger of the traced run. Every number comes from a
// span the benchmark records around a call into one layer's public
// functions — Connection::HandlePayload, MultiExecutor::ExecuteText and
// Execute, ParseQuery, Executor::Execute, MatchPattern,
// FullTextSearch::Search, core::MeetGeneral, RenderTable — or from a
// parent span minus its children (self time). The program itself is
// not instrumented beyond the obs::QueryTrace its API already accepts.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/meet_general.h"
#include "harness.h"
#include "query/executor.h"
#include "server/service.h"
#include "store/catalog.h"

namespace perfbench {

/// \brief Medians over repetitions of one (scope, query) pair. Times
/// in microseconds; per-document quantities are summed over the
/// scoped documents.
struct LayerSample {
  double handle_us = 0;        // Connection::HandlePayload (0: no service)
  double transport_us = 0;     // TCP round trip - HandlePayload, paired
  double execute_text_us = 0;  // MultiExecutor::ExecuteText
  double parse_us = 0;         // ParseQuery
  double multi_wall_us = 0;    // MultiExecutor::Execute, traced
  double route_us = 0;         // QueryTrace route stage
  double merge_us = 0;         // QueryTrace merge stage
  double fanout_overhead_us = 0;   // wall - merge - slowest document
  double parallel_efficiency = 0;  // sum(document execute) / (wall x workers)
  double execute_us = 0;     // sum of Executor::Execute
  double path_match_us = 0;  // sum of MatchPattern (bindings + EXCLUDE)
  double search_us = 0;      // sum of FullTextSearch::Search
  double meet_us = 0;        // sum of core::MeetGeneral
  double self_us = 0;        // execute - path match - search - meet
  double render_us = 0;      // RenderTable of the merged answer
  double reply_bytes = 0;    // HandlePayload response size
  // Counts of one execution (exact).
  double rows = 0;
  double rows_examined = 0;
  double rows_pruned = 0;
  double terms = 0;
  double hits = 0;
  double meet_rows = 0;
  mx::core::MeetGeneralStats meet_stats;
};

/// \brief Runs the decomposition `reps` times (after one untimed warm
/// repetition) and returns the medians; spans land in `spans` under one
/// request id per repetition. `service` may be null (no server layer);
/// otherwise each repetition also sends the request over TCP to `port`
/// right before calling HandlePayload in process, so the transport share
/// comes from adjacent calls.
mx::util::Result<LayerSample> Decompose(
    const mx::store::Catalog& catalog, mx::server::QueryService* service,
    uint16_t port, const std::string& scope, const std::string& query_text,
    const mx::query::ExecuteOptions& options, int reps, SpanLog* spans,
    uint64_t* next_request);

/// \brief Re-derives a MEET query's inputs for one document from the
/// public layer calls and checks core::MeetGeneral against the
/// independent core::MeetGeneralRelational (unbounded, same options).
/// Returns the number of meets both produced.
mx::util::Result<size_t> CrossCheckMeets(const mx::store::Catalog& catalog,
                                         const std::string& name,
                                         const std::string& query_text);

/// \brief Merged buckets of the worker pool's queue-wait histogram in
/// the process-wide registry (the series DUMP renders).
std::vector<uint64_t> QueueWaitBuckets();

/// \brief Quantile of the samples recorded between two bucket
/// snapshots, interpolated inside the log bucket.
double BucketDeltaQuantile(const std::vector<uint64_t>& before,
                           const std::vector<uint64_t>& after, double q);

/// \brief Least-squares line through (x, y): slope and R^2.
struct LineFit {
  double slope = 0;
  double intercept = 0;
  double r2 = 0;
};
LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
