// The three workloads. Each builds its inputs from the seed, sets the
// stack up, checks answers, measures for Options::seconds and returns
// its end-to-end metrics (untraced) or per-layer metrics (traced).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"
#include "report.h"

namespace perfbench {

/// Warm-up discarded before every timed window.
inline constexpr double kWarmupS = 1.0;
/// Set-ups before and again after the load phase; setup_s is the
/// median of all of them.
inline constexpr int kSetups = 4;
/// Repetitions per distinct request in the traced decomposition.
inline constexpr int kLedgerReps = 15;

mx::util::Result<RunOutput> RunCaseStudy(const Options& options);
mx::util::Result<RunOutput> RunFanoutTopk(const Options& options);
mx::util::Result<RunOutput> RunIngestReopen(const Options& options);

/// \brief Writes the traced run's spans beside the images.
mx::util::Status WriteSpans(const Options& options, const SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
