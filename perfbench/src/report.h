// The metric catalogue: the end-to-end metrics every untraced run
// prints and the per-layer metrics every traced run prints, in the
// order and units BENCHMARK.json declares. A per-layer metric a
// workload's path does not exercise reads 0.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "fixture.h"
#include "harness.h"
#include "ledger.h"
#include "load.h"

namespace perfbench {

/// \brief The end-to-end metrics of one run.
struct EndToEnd {
  double setup_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double throughput_qps = 0;
  double ok_ratio = 0;
  double peak_rss_mb = 0;
  double ingest_ms = 0;
  double cold_query_ms = 0;
  double image_bytes_per_xml_byte = 0;
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);
/// \brief latency_p50/p99 and throughput of a load phase.
void AddLatency(const LoadStats& load, EndToEnd* e2e);

/// \brief A finished run: what it attempted and its metrics.
struct RunOutput {
  Outcome outcome;
  std::vector<Metric> metrics;
};

/// \brief Per-layer values by name; Metrics() renders the whole
/// catalogue. Setting a name outside the catalogue is a program bug
/// and aborts.
class PerLayer {
 public:
  void Set(const std::string& name, double value);
  std::vector<Metric> Metrics() const;

  /// store.open_ms / store.warm_ms from the set-ups.
  void AddSetup(const SetupStats& setup);
  /// store.save_ms, store.bytes_appended_per_save, model.shred_mb_per_s.
  void AddIngest(const IngestStats& ingest);
  /// proc.* and server.queue_wait_us_* over an untraced phase.
  void AddLoad(const LoadStats& load);
  /// query.*, text.*, core.*, store.route/merge/fan-out and the server
  /// split, from one LayerSample per distinct request (`traced` gives
  /// the client codec times; null = no server layer).
  void AddLayers(const std::vector<LayerSample>& samples,
                 const LoadStats* traced);

 private:
  std::map<std::string, double> values_;
};

/// \brief Traced vs untraced median latency of one interleaved phase,
/// in percent of the untraced median, averaged over request classes.
double TraceOverheadPct(const LoadStats& load);

/// \brief Per-class latency lines beside the workload percentiles.
void PrintClasses(const std::vector<std::string>& class_names,
                  const LoadStats& load);
/// \brief p50 / p99 of one class's latencies (ms); 0 when empty.
double ClassQuantile(const LoadStats& load, size_t klass, double q);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
