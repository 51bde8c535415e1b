#include "report.h"

#include <cstdio>
#include <cstdlib>
#include <algorithm>

namespace perfbench {

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json's per_layer list.
constexpr Declared kPerLayer[] = {
    {"server.client_codec_us", "us"},
    {"server.transport_us", "us"},
    {"server.dispatch_us", "us"},
    {"server.queue_wait_us_p50", "us"},
    {"server.queue_wait_us_p99", "us"},
    {"server.reply_bytes", "bytes"},
    {"server.delayed_ack_stall_pct", "%"},
    {"server.delayed_ack_p99_ms", "ms"},
    {"store.route_us", "us"},
    {"store.merge_us", "us"},
    {"store.fanout_overhead_us", "us"},
    {"store.parallel_efficiency", "ratio"},
    {"store.rows_examined_per_row", "ratio"},
    {"store.rows_pruned", "count"},
    {"store.open_ms", "ms"},
    {"store.warm_ms", "ms"},
    {"store.first_touch_ms", "ms"},
    {"store.save_ms", "ms"},
    {"store.bytes_appended_per_save", "bytes"},
    {"query.parse_us", "us"},
    {"query.path_match_us", "us"},
    {"query.execute_us", "us"},
    {"query.self_us", "us"},
    {"query.render_us", "us"},
    {"text.search_us", "us"},
    {"text.hits_per_term", "count"},
    {"text.index_build_ms", "ms"},
    {"core.meet_us", "us"},
    {"core.items_seeded", "count"},
    {"core.lifts", "count"},
    {"core.meets_found", "count"},
    {"core.meets_materialized", "count"},
    {"core.meet_share_of_search", "ratio"},
    {"core.meet_us_per_output_row", "us"},
    {"core.fig7_r2", "ratio"},
    {"model.shred_mb_per_s", "MB/s"},
    {"proc.cpu_ms_per_query", "ms"},
    {"proc.ctx_switches_per_query", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.spans_recorded", "count"},
    {"run.failed_ratio", "ratio"},
    {"load.warmup_s", "s"},
    {"load.open_loop_p50_ms", "ms"},
    {"load.open_loop_p99_ms", "ms"},
    {"sender.late_p50_ms", "ms"},
    {"sender.late_max_ms", "ms"},
    {"sender.generator_lag_p50_ms", "ms"},
    {"sender.valid", "count"},
    {"class.y1984_p50_ms", "ms"},
    {"class.y1985_p50_ms", "ms"},
    {"class.y1986_p50_ms", "ms"},
    {"class.y1987_p50_ms", "ms"},
    {"class.y1988_p50_ms", "ms"},
    {"class.y1989_p50_ms", "ms"},
    {"class.y1990_p50_ms", "ms"},
    {"class.y1991_p50_ms", "ms"},
    {"class.y1992_p50_ms", "ms"},
    {"class.y1993_p50_ms", "ms"},
    {"class.y1994_p50_ms", "ms"},
    {"class.y1995_p50_ms", "ms"},
    {"class.y1996_p50_ms", "ms"},
    {"class.y1997_p50_ms", "ms"},
    {"class.y1998_p50_ms", "ms"},
    {"class.y1999_p50_ms", "ms"},
    {"class.scope_all_p50_ms", "ms"},
    {"class.scope_all_p99_ms", "ms"},
    {"class.scope_glob_p50_ms", "ms"},
    {"class.scope_glob_p99_ms", "ms"},
};

}  // namespace

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e) {
  // Keep in step with BENCHMARK.json's end_to_end list.
  return {
      {"setup_s", e2e.setup_s, "s"},
      {"latency_p50_ms", e2e.latency_p50_ms, "ms"},
      {"latency_p99_ms", e2e.latency_p99_ms, "ms"},
      {"throughput_qps", e2e.throughput_qps, "1/s"},
      {"ok_ratio", e2e.ok_ratio, "ratio"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
      {"ingest_ms", e2e.ingest_ms, "ms"},
      {"cold_query_ms", e2e.cold_query_ms, "ms"},
      {"image_bytes_per_xml_byte", e2e.image_bytes_per_xml_byte, "B/B"},
  };
}

void AddLatency(const LoadStats& load, EndToEnd* e2e) {
  // The window splits into up to kMaxSegments equal time segments of at
  // least kSegmentSamples samples each, so every segment's p99 has ten
  // samples beyond it; the reported percentiles are the medians of the
  // segments' percentiles, which a host stall confined to one segment
  // cannot move.
  constexpr size_t kMaxSegments = 5;
  constexpr size_t kSegmentSamples = 1000;
  const size_t segments = std::max<size_t>(
      1, std::min(kMaxSegments, load.latency_ms.size() / kSegmentSamples));
  std::vector<std::vector<double>> parts(segments);
  for (size_t i = 0; i < load.latency_ms.size(); ++i) {
    size_t at = load.window_s > 0 ? static_cast<size_t>(load.done_s[i] /
                                                        load.window_s * segments)
                                  : 0;
    parts[std::min(at, segments - 1)].push_back(load.latency_ms[i]);
  }
  std::vector<double> p50, p99;
  for (const std::vector<double>& part : parts) {
    p50.push_back(Quantile(part, 0.5));
    p99.push_back(Quantile(part, 0.99));
  }
  e2e->latency_p50_ms = Median(p50);
  e2e->latency_p99_ms = Median(p99);
  std::printf("# latency: %zu samples in %zu time segment(s); p50/p99 are "
              "medians of the segments' p50/p99\n",
              load.latency_ms.size(), segments);
  e2e->throughput_qps =
      load.window_s > 0 ? static_cast<double>(load.latency_ms.size()) / load.window_s
                        : 0;
}

void PerLayer::Set(const std::string& name, double value) {
  for (const Declared& declared : kPerLayer) {
    if (name == declared.name) {
      values_[name] = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: undeclared per-layer metric %s\n",
               name.c_str());
  std::abort();
}

std::vector<Metric> PerLayer::Metrics() const {
  std::vector<Metric> out;
  for (const Declared& declared : kPerLayer) {
    auto it = values_.find(declared.name);
    out.push_back({declared.name, it == values_.end() ? 0.0 : it->second,
                   declared.unit});
  }
  return out;
}

void PerLayer::AddSetup(const SetupStats& setup) {
  Set("store.open_ms", Median(setup.open_ms));
  Set("store.warm_ms", Median(setup.warm_ms));
}

void PerLayer::AddIngest(const IngestStats& ingest) {
  Set("store.save_ms", Median(ingest.save_ms));
  if (ingest.saves > 0) {
    Set("store.bytes_appended_per_save",
        ingest.bytes_appended_total / static_cast<double>(ingest.saves));
  }
  if (ingest.shred_ms_total > 0) {
    Set("model.shred_mb_per_s",
        (ingest.xml_bytes / 1e6) / (ingest.shred_ms_total / 1e3));
  }
}

void PerLayer::AddLoad(const LoadStats& load) {
  const double queries = static_cast<double>(std::max<uint64_t>(1, load.attempted));
  Set("proc.cpu_ms_per_query",
      (load.usage_after.cpu_ms - load.usage_before.cpu_ms) / queries);
  Set("proc.ctx_switches_per_query",
      (load.usage_after.ctx_switches - load.usage_before.ctx_switches) / queries);
  if (!load.queue_wait_after.empty()) {
    Set("server.queue_wait_us_p50",
        BucketDeltaQuantile(load.queue_wait_before, load.queue_wait_after, 0.5));
    Set("server.queue_wait_us_p99",
        BucketDeltaQuantile(load.queue_wait_before, load.queue_wait_after, 0.99));
  }
  Set("run.failed_ratio",
      static_cast<double>(load.failed) / queries);
}

void PerLayer::AddLayers(const std::vector<LayerSample>& samples,
                         const LoadStats* traced) {
  const double n = static_cast<double>(samples.size());
  if (samples.empty()) return;
  auto mean = [&](double LayerSample::*field) {
    double sum = 0;
    for (const LayerSample& s : samples) sum += s.*field;
    return sum / n;
  };
  auto sum = [&](double LayerSample::*field) {
    double total = 0;
    for (const LayerSample& s : samples) total += s.*field;
    return total;
  };
  Set("store.route_us", mean(&LayerSample::route_us));
  Set("store.merge_us", mean(&LayerSample::merge_us));
  Set("store.fanout_overhead_us", mean(&LayerSample::fanout_overhead_us));
  Set("store.parallel_efficiency", mean(&LayerSample::parallel_efficiency));
  if (sum(&LayerSample::rows) > 0) {
    Set("store.rows_examined_per_row",
        sum(&LayerSample::rows_examined) / sum(&LayerSample::rows));
  }
  Set("store.rows_pruned", mean(&LayerSample::rows_pruned));
  Set("query.parse_us", mean(&LayerSample::parse_us));
  Set("query.path_match_us", mean(&LayerSample::path_match_us));
  Set("query.execute_us", mean(&LayerSample::execute_us));
  Set("query.self_us", mean(&LayerSample::self_us));
  Set("query.render_us", mean(&LayerSample::render_us));
  Set("text.search_us", mean(&LayerSample::search_us));
  if (sum(&LayerSample::terms) > 0) {
    Set("text.hits_per_term", sum(&LayerSample::hits) / sum(&LayerSample::terms));
  }
  Set("core.meet_us", mean(&LayerSample::meet_us));
  double seeded = 0, lifts = 0, found = 0, materialized = 0;
  for (const LayerSample& s : samples) {
    seeded += static_cast<double>(s.meet_stats.items_seeded);
    lifts += static_cast<double>(s.meet_stats.lifts);
    found += static_cast<double>(s.meet_stats.meets_found);
    materialized += static_cast<double>(s.meet_stats.meets_materialized);
  }
  Set("core.items_seeded", seeded);
  Set("core.lifts", lifts);
  Set("core.meets_found", found);
  Set("core.meets_materialized", materialized);
  if (sum(&LayerSample::search_us) > 0) {
    Set("core.meet_share_of_search",
        sum(&LayerSample::meet_us) / sum(&LayerSample::search_us));
  }
  if (traced == nullptr) return;
  Set("server.dispatch_us",
      mean(&LayerSample::handle_us) - mean(&LayerSample::execute_text_us));
  Set("server.reply_bytes", mean(&LayerSample::reply_bytes));
  Set("server.client_codec_us", Median(traced->codec_us));
  Set("server.transport_us", mean(&LayerSample::transport_us));
}

double TraceOverheadPct(const LoadStats& load) {
  // Compared class by class: a workload median over a mix of classes
  // moves with the mix alone.
  std::vector<std::vector<double>> plain, traced;
  for (size_t i = 0; i < load.latency_ms.size(); ++i) {
    if (load.klass[i] >= plain.size()) plain.resize(load.klass[i] + 1);
    plain[load.klass[i]].push_back(load.latency_ms[i]);
  }
  for (size_t i = 0; i < load.traced_latency_ms.size(); ++i) {
    if (load.traced_klass[i] >= traced.size()) traced.resize(load.traced_klass[i] + 1);
    traced[load.traced_klass[i]].push_back(load.traced_latency_ms[i]);
  }
  std::vector<double> ratios;
  for (size_t c = 0; c < std::min(plain.size(), traced.size()); ++c) {
    const double base = Median(plain[c]);
    if (base > 0 && !traced[c].empty()) {
      ratios.push_back((Median(traced[c]) - base) / base * 100.0);
    }
  }
  return Mean(ratios);
}

double ClassQuantile(const LoadStats& load, size_t klass, double q) {
  std::vector<double> values;
  for (size_t i = 0; i < load.latency_ms.size(); ++i) {
    if (load.klass[i] == klass) values.push_back(load.latency_ms[i]);
  }
  return Quantile(std::move(values), q);
}

void PrintClasses(const std::vector<std::string>& class_names,
                  const LoadStats& load) {
  std::printf("# per-class latency (ms): class  n  p50  p99\n");
  for (size_t c = 0; c < class_names.size(); ++c) {
    size_t count = 0;
    for (size_t k : load.klass) count += k == c ? 1 : 0;
    std::printf("#   %-12s %7zu %10.4f %10.4f\n", class_names[c].c_str(), count,
                ClassQuantile(load, c, 0.5), ClassQuantile(load, c, 0.99));
  }
}

}  // namespace perfbench
