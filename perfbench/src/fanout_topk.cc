// fanout_topk: concurrent users against a 32-document catalog. Ranked
// `MEET ... LIMIT 10` queries go to scope `*` and to the name glob
// `dblp_1*` (10 documents). Per-document meets are tiny, so routing,
// per-query thread start-up, the k-bounded merge, rank-ceiling pruning
// and the worker queue carry the work.
//
// The end-to-end figures come from four closed-loop clients. An open
// loop (one sender, pipelined connections, latency from each request's
// due time) is what independent users look like, but on a shared host
// its p99 is set by host stalls hitting about 1% of requests and swung
// 2-5x from run to run; it runs in the traced pass instead, where its
// percentiles, the sender's lateness and its validity are reported.

#include <algorithm>
#include <filesystem>
#include <random>

#include "workloads.h"

namespace perfbench {

using mx::util::Result;
using mx::util::Status;

namespace {

constexpr int kDocuments = 32;
/// Closed-loop clients of the end-to-end pass.
constexpr int kClients = 4;
/// Arrival rate of the traced open loop (requests per second) and its
/// pipelined connections.
constexpr double kRate = 120;
constexpr int kConnections = 4;
constexpr const char* kGlob = "dblp_1*";
// Cold queries before and again after the load phase.
constexpr int kColdQueries = 10;

std::string TopKQuery(const std::string& venue, int year) {
  return "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b WHERE a "
         "CONTAINS '" + venue + "' AND b CONTAINS '" + std::to_string(year) +
         "' EXCLUDE dblp LIMIT 10";
}

}  // namespace

Result<RunOutput> RunFanoutTopk(const Options& options) {
  const std::string dir = options.workdir + "/fanout_topk";
  MEETXML_RETURN_NOT_OK(ResetDirectory(dir));
  std::vector<std::string> names;
  std::vector<mx::data::DblpOptions> dblp;
  for (int i = 0; i < kDocuments; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "dblp_%02d", i);
    names.push_back(name);
    dblp.push_back(SmallDblp(options.seed * 1000 + static_cast<uint64_t>(i)));
  }
  MEETXML_ASSIGN_OR_RETURN(Corpus corpus, GenerateCorpus(names, dblp));

  // Ingest, set-up and the cold query are sampled before and after the
  // load phase, so their medians span the run.
  EndToEnd e2e;
  IngestStats ingest;
  const std::string image = dir + "/image.mxm";
  {
    mx::store::Catalog catalog;
    MEETXML_RETURN_NOT_OK(Ingest(&catalog, image, corpus, 0, names.size(), &ingest));
  }
  e2e.image_bytes_per_xml_byte =
      static_cast<double>(std::filesystem::file_size(image)) /
      static_cast<double>(corpus.xml_bytes);

  SetupStats setup;
  MEETXML_ASSIGN_OR_RETURN(Stack stack, RepeatedSetup(image, true, kSetups, &setup));

  const mx::query::ExecuteOptions service_options = ServiceExecuteOptions();
  const std::vector<std::string> classes = {"scope_all", "scope_glob"};
  std::vector<RequestKind> kinds;
  for (const char* venue : {"ICDE", "SIGMOD", "VLDB"}) {
    for (int year = 1995; year <= 1999; ++year) {
      for (size_t klass = 0; klass < classes.size(); ++klass) {
        RequestKind kind;
        kind.scope = klass == 0 ? "*" : kGlob;
        kind.query = TopKQuery(venue, year);
        kind.klass = klass;
        MEETXML_ASSIGN_OR_RETURN(
            kind.expected,
            ExpectReply(*stack.catalog, kind.scope, kind.query, service_options));
        kinds.push_back(std::move(kind));
      }
    }
  }
  // The arrival mix, drawn from the seed: three in four requests scope
  // `*`, the rest the glob, each a uniform pick among its class's kinds.
  // An even split would put the workload median in the gap between the
  // two classes' latencies, where it jumps with the sampled mix.
  std::mt19937_64 rng(options.seed);
  std::vector<size_t> sequence(4096);
  for (size_t& pick : sequence) {
    const size_t klass = rng() % 4 == 0 ? 1 : 0;
    pick = 2 * (rng() % (kinds.size() / 2)) + klass;
  }

  Outcome outcome;
  std::vector<double> cold_ms;
  uint64_t cold_mismatches = 0;
  auto cold_samples = [&]() {
    return ColdQueries(image, kinds.front().scope, kinds.front().query,
                       service_options, kinds.front().expected, kColdQueries,
                       &cold_ms, &cold_mismatches);
  };
  MEETXML_RETURN_NOT_OK(cold_samples());
  auto after_load = [&]() -> Status {
    mx::store::Catalog again;
    MEETXML_RETURN_NOT_OK(
        Ingest(&again, dir + "/again.mxm", corpus, 0, names.size(), &ingest));
    MEETXML_RETURN_NOT_OK(SampleSetups(image, true, kSetups, &setup));
    MEETXML_RETURN_NOT_OK(cold_samples());
    e2e.ingest_ms = Median(ingest.ingest_ms);
    e2e.setup_s = Median(setup.setup_s);
    e2e.cold_query_ms = Median(cold_ms);
    outcome.attempted += cold_ms.size();
    outcome.failed += cold_mismatches;
    return Status::OK();
  };

  uint64_t next_request = 1;
  if (!options.trace) {
    LoadStats load;
    MEETXML_RETURN_NOT_OK(ClosedLoop(stack.port, kinds, sequence, kClients, kWarmupS,
                                     options.seconds, nullptr, &next_request,
                                     &load));
    MEETXML_RETURN_NOT_OK(after_load());
    PrintClasses(classes, load);
    AddLatency(load, &e2e);
    outcome.attempted += load.attempted;
    outcome.failed += load.failed;
    outcome.correct = outcome.correct && outcome.failed == 0;
    e2e.ok_ratio = 1.0 - static_cast<double>(outcome.failed) /
                             static_cast<double>(outcome.attempted);
    e2e.peak_rss_mb = ReadUsage().max_rss_mb;
    return RunOutput{outcome, EndToEndMetrics(e2e)};
  }

  SpanLog spans;
  LoadStats load;
  MEETXML_RETURN_NOT_OK(ClosedLoop(stack.port, kinds, sequence, kClients, kWarmupS,
                                   options.seconds, &spans, &next_request, &load));
  LoadStats open;
  MEETXML_RETURN_NOT_OK(OpenLoop(stack.port, kinds, sequence, kRate, kConnections,
                                 /*quick_ack=*/true, kWarmupS, options.seconds / 2,
                                 nullptr, &next_request, &open));
  // The same schedule from clients that delay their ACKs, as most do:
  // against the server's Nagle-enabled sockets a pipelined connection
  // can lock into holding each reply until the next request carries
  // the ACK, one per-connection period late.
  LoadStats delayed_ack;
  MEETXML_RETURN_NOT_OK(OpenLoop(stack.port, kinds, sequence, kRate, kConnections,
                                 /*quick_ack=*/false, kWarmupS, options.seconds / 2,
                                 nullptr, &next_request, &delayed_ack));
  MEETXML_RETURN_NOT_OK(after_load());
  const bool kept_up = GeneratorKeptUp(open, open.window_s);
  std::printf("# open loop at %.0f/s over %d connections, %.1f s warm-up "
              "discarded; sender late p50 %.4f ms, max %.4f ms; generator "
              "lag p50 %.4f ms -> %s\n",
              kRate, kConnections, kWarmupS, Quantile(open.late_ms, 0.5),
              Quantile(open.late_ms, 1.0), Quantile(open.generator_lag_ms, 0.5),
              kept_up ? "valid" : "INVALID (the generator fell behind)");
  if (!kept_up) outcome.correct = false;
  PrintClasses(classes, load);
  std::vector<LayerSample> samples;
  for (const RequestKind& kind : kinds) {
    MEETXML_ASSIGN_OR_RETURN(
        LayerSample sample,
        Decompose(*stack.catalog, stack.service.get(), stack.port, kind.scope, kind.query,
                  service_options, kLedgerReps, &spans, &next_request));
    samples.push_back(sample);
  }

  PerLayer layers;
  layers.AddSetup(setup);
  layers.AddIngest(ingest);
  layers.AddLoad(load);
  layers.AddLayers(samples, &load);
  MEETXML_ASSIGN_OR_RETURN(double first_touch, FirstTouchMs(image, 1));
  layers.Set("store.first_touch_ms", first_touch);
  MEETXML_ASSIGN_OR_RETURN(double index_build, IndexBuildMs(*stack.catalog, 8));
  layers.Set("text.index_build_ms", index_build);
  layers.Set("obs.trace_overhead_pct", TraceOverheadPct(load));
  layers.Set("obs.spans_recorded", static_cast<double>(spans.size()));
  layers.Set("load.warmup_s", kWarmupS);
  layers.Set("load.open_loop_p50_ms", Quantile(open.latency_ms, 0.5));
  layers.Set("load.open_loop_p99_ms", Quantile(open.latency_ms, 0.99));
  layers.Set("sender.late_p50_ms", Quantile(open.late_ms, 0.5));
  layers.Set("sender.late_max_ms", Quantile(open.late_ms, 1.0));
  layers.Set("sender.generator_lag_p50_ms", Quantile(open.generator_lag_ms, 0.5));
  layers.Set("sender.valid", kept_up ? 1 : 0);
  const double period_ms = 1e3 * kConnections / kRate;
  double stalled = 0;
  for (double ms : delayed_ack.latency_ms) stalled += ms >= period_ms ? 1 : 0;
  layers.Set("server.delayed_ack_stall_pct",
             100.0 * stalled / std::max<double>(1, delayed_ack.latency_ms.size()));
  layers.Set("server.delayed_ack_p99_ms", Quantile(delayed_ack.latency_ms, 0.99));
  for (size_t c = 0; c < classes.size(); ++c) {
    layers.Set("class." + classes[c] + "_p50_ms", ClassQuantile(load, c, 0.5));
    layers.Set("class." + classes[c] + "_p99_ms", ClassQuantile(load, c, 0.99));
  }
  MEETXML_RETURN_NOT_OK(WriteSpans(options, spans));
  outcome.attempted += load.attempted + open.attempted + delayed_ack.attempted;
  outcome.failed += load.failed + open.failed + delayed_ack.failed;
  outcome.correct = outcome.correct && outcome.failed == 0;
  return RunOutput{outcome, layers.Metrics()};
}

}  // namespace perfbench
