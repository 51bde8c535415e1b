// case_study: the paper's Fig. 7 served over TCP. One client in a closed
// loop asks "ICDE publications in [y, 1999]" for y = 1999 ... 1984 (no
// LIMIT) against one DBLP document, the way an analyst waits on each
// answer. The meet roll-up, text search, row formatting and the reply
// codec carry the work; fan-out, merge and admission do none.

#include <filesystem>

#include "workloads.h"

namespace perfbench {

using mx::util::Result;
using mx::util::Status;

namespace {

constexpr int kFirstYear = 1984;
// Samples per half (before / after the load phase).
constexpr int kIngests = 16;
constexpr int kColdQueries = 16;
constexpr int kLastYear = 1999;

// MEET over one "ICDE" binding and one binding per year of the interval.
std::string IntervalQuery(int from_year) {
  // append() throughout: operator+ on rvalue strings trips a GCC 12
  // -Wrestrict false positive under -Werror.
  std::string vars = "i";
  std::string bindings = "dblp//cdata i";
  std::string where = "i CONTAINS 'ICDE'";
  for (int year = kLastYear; year >= from_year; --year) {
    const std::string y = std::to_string(year);
    vars.append(", y").append(y);
    bindings.append(", dblp//cdata y").append(y);
    where.append(" AND y").append(y).append(" CONTAINS '").append(y).append("'");
  }
  std::string query = "SELECT MEET(";
  query.append(vars).append(") FROM ").append(bindings);
  query.append(" WHERE ").append(where).append(" EXCLUDE dblp");
  return query;
}

}  // namespace

Result<RunOutput> RunCaseStudy(const Options& options) {
  const std::string dir = options.workdir + "/case_study";
  MEETXML_RETURN_NOT_OK(ResetDirectory(dir));
  mx::data::DblpOptions dblp;
  dblp.seed = options.seed;
  dblp.start_year = kFirstYear;
  dblp.end_year = kLastYear;
  dblp.icde_papers_per_year = 75;
  dblp.other_papers_per_year = 150;
  dblp.journal_articles_per_year = 60;
  MEETXML_ASSIGN_OR_RETURN(Corpus corpus, GenerateCorpus({"dblp"}, {dblp}));

  // Ingest (the one document into a fresh image), set-up and the cold
  // query are sampled before and after the load phase, so their medians
  // span the run.
  EndToEnd e2e;
  IngestStats ingest;
  int images = 0;
  std::string image;
  auto ingest_samples = [&]() -> Status {
    for (int i = 0; i < kIngests; ++i) {
      image = dir + "/image" + std::to_string(images++) + ".mxm";
      mx::store::Catalog catalog;
      MEETXML_RETURN_NOT_OK(Ingest(&catalog, image, corpus, 0, 1, &ingest));
    }
    return Status::OK();
  };
  MEETXML_RETURN_NOT_OK(ingest_samples());
  e2e.image_bytes_per_xml_byte =
      static_cast<double>(std::filesystem::file_size(image)) /
      static_cast<double>(corpus.xml_bytes);

  SetupStats setup;
  MEETXML_ASSIGN_OR_RETURN(Stack stack, RepeatedSetup(image, true, kSetups, &setup));

  // Expected replies from a serial in-process run, and every meet
  // cross-checked against the relational meet.
  Outcome outcome;
  const mx::query::ExecuteOptions service_options = ServiceExecuteOptions();
  std::vector<RequestKind> kinds;
  std::vector<std::string> classes;
  for (int year = kLastYear; year >= kFirstYear; --year) {
    RequestKind kind;
    kind.scope = "*";
    kind.query = IntervalQuery(year);
    kind.klass = kinds.size();
    MEETXML_ASSIGN_OR_RETURN(
        kind.expected,
        ExpectReply(*stack.catalog, kind.scope, kind.query, service_options));
    MEETXML_ASSIGN_OR_RETURN(size_t meets,
                             CrossCheckMeets(*stack.catalog, "dblp", kind.query));
    outcome.attempted += 1;
    if (meets != kind.expected.rows || meets == 0) {
      outcome.failed += 1;
      outcome.correct = false;
    }
    kinds.push_back(std::move(kind));
    classes.push_back("y" + std::to_string(year));
  }

  std::vector<double> cold_ms;
  uint64_t cold_mismatches = 0;
  auto cold_samples = [&]() {
    return ColdQueries(image, "*", kinds.front().query, service_options,
                       kinds.front().expected, kColdQueries, &cold_ms,
                       &cold_mismatches);
  };
  MEETXML_RETURN_NOT_OK(cold_samples());
  auto after_load = [&]() -> Status {
    MEETXML_RETURN_NOT_OK(ingest_samples());
    MEETXML_RETURN_NOT_OK(SampleSetups(image, true, kSetups, &setup));
    MEETXML_RETURN_NOT_OK(cold_samples());
    e2e.ingest_ms = Median(ingest.ingest_ms);
    e2e.setup_s = Median(setup.setup_s);
    e2e.cold_query_ms = Median(cold_ms);
    outcome.attempted += cold_ms.size();
    outcome.failed += cold_mismatches;
    return Status::OK();
  };

  // One analyst: the intervals in order, 1999 first, over and over.
  std::vector<size_t> in_order(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) in_order[i] = i;
  uint64_t next_request = 1;
  if (!options.trace) {
    LoadStats load;
    MEETXML_RETURN_NOT_OK(ClosedLoop(stack.port, kinds, in_order, 1, kWarmupS,
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

  // Traced run: traced and untraced rounds interleave in one phase,
  // then the in-process decomposition of every distinct request.
  SpanLog spans;
  LoadStats load;
  MEETXML_RETURN_NOT_OK(ClosedLoop(stack.port, kinds, in_order, 1, kWarmupS,
                                   options.seconds, &spans, &next_request, &load));
  MEETXML_RETURN_NOT_OK(after_load());
  PrintClasses(classes, load);
  std::vector<LayerSample> samples;
  std::vector<double> output_rows;
  std::vector<double> meet_us;
  for (const RequestKind& kind : kinds) {
    MEETXML_ASSIGN_OR_RETURN(
        LayerSample sample,
        Decompose(*stack.catalog, stack.service.get(), stack.port, kind.scope, kind.query,
                  service_options, kLedgerReps, &spans, &next_request));
    output_rows.push_back(sample.meet_rows);
    meet_us.push_back(sample.meet_us);
    samples.push_back(sample);
  }

  PerLayer layers;
  layers.AddSetup(setup);
  layers.AddIngest(ingest);
  layers.AddLoad(load);
  layers.AddLayers(samples, &load);
  MEETXML_ASSIGN_OR_RETURN(double first_touch, FirstTouchMs(image, 5));
  layers.Set("store.first_touch_ms", first_touch);
  MEETXML_ASSIGN_OR_RETURN(double index_build, IndexBuildMs(*stack.catalog, 1));
  layers.Set("text.index_build_ms", index_build);
  LineFit fig7 = FitLine(output_rows, meet_us);
  layers.Set("core.meet_us_per_output_row", fig7.slope);
  layers.Set("core.fig7_r2", fig7.r2);
  layers.Set("obs.trace_overhead_pct", TraceOverheadPct(load));
  layers.Set("obs.spans_recorded", static_cast<double>(spans.size()));
  layers.Set("load.warmup_s", kWarmupS);
  for (size_t c = 0; c < classes.size(); ++c) {
    layers.Set("class." + classes[c] + "_p50_ms", ClassQuantile(load, c, 0.5));
  }
  std::printf("# fig7: meet_us = %.4f us/row x rows + %.1f us, R^2 %.4f\n",
              fig7.slope, fig7.intercept, fig7.r2);
  MEETXML_RETURN_NOT_OK(WriteSpans(options, spans));
  outcome.attempted += load.attempted;
  outcome.failed += load.failed;
  outcome.correct = outcome.correct && outcome.failed == 0;
  return RunOutput{outcome, layers.Metrics()};
}

}  // namespace perfbench
