// ingest_reopen: writes beside reads on the catalog and model layers.
// Each cycle shreds a new DBLP document from XML text, adds it to the
// catalog and saves the image in place, reopens the image lazily in
// view mode, and runs the first query over `*`, which touches every
// entry. Rounds of kRoundDocs cycles restart from a copy of the base
// image, so every round walks the same catalog states.
//
// A cycle's latency is its reader's side: lazy reopen to the first
// answer over the freshly saved image. The writer's side, XML text to
// durably saved, is ingest_ms (p50). The save ends in fsyncs, whose
// tail on a shared disk is set by the neighbours' I/O, not by this
// program.

#include <filesystem>

#include "model/shredder.h"
#include "store/multi_executor.h"
#include "workloads.h"

namespace perfbench {

using mx::util::Result;
using mx::util::Status;
namespace store = mx::store;

namespace {

constexpr size_t kBaseDocs = 4;
constexpr size_t kRoundDocs = 4;
constexpr const char* kQuery =
    "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b WHERE a CONTAINS "
    "'ICDE' AND b CONTAINS '1999' EXCLUDE dblp LIMIT 10";

struct CycleStats {
  LoadStats load;  // one request per cycle: lazy reopen through first answer
  IngestStats ingest;
  double round_image_ratio = 0;  // image bytes / XML bytes after a round
};

// Runs cycles for kWarmupS + seconds and records the timed ones. With
// `spans`, every other round is traced.
Status RunCycles(const std::string& base, const std::string& work,
                 const Corpus& corpus, const std::vector<Expected>& expected,
                 double seconds, SpanLog* spans, uint64_t* next_request,
                 CycleStats* out) {
  const double start = NowUs();
  const double timed_from = start + kWarmupS * 1e6;
  const double end = timed_from + seconds * 1e6;
  double base_xml = 0;
  for (size_t i = 0; i < kBaseDocs; ++i) {
    base_xml += static_cast<double>(corpus.xml[i].size());
  }
  bool timing = false;
  double first = 0;
  double last = 0;
  for (size_t round = 0; NowUs() < end; ++round) {
    const bool traced = spans != nullptr && round % 2 == 1;
    SpanLog* log = traced ? spans : nullptr;
    std::filesystem::copy_file(base, work,
                               std::filesystem::copy_options::overwrite_existing);
    MEETXML_ASSIGN_OR_RETURN(store::Catalog catalog,
                             store::Catalog::LoadFromFile(work, LazyViewOpen()));
    double live_xml = base_xml;
    for (size_t k = 0; k < kRoundDocs && NowUs() < end; ++k) {
      const double t0 = NowUs();
      if (!timing && t0 >= timed_from) {
        timing = true;
        first = t0;
        out->load.usage_before = ReadUsage();
      }
      const uint64_t request = (*next_request)++;
      const size_t root =
          traced ? spans->Add("ingest.cycle", t0, t0, SpanLog::kNoParent, request) : 0;
      IngestStats discarded;
      IngestStats* ingest = timing && !traced ? &out->ingest : &discarded;
      MEETXML_RETURN_NOT_OK(Ingest(&catalog, work, corpus, kBaseDocs + k, 1,
                                   ingest, log, root, request));
      const double ingested = NowUs();
      MEETXML_ASSIGN_OR_RETURN(store::Catalog reopened,
                               store::Catalog::LoadFromFile(work, LazyViewOpen()));
      const double reopened_at = NowUs();
      store::MultiExecutor executor(&reopened);
      MEETXML_ASSIGN_OR_RETURN(store::MultiResult result,
                               executor.ExecuteText("*", kQuery));
      const double t1 = NowUs();
      if (traced) {
        spans->Add("store.Catalog::LoadFromFile", ingested, reopened_at, root, request);
        spans->Add("store.MultiExecutor::ExecuteText", reopened_at, t1, root, request);
        spans->SetEnd(root, t1);
      }
      const bool ok = ExpectedOf(result) == expected[k];
      catalog = std::move(reopened);
      live_xml += static_cast<double>(corpus.xml[kBaseDocs + k].size());
      if (k + 1 == kRoundDocs && out->round_image_ratio == 0) {
        out->round_image_ratio =
            static_cast<double>(std::filesystem::file_size(work)) / live_xml;
      }
      if (!timing) continue;
      out->load.attempted += 1;
      if (!ok) {
        out->load.failed += 1;
        continue;
      }
      if (traced) {
        out->load.traced_latency_ms.push_back((t1 - ingested) / 1e3);
        out->load.traced_klass.push_back(0);
        last = t1;
        continue;
      }
      out->load.latency_ms.push_back((t1 - ingested) / 1e3);
      out->load.klass.push_back(0);
      out->load.done_s.push_back((t1 - first) / 1e6);
      last = t1;
    }
  }
  if (!timing || out->round_image_ratio == 0) {
    return Status::Internal("ingest_reopen completed no full round in the window");
  }
  out->load.usage_after = ReadUsage();
  out->load.window_s = (last - first) / 1e6;
  return Status::OK();
}

}  // namespace

Result<RunOutput> RunIngestReopen(const Options& options) {
  const std::string dir = options.workdir + "/ingest_reopen";
  MEETXML_RETURN_NOT_OK(ResetDirectory(dir));
  std::vector<std::string> names;
  std::vector<mx::data::DblpOptions> dblp;
  for (size_t i = 0; i < kBaseDocs + kRoundDocs; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "%s_%02zu", i < kBaseDocs ? "base" : "new",
                  i < kBaseDocs ? i : i - kBaseDocs);
    names.push_back(name);
    dblp.push_back(SmallDblp(options.seed * 1000 + 500 + i));
  }
  MEETXML_ASSIGN_OR_RETURN(Corpus corpus, GenerateCorpus(names, dblp));

  const std::string base = dir + "/base.mxm";
  const std::string work = dir + "/work.mxm";
  IngestStats base_ingest;
  {
    store::Catalog catalog;
    MEETXML_RETURN_NOT_OK(Ingest(&catalog, base, corpus, 0, kBaseDocs, &base_ingest));
  }

  // Expected first answers of every catalog state a round walks, from a
  // serial in-process run over an in-memory catalog.
  std::vector<Expected> expected;
  {
    store::Catalog memory;
    for (size_t i = 0; i < kBaseDocs + kRoundDocs; ++i) {
      MEETXML_ASSIGN_OR_RETURN(mx::model::StoredDocument doc,
                               mx::model::ShredXmlText(corpus.xml[i]));
      MEETXML_RETURN_NOT_OK(memory.Add(names[i], std::move(doc)).status());
      if (i < kBaseDocs) continue;
      MEETXML_ASSIGN_OR_RETURN(Expected one, ExpectReply(memory, "*", kQuery, {}));
      expected.push_back(one);
    }
  }

  // Set-ups are sampled before and after the cycles.
  EndToEnd e2e;
  SetupStats setup;
  MEETXML_RETURN_NOT_OK(SampleSetups(base, false, kSetups, &setup));

  Outcome outcome;
  uint64_t next_request = 1;
  if (!options.trace) {
    CycleStats cycles;
    MEETXML_RETURN_NOT_OK(RunCycles(base, work, corpus, expected, options.seconds,
                                    nullptr, &next_request, &cycles));
    MEETXML_RETURN_NOT_OK(SampleSetups(base, false, kSetups, &setup));
    e2e.setup_s = Median(setup.setup_s);
    AddLatency(cycles.load, &e2e);
    e2e.ingest_ms = Median(cycles.ingest.ingest_ms);
    e2e.cold_query_ms = Median(cycles.load.latency_ms);
    e2e.image_bytes_per_xml_byte = cycles.round_image_ratio;
    outcome.attempted = cycles.load.attempted;
    outcome.failed = cycles.load.failed;
    outcome.correct = outcome.failed == 0;
    e2e.ok_ratio = 1.0 - static_cast<double>(outcome.failed) /
                             static_cast<double>(outcome.attempted);
    e2e.peak_rss_mb = ReadUsage().max_rss_mb;
    std::printf("# %zu cycles of shred -> add -> save in place -> lazy reopen "
                "-> first query over *, %.1f s warm-up discarded\n",
                cycles.load.latency_ms.size(), kWarmupS);
    return RunOutput{outcome, EndToEndMetrics(e2e)};
  }

  SpanLog spans;
  CycleStats cycles;
  MEETXML_RETURN_NOT_OK(RunCycles(base, work, corpus, expected, options.seconds,
                                  &spans, &next_request, &cycles));
  MEETXML_RETURN_NOT_OK(SampleSetups(base, false, kSetups, &setup));
  MEETXML_ASSIGN_OR_RETURN(store::Catalog final_state,
                           store::Catalog::LoadFromFile(work, LazyViewOpen()));
  MEETXML_ASSIGN_OR_RETURN(
      LayerSample sample,
      Decompose(final_state, nullptr, 0, "*", kQuery, {}, kLedgerReps, &spans,
                &next_request));
  PerLayer layers;
  layers.AddSetup(setup);
  layers.AddIngest(cycles.ingest);
  layers.AddLoad(cycles.load);
  layers.AddLayers({sample}, nullptr);
  MEETXML_ASSIGN_OR_RETURN(double first_touch, FirstTouchMs(work, 1));
  layers.Set("store.first_touch_ms", first_touch);
  MEETXML_ASSIGN_OR_RETURN(double index_build, IndexBuildMs(final_state, 8));
  layers.Set("text.index_build_ms", index_build);
  layers.Set("obs.trace_overhead_pct", TraceOverheadPct(cycles.load));
  layers.Set("obs.spans_recorded", static_cast<double>(spans.size()));
  layers.Set("load.warmup_s", kWarmupS);
  MEETXML_RETURN_NOT_OK(WriteSpans(options, spans));
  outcome.attempted = cycles.load.attempted;
  outcome.failed = cycles.load.failed;
  outcome.correct = outcome.failed == 0;
  return RunOutput{outcome, layers.Metrics()};
}

}  // namespace perfbench
