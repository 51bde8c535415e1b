#include "fixture.h"

#include <filesystem>
#include <utility>

#include "model/shredder.h"
#include "text/search.h"

namespace perfbench {

using mx::util::Result;
using mx::util::Status;
namespace server = mx::server;
namespace store = mx::store;

Result<Corpus> GenerateCorpus(const std::vector<std::string>& names,
                              const std::vector<mx::data::DblpOptions>& options) {
  Corpus corpus;
  corpus.names = names;
  for (const mx::data::DblpOptions& one : options) {
    MEETXML_ASSIGN_OR_RETURN(std::string xml, mx::data::GenerateDblpXml(one));
    corpus.xml_bytes += xml.size();
    corpus.xml.push_back(std::move(xml));
  }
  return corpus;
}

mx::data::DblpOptions SmallDblp(uint64_t seed) {
  mx::data::DblpOptions options;
  options.seed = seed;
  options.start_year = 1995;
  options.end_year = 1999;
  options.icde_papers_per_year = 8;
  options.other_papers_per_year = 24;
  options.journal_articles_per_year = 8;
  return options;
}

Status Ingest(store::Catalog* catalog, const std::string& path,
              const Corpus& corpus, size_t first, size_t count,
              IngestStats* stats, SpanLog* spans, size_t parent,
              uint64_t request) {
  for (size_t i = first; i < first + count; ++i) {
    const double start = NowUs();
    MEETXML_ASSIGN_OR_RETURN(mx::model::StoredDocument doc,
                             mx::model::ShredXmlText(corpus.xml[i]));
    const double shredded = NowUs();
    MEETXML_RETURN_NOT_OK(catalog->Add(corpus.names[i], std::move(doc)).status());
    const double added = NowUs();
    store::CatalogSaveStats save_stats;
    store::CatalogSaveOptions save_options;
    save_options.in_place = true;
    save_options.stats = &save_stats;
    MEETXML_RETURN_NOT_OK(catalog->SaveToFile(path, save_options));
    const double saved = NowUs();
    if (spans != nullptr) {
      spans->Add("model.ShredXmlText", start, shredded, parent, request);
      spans->Add("store.Catalog::Add", shredded, added, parent, request);
      spans->Add("store.Catalog::SaveToFile", added, saved, parent, request);
    }
    stats->ingest_ms.push_back((saved - start) / 1e3);
    stats->save_ms.push_back((saved - added) / 1e3);
    stats->shred_ms_total += (shredded - start) / 1e3;
    stats->xml_bytes += static_cast<double>(corpus.xml[i].size());
    // A save that could not append rewrote the whole file.
    stats->bytes_appended_total += static_cast<double>(
        save_stats.in_place ? save_stats.bytes_appended : save_stats.file_size);
    stats->saves += 1;
  }
  return Status::OK();
}

store::CatalogLoadOptions LazyViewOpen() {
  store::CatalogLoadOptions options;
  options.mode = mx::model::LoadMode::kView;
  options.lazy = true;
  return options;
}

mx::query::ExecuteOptions ServiceExecuteOptions() {
  mx::query::ExecuteOptions options;
  uint64_t cap = server::SessionOptions{}.max_result_bytes;
  if (cap == 0 || cap > server::kMaxQueryTableBytes) {
    cap = server::kMaxQueryTableBytes;
  }
  options.limit_hint = static_cast<size_t>(cap / 2);
  return options;
}

Stack::~Stack() {
  if (server != nullptr) server->Stop();
  if (service != nullptr) service->Shutdown();
  server.reset();
  service.reset();
  catalog.reset();
}

Result<Stack> OpenStack(const std::string& path, bool serve,
                        SetupStats* stats) {
  Stack stack;
  double start = NowUs();
  MEETXML_ASSIGN_OR_RETURN(store::Catalog catalog,
                           store::Catalog::LoadFromFile(path, LazyViewOpen()));
  double opened = NowUs();
  stack.catalog = std::make_unique<store::Catalog>(std::move(catalog));
  MEETXML_RETURN_NOT_OK(stack.catalog->Warm(/*build_text_indexes=*/true));
  double warmed = NowUs();
  if (serve) {
    server::ServiceOptions service_options;
    service_options.queue_cap = 256;  // meetxmld's default admission cap
    stack.service = std::make_unique<server::QueryService>(
        stack.catalog.get(), std::move(service_options));
    MEETXML_ASSIGN_OR_RETURN(stack.server,
                             server::TcpServer::Start(stack.service.get()));
    stack.port = stack.server->port();
    MEETXML_ASSIGN_OR_RETURN(WireClient probe, WireClient::Connect(stack.port));
    (void)probe;
  }
  double ready = NowUs();
  stats->setup_s.push_back((ready - start) / 1e6);
  stats->open_ms.push_back((opened - start) / 1e3);
  stats->warm_ms.push_back((warmed - opened) / 1e3);
  return stack;
}

Result<Stack> RepeatedSetup(const std::string& path, bool serve, int repeats,
                            SetupStats* stats) {
  MEETXML_RETURN_NOT_OK(SampleSetups(path, serve, repeats - 1, stats));
  return OpenStack(path, serve, stats);
}

Status SampleSetups(const std::string& path, bool serve, int repeats,
                    SetupStats* stats) {
  for (int i = 0; i < repeats; ++i) {
    MEETXML_ASSIGN_OR_RETURN(Stack discarded, OpenStack(path, serve, stats));
  }
  return Status::OK();
}

Result<Expected> ExpectReply(const store::Catalog& catalog,
                             const std::string& scope, const std::string& query,
                             const mx::query::ExecuteOptions& base) {
  mx::query::ExecuteOptions options = base;
  options.merge_threads = 1;
  store::MultiExecutor executor(&catalog);
  MEETXML_ASSIGN_OR_RETURN(store::MultiResult result,
                           executor.ExecuteText(scope, query, options));
  return ExpectedOf(result);
}

Expected ExpectedOf(const store::MultiResult& result) {
  std::string table = result.ToText();
  Expected expected;
  expected.rows = result.rows.size();
  expected.truncated = result.truncated;
  expected.table_bytes = table.size();
  expected.table_hash = HashBytes(table);
  return expected;
}

Status ColdQueries(const std::string& path, const std::string& scope,
                   const std::string& query,
                   const mx::query::ExecuteOptions& options,
                   const Expected& expected, int repeats,
                   std::vector<double>* cold_ms, uint64_t* mismatches) {
  for (int i = 0; i < repeats; ++i) {
    double start = NowUs();
    MEETXML_ASSIGN_OR_RETURN(store::Catalog catalog,
                             store::Catalog::LoadFromFile(path, LazyViewOpen()));
    store::MultiExecutor executor(&catalog);
    MEETXML_ASSIGN_OR_RETURN(store::MultiResult result,
                             executor.ExecuteText(scope, query, options));
    cold_ms->push_back((NowUs() - start) / 1e3);
    if (!(ExpectedOf(result) == expected)) *mismatches += 1;
  }
  return Status::OK();
}

Result<double> FirstTouchMs(const std::string& path, int repeats) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    MEETXML_ASSIGN_OR_RETURN(store::Catalog catalog,
                             store::Catalog::LoadFromFile(path, LazyViewOpen()));
    for (const store::NamedDocument* entry : catalog.entries()) {
      double start = NowUs();
      MEETXML_RETURN_NOT_OK(catalog.ExecutorFor(entry->name).status());
      samples.push_back((NowUs() - start) / 1e3);
    }
  }
  return Median(std::move(samples));
}

Result<double> IndexBuildMs(const store::Catalog& catalog, size_t max_docs) {
  std::vector<double> samples;
  for (const store::NamedDocument* entry : catalog.entries()) {
    if (samples.size() >= max_docs) break;
    MEETXML_ASSIGN_OR_RETURN(const mx::model::StoredDocument* doc,
                             catalog.Get(entry->name));
    double start = NowUs();
    MEETXML_RETURN_NOT_OK(mx::text::FullTextSearch::Build(*doc).status());
    samples.push_back((NowUs() - start) / 1e3);
  }
  return Median(std::move(samples));
}

Status ResetDirectory(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
  std::filesystem::create_directories(path, error);
  if (error) return Status::Internal("cannot create ", path, ": ", error.message());
  return Status::OK();
}

}  // namespace perfbench
