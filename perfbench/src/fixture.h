// Inputs and stack set-up shared by the workloads: seeded DBLP corpora
// as XML text, ingest into an image (shred -> Catalog::Add ->
// SaveToFile in place), the serving stack (lazy view-mode open -> Warm
// -> QueryService -> TcpServer, the shape of `meetxmld --warm`), and the
// expected replies every timed answer is checked against.

#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dblp_gen.h"
#include "harness.h"
#include "query/executor.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "store/catalog.h"
#include "store/multi_executor.h"

namespace perfbench {

/// \brief Named XML documents, in catalog (id) order.
struct Corpus {
  std::vector<std::string> names;
  std::vector<std::string> xml;
  size_t xml_bytes = 0;
};

/// \brief Generates one document per (name, options) pair.
mx::util::Result<Corpus> GenerateCorpus(
    const std::vector<std::string>& names,
    const std::vector<mx::data::DblpOptions>& options);

/// \brief A small DBLP document (1995-1999, a few dozen papers per year)
/// — the unit of the fan-out and ingest catalogs.
mx::data::DblpOptions SmallDblp(uint64_t seed);

/// \brief Per-document ingest timings: XML text -> durably saved.
struct IngestStats {
  std::vector<double> ingest_ms;
  std::vector<double> save_ms;
  double shred_ms_total = 0;
  double xml_bytes = 0;
  double bytes_appended_total = 0;  // bytes each save wrote
  size_t saves = 0;
};

/// \brief Ingests documents [first, first + count) of `corpus` one by
/// one into `catalog`, saving the image at `path` in place after every
/// Add. With `spans`, each call is recorded under `parent`.
mx::util::Status Ingest(mx::store::Catalog* catalog, const std::string& path,
                        const Corpus& corpus, size_t first, size_t count,
                        IngestStats* stats, SpanLog* spans = nullptr,
                        size_t parent = SpanLog::kNoParent,
                        uint64_t request = 0);

/// \brief The lazy view-mode open every workload uses.
mx::store::CatalogLoadOptions LazyViewOpen();

/// \brief Execute options as QueryService::HandleQuery derives them
/// under the default session policy (the byte cap's row hint).
mx::query::ExecuteOptions ServiceExecuteOptions();

/// \brief The serving stack over one image.
struct Stack {
  std::unique_ptr<mx::store::Catalog> catalog;
  std::unique_ptr<mx::server::QueryService> service;
  std::unique_ptr<mx::server::TcpServer> server;
  uint16_t port = 0;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&&) = default;
  ~Stack();
};

/// \brief Timings of repeated set-ups: image on disk -> ready.
struct SetupStats {
  std::vector<double> setup_s;
  std::vector<double> open_ms;
  std::vector<double> warm_ms;
};

/// \brief Opens `path` lazily in view mode and warms it (executors and
/// text indexes); with `serve`, also starts the service and the TCP
/// front-end on an ephemeral loopback port and proves it accepts with
/// one HELLO. Appends one sample to `stats`.
mx::util::Result<Stack> OpenStack(const std::string& path, bool serve,
                                  SetupStats* stats);

/// \brief Sets up `repeats` times and keeps the last stack.
mx::util::Result<Stack> RepeatedSetup(const std::string& path, bool serve,
                                      int repeats, SetupStats* stats);
/// \brief Sets up `repeats` times, tearing each stack down again.
mx::util::Status SampleSetups(const std::string& path, bool serve, int repeats,
                              SetupStats* stats);

/// \brief The comparable digest of a merged answer.
Expected ExpectedOf(const mx::store::MultiResult& result);

/// \brief The reply a serial (merge_threads = 1) in-process
/// MultiExecutor run produces for `query` over `scope`.
mx::util::Result<Expected> ExpectReply(const mx::store::Catalog& catalog,
                                       const std::string& scope,
                                       const std::string& query,
                                       const mx::query::ExecuteOptions& base);

/// \brief Lazy reopen -> first answer: opens `path` lazily in view mode
/// and runs `query` over `scope` through a fresh MultiExecutor,
/// `repeats` times. Appends each wall time (ms) to `cold_ms` and counts
/// answers that differ from `expected` in `mismatches`.
mx::util::Status ColdQueries(const std::string& path, const std::string& scope,
                             const std::string& query,
                             const mx::query::ExecuteOptions& options,
                             const Expected& expected, int repeats,
                             std::vector<double>* cold_ms, uint64_t* mismatches);

/// \brief Catalog::ExecutorFor on lazy entries: every entry of `repeats`
/// fresh lazy opens of `path`; returns the median (ms).
mx::util::Result<double> FirstTouchMs(const std::string& path, int repeats);

/// \brief FullTextSearch::Build over up to `max_docs` of the catalog's
/// documents; returns the median (ms).
mx::util::Result<double> IndexBuildMs(const mx::store::Catalog& catalog,
                                      size_t max_docs);

/// \brief Deletes and recreates a directory.
mx::util::Status ResetDirectory(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
