#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>

#include "core/meet_general_relational.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "query/path_match.h"
#include "store/multi_executor.h"
#include "text/search.h"
#include "util/strings.h"
#include "util/threads.h"

namespace perfbench {

using mx::util::Result;
using mx::util::Status;
namespace core = mx::core;
namespace query = mx::query;
namespace server = mx::server;
namespace store = mx::store;

namespace {

// One document's MEET inputs, re-derived through the public layer
// calls the executor makes, each timed.
struct BoundInputs {
  std::vector<core::AssocSet> inputs;
  core::MeetOptions options;
  double path_match_us = 0;
  double search_us = 0;
  double terms = 0;
  double hits = 0;
};

const query::Predicate* ContainsAnchor(const query::Query& q,
                                       const std::string& var) {
  for (const query::BoolExpr& conjunct : q.where) {
    if (conjunct.op == query::BoolExpr::Op::kLeaf &&
        conjunct.leaf.kind == query::Predicate::Kind::kContains &&
        conjunct.leaf.var == var) {
      return &conjunct.leaf;
    }
  }
  return nullptr;
}

// The ledger covers the workloads' query shape: a MEET whose every
// binding carries one bare CONTAINS predicate (the executor's index
// anchor), with optional EXCLUDE / WITHIN / LIMIT.
Result<BoundInputs> BindInputs(const query::Executor& executor,
                               const query::Query& q, size_t row_cap,
                               SpanLog* spans, size_t parent,
                               uint64_t request) {
  if (q.projections.size() != 1 ||
      q.projections.front().kind != query::Projection::Kind::kMeet) {
    return Status::InvalidArgument("the ledger decomposes MEET queries only");
  }
  const mx::model::StoredDocument& doc = executor.doc();
  MEETXML_ASSIGN_OR_RETURN(const mx::text::FullTextSearch* search,
                           executor.TextSearch());
  BoundInputs bound;
  std::vector<std::vector<core::AssocSet>> per_binding(q.bindings.size());
  for (size_t b = 0; b < q.bindings.size(); ++b) {
    const query::Binding& binding = q.bindings[b];
    const query::Predicate* anchor = ContainsAnchor(q, binding.var);
    if (anchor == nullptr) {
      return Status::InvalidArgument("binding ", binding.var,
                                     " has no CONTAINS anchor");
    }
    size_t span = spans->Begin("query.MatchPattern", parent, request);
    MEETXML_ASSIGN_OR_RETURN(std::vector<mx::bat::PathId> paths,
                             query::MatchPattern(doc.paths(), binding.pattern));
    bound.path_match_us += spans->End(span);
    span = spans->Begin("text.FullTextSearch::Search", parent, request);
    MEETXML_ASSIGN_OR_RETURN(
        mx::text::TermMatches matches,
        search->Search(anchor->literal, mx::text::MatchMode::kContains));
    bound.search_us += spans->End(span);
    bound.terms += 1;
    bound.hits += static_cast<double>(matches.total());
    // Verification of the anchor's candidates, as the executor does it.
    std::unordered_set<mx::bat::PathId> wanted(paths.begin(), paths.end());
    for (core::AssocSet& set : matches.sets) {
      if (!wanted.count(set.path) ||
          doc.paths().kind(set.path) == mx::model::StepKind::kElement) {
        continue;
      }
      core::AssocSet kept;
      kept.path = set.path;
      for (mx::bat::Oid owner : set.nodes) {
        for (std::string_view value : doc.StringValuesAt(set.path, owner)) {
          if (mx::util::Contains(value, anchor->literal)) {
            kept.nodes.push_back(owner);
            break;
          }
        }
      }
      if (!kept.nodes.empty()) per_binding[b].push_back(std::move(kept));
    }
  }
  for (const query::PathPattern& exclude : q.excludes) {
    size_t span = spans->Begin("query.MatchPattern", parent, request);
    MEETXML_ASSIGN_OR_RETURN(std::vector<mx::bat::PathId> excluded,
                             query::MatchPattern(doc.paths(), exclude));
    bound.path_match_us += spans->End(span);
    bound.options.excluded_paths.insert(excluded.begin(), excluded.end());
  }
  if (q.within.has_value()) bound.options.max_distance = *q.within;
  bound.options.max_results = row_cap;
  for (const std::string& var : q.projections.front().vars) {
    for (size_t b = 0; b < q.bindings.size(); ++b) {
      if (q.bindings[b].var != var) continue;
      for (const core::AssocSet& set : per_binding[b]) {
        bound.inputs.push_back(set);
      }
    }
  }
  return bound;
}

size_t RowCap(const query::Query& q, const query::ExecuteOptions& options) {
  size_t cap = options.max_rows;
  if (q.limit.has_value()) cap = std::min(cap, static_cast<size_t>(*q.limit));
  if (options.limit_hint > 0) cap = std::min(cap, options.limit_hint);
  return cap;
}

// Everything one repetition measures, before taking medians.
struct RepSample {
  double handle_us = 0, transport_us = 0, execute_text_us = 0, parse_us = 0;
  double multi_wall_us = 0, route_us = 0, merge_us = 0;
  double fanout_overhead_us = 0, parallel_efficiency = 0;
  double execute_us = 0, path_match_us = 0, search_us = 0, meet_us = 0;
  double self_us = 0, render_us = 0, reply_bytes = 0;
};

}  // namespace

Result<LayerSample> Decompose(const store::Catalog& catalog,
                              server::QueryService* service, uint16_t port,
                              const std::string& scope,
                              const std::string& query_text,
                              const query::ExecuteOptions& options, int reps,
                              SpanLog* spans, uint64_t* next_request) {
  store::MultiExecutor multi(&catalog);
  std::unique_ptr<server::QueryService::Connection> connection;
  std::optional<WireClient> wire;
  std::string query_payload;
  if (service != nullptr) {
    MEETXML_ASSIGN_OR_RETURN(WireClient client, WireClient::Connect(port));
    wire.emplace(std::move(client));
    MEETXML_ASSIGN_OR_RETURN(connection, service->Connect());
    server::Request hello;
    hello.opcode = server::Opcode::kHello;
    hello.protocol_version = server::kProtocolVersion;
    connection->HandlePayload(server::EncodeRequest(hello));
    server::Request request;
    request.opcode = server::Opcode::kQuery;
    request.scope = scope;
    request.query = query_text;
    query_payload = server::EncodeRequest(request);
  }
  std::vector<std::string> names = catalog.MatchNames(scope);
  std::vector<const query::Executor*> executors;
  for (const std::string& name : names) {
    MEETXML_ASSIGN_OR_RETURN(const query::Executor* executor,
                             catalog.ExecutorFor(name));
    executors.push_back(executor);
  }
  const unsigned workers = static_cast<unsigned>(std::min<size_t>(
      mx::util::ResolveThreads(options.merge_threads), names.size()));

  LayerSample out;
  std::vector<RepSample> samples;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 warms caches, untimed
    RepSample s;
    uint64_t request = (*next_request)++;
    size_t root = spans->Begin("ledger.repetition", SpanLog::kNoParent, request);
    if (service != nullptr) {
      size_t span = spans->Begin("tcp.roundtrip", root, request);
      MEETXML_RETURN_NOT_OK(wire->Send(server::EncodeFrame(query_payload)));
      MEETXML_ASSIGN_OR_RETURN(std::string over_tcp, wire->Receive());
      const double roundtrip_us = spans->End(span);
      span = spans->Begin("server.Connection::HandlePayload", root, request);
      std::string reply = connection->HandlePayload(query_payload);
      s.handle_us = spans->End(span);
      s.transport_us = roundtrip_us - s.handle_us;
      if (over_tcp != reply) {
        return Status::Internal("TCP and in-process replies differ");
      }
      s.reply_bytes = static_cast<double>(reply.size());
      MEETXML_ASSIGN_OR_RETURN(server::Response response,
                               server::DecodeResponse(reply));
      if (!response.ok) {
        return Status::Internal("ledger query failed: ", response.message);
      }
    }
    size_t span = spans->Begin("store.MultiExecutor::ExecuteText", root, request);
    MEETXML_RETURN_NOT_OK(multi.ExecuteText(scope, query_text, options).status());
    s.execute_text_us = spans->End(span);

    span = spans->Begin("query.ParseQuery", root, request);
    MEETXML_ASSIGN_OR_RETURN(query::Query parsed, query::ParseQuery(query_text));
    s.parse_us = spans->End(span);

    mx::obs::QueryTrace trace;
    span = spans->Begin("store.MultiExecutor::Execute", root, request);
    MEETXML_ASSIGN_OR_RETURN(store::MultiResult merged,
                             multi.Execute(scope, parsed, options, &trace));
    s.multi_wall_us = spans->End(span);
    s.route_us = static_cast<double>(trace.stage_us(mx::obs::Stage::kRoute));
    s.merge_us = static_cast<double>(trace.stage_us(mx::obs::Stage::kMerge));
    double slowest = 0;
    double doc_sum = 0;
    for (const mx::obs::DocTrace& doc : trace.docs()) {
      slowest = std::max(slowest, static_cast<double>(doc.execute_us));
      doc_sum += static_cast<double>(doc.execute_us);
    }
    s.fanout_overhead_us = s.multi_wall_us - s.merge_us - slowest;
    s.parallel_efficiency =
        s.multi_wall_us > 0 ? doc_sum / (s.multi_wall_us * std::max(1u, workers))
                            : 0;

    span = spans->Begin("query.RenderTable", root, request);
    std::string table =
        query::RenderTable(merged.columns, merged.rows, merged.truncated);
    s.render_us = spans->End(span);

    const size_t row_cap = RowCap(parsed, options);
    LayerSample counts;
    for (const query::Executor* executor : executors) {
      span = spans->Begin("query.Executor::Execute", root, request);
      MEETXML_ASSIGN_OR_RETURN(query::QueryResult result,
                               executor->Execute(parsed, options));
      double execute_us = spans->End(span);
      MEETXML_ASSIGN_OR_RETURN(
          BoundInputs bound,
          BindInputs(*executor, parsed, row_cap, spans, root, request));
      double meet_us = 0;
      if (row_cap > 0) {
        core::MeetGeneralStats stats;
        span = spans->Begin("core.MeetGeneral", root, request);
        MEETXML_ASSIGN_OR_RETURN(
            std::vector<core::GeneralMeet> meets,
            core::MeetGeneral(executor->doc(), bound.inputs, bound.options,
                              &stats));
        meet_us = spans->End(span);
        counts.meet_rows += static_cast<double>(meets.size());
        counts.meet_stats.items_seeded += stats.items_seeded;
        counts.meet_stats.lifts += stats.lifts;
        counts.meet_stats.meets_found += stats.meets_found;
        counts.meet_stats.meets_materialized += stats.meets_materialized;
        if (meets.size() != result.meets.size()) {
          return Status::Internal("ledger meet count ", meets.size(),
                                  " differs from the executor's ",
                                  result.meets.size());
        }
      }
      s.execute_us += execute_us;
      s.path_match_us += bound.path_match_us;
      s.search_us += bound.search_us;
      s.meet_us += meet_us;
      s.self_us += execute_us - bound.path_match_us - bound.search_us - meet_us;
      counts.terms += bound.terms;
      counts.hits += bound.hits;
    }
    spans->End(root);
    if (rep < 0) continue;
    samples.push_back(s);
    counts.rows = static_cast<double>(merged.rows.size());
    counts.rows_examined = static_cast<double>(merged.rows_examined);
    counts.rows_pruned = static_cast<double>(merged.rows_pruned);
    out.rows = counts.rows;
    out.rows_examined = counts.rows_examined;
    out.rows_pruned = counts.rows_pruned;
    out.terms = counts.terms;
    out.hits = counts.hits;
    out.meet_rows = counts.meet_rows;
    out.meet_stats = counts.meet_stats;
  }
  auto median = [&](double RepSample::*field) {
    std::vector<double> values;
    for (const RepSample& s : samples) values.push_back(s.*field);
    return Median(std::move(values));
  };
  out.handle_us = median(&RepSample::handle_us);
  out.transport_us = median(&RepSample::transport_us);
  out.execute_text_us = median(&RepSample::execute_text_us);
  out.parse_us = median(&RepSample::parse_us);
  out.multi_wall_us = median(&RepSample::multi_wall_us);
  out.route_us = median(&RepSample::route_us);
  out.merge_us = median(&RepSample::merge_us);
  out.fanout_overhead_us = median(&RepSample::fanout_overhead_us);
  out.parallel_efficiency = median(&RepSample::parallel_efficiency);
  out.execute_us = median(&RepSample::execute_us);
  out.path_match_us = median(&RepSample::path_match_us);
  out.search_us = median(&RepSample::search_us);
  out.meet_us = median(&RepSample::meet_us);
  out.self_us = median(&RepSample::self_us);
  out.render_us = median(&RepSample::render_us);
  out.reply_bytes = median(&RepSample::reply_bytes);
  return out;
}

Result<size_t> CrossCheckMeets(const store::Catalog& catalog,
                               const std::string& name,
                               const std::string& query_text) {
  MEETXML_ASSIGN_OR_RETURN(const query::Executor* executor,
                           catalog.ExecutorFor(name));
  MEETXML_ASSIGN_OR_RETURN(query::Query parsed, query::ParseQuery(query_text));
  SpanLog scratch;
  MEETXML_ASSIGN_OR_RETURN(
      BoundInputs bound,
      BindInputs(*executor, parsed, /*row_cap=*/0, &scratch,
                 SpanLog::kNoParent, 0));
  MEETXML_ASSIGN_OR_RETURN(
      std::vector<core::GeneralMeet> array,
      core::MeetGeneral(executor->doc(), bound.inputs, bound.options));
  MEETXML_ASSIGN_OR_RETURN(
      std::vector<core::GeneralMeet> relational,
      core::MeetGeneralRelational(executor->doc(), bound.inputs,
                                  bound.options));
  if (array.size() != relational.size()) {
    return Status::Internal("meet count ", array.size(), " vs relational ",
                            relational.size());
  }
  for (size_t i = 0; i < array.size(); ++i) {
    if (array[i].meet != relational[i].meet ||
        array[i].meet_path != relational[i].meet_path ||
        array[i].witness_distance != relational[i].witness_distance ||
        array[i].witnesses.size() != relational[i].witnesses.size()) {
      return Status::Internal("meet ", i, " differs from the relational meet");
    }
  }
  return array.size();
}

std::vector<uint64_t> QueueWaitBuckets() {
  return mx::obs::MetricsRegistry::Global()
      .histogram("meetxml_worker_queue_wait_us")
      .MergedBuckets();
}

double BucketDeltaQuantile(const std::vector<uint64_t>& before,
                           const std::vector<uint64_t>& after, double q) {
  std::vector<double> delta(after.size(), 0);
  double total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    delta[i] = static_cast<double>(after[i] - (i < before.size() ? before[i] : 0));
    total += delta[i];
  }
  if (total == 0) return 0;
  double rank = q * total;
  double seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    if (seen + delta[i] >= rank) {
      double lo = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      double hi = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i)) - 1;
      return lo + (hi - lo) * ((rank - seen) / delta[i]);
    }
    seen += delta[i];
  }
  return 0;
}

LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  LineFit fit;
  const double n = static_cast<double>(x.size());
  if (x.size() < 2) return fit;
  double mx_ = Mean(x);
  double my = Mean(y);
  double sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx_) * (x[i] - mx_);
    sxy += (x[i] - mx_) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0 || n == 0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx_;
  fit.r2 = syy == 0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace perfbench
