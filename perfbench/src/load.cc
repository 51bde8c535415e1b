#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include <poll.h>

#include "ledger.h"

namespace perfbench {

using mx::util::Result;
using mx::util::Status;
namespace server = mx::server;

namespace {

void SleepUntilUs(double due_us) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point at(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(due_us)));
  std::this_thread::sleep_until(at);
}

// Requests per traced / untraced block of an open-loop phase.
constexpr size_t kTraceBlock = 64;

Result<server::Response> Decode(const Result<std::string>& payload) {
  if (!payload.ok()) return payload.status();
  return server::DecodeResponse(*payload);
}

}  // namespace

Status ClosedLoop(uint16_t port, const std::vector<RequestKind>& kinds,
                  const std::vector<size_t>& sequence, int clients,
                  double warmup_s, double seconds, SpanLog* spans,
                  uint64_t* next_request, LoadStats* out) {
  // The clients share the server's CPU: a closed loop keeps that CPU
  // busy, while handing every request to an idle second CPU would add
  // its wake-up latency to each round trip.
  std::vector<WireClient> connections;
  for (int c = 0; c < clients; ++c) {
    MEETXML_ASSIGN_OR_RETURN(WireClient client, WireClient::Connect(port));
    connections.push_back(std::move(client));
  }
  // Each client keeps its own stats and spans; they merge after the join.
  struct PerClient {
    LoadStats load;
    SpanLog spans;
    Status status;
    double last = 0;
  };
  std::vector<PerClient> per_client(clients);
  std::atomic<uint64_t> request_ids{*next_request};
  const double start = NowUs();
  const double timed_from = start + warmup_s * 1e6;
  const double end = timed_from + seconds * 1e6;

  auto run_client = [&](size_t c) {
    PerClient& mine = per_client[c];
    LoadStats& stats = mine.load;
    const size_t offset = c * sequence.size() / clients;
    for (size_t i = 0;; ++i) {
      const double t0 = NowUs();
      if (t0 >= end) break;
      const bool timing = t0 >= timed_from;
      const RequestKind& kind = kinds[sequence[(offset + i) % sequence.size()]];
      // A traced phase traces every other block of requests, so traced
      // and untraced requests interleave and the difference between the
      // two is the tracing overhead.
      SpanLog* log =
          spans != nullptr && (i / kinds.size()) % 2 == 1 ? &mine.spans : nullptr;
      const uint64_t request = request_ids.fetch_add(1);
      size_t root = 0;
      size_t span = 0;
      if (log != nullptr) {
        root = log->Begin("client.request", SpanLog::kNoParent, request);
        span = log->Begin("client.encode", root, request);
      }
      std::string frame = QueryFrame(kind.scope, kind.query);
      double codec_us = 0;
      if (log != nullptr) {
        codec_us += log->End(span);
        span = log->Begin("tcp.roundtrip", root, request);
      }
      Status sent = connections[c].Send(frame);
      Result<std::string> payload =
          sent.ok() ? connections[c].Receive() : Result<std::string>(sent);
      if (log != nullptr) {
        log->End(span);
        span = log->Begin("client.decode", root, request);
      }
      Result<server::Response> response = Decode(payload);
      if (log != nullptr) {
        codec_us += log->End(span);
        log->End(root);
      }
      const double t1 = NowUs();
      const bool ok = ReplyMatches(response, kind.expected);
      if (timing) {
        stats.attempted += 1;
        if (!ok) {
          stats.failed += 1;
        } else if (log != nullptr) {
          stats.traced_latency_ms.push_back((t1 - t0) / 1e3);
          stats.traced_klass.push_back(kind.klass);
          stats.codec_us.push_back(codec_us);
        } else {
          stats.latency_ms.push_back((t1 - t0) / 1e3);
          stats.klass.push_back(kind.klass);
          stats.done_s.push_back((t1 - timed_from) / 1e6);
        }
        mine.last = t1;
      }
      // A broken stream cannot carry the rest of the phase.
      if (!payload.ok()) {
        mine.status = payload.status();
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(run_client, c);
  SleepUntilUs(timed_from);
  out->usage_before = ReadUsage();
  out->queue_wait_before = QueueWaitBuckets();
  for (std::thread& thread : threads) thread.join();
  out->usage_after = ReadUsage();
  out->queue_wait_after = QueueWaitBuckets();
  *next_request = request_ids.load();

  double last = timed_from;
  for (PerClient& mine : per_client) {
    MEETXML_RETURN_NOT_OK(mine.status);
    const LoadStats& from = mine.load;
    out->attempted += from.attempted;
    out->failed += from.failed;
    auto append = [](auto* to, const auto& more) {
      to->insert(to->end(), more.begin(), more.end());
    };
    append(&out->latency_ms, from.latency_ms);
    append(&out->klass, from.klass);
    append(&out->done_s, from.done_s);
    append(&out->traced_latency_ms, from.traced_latency_ms);
    append(&out->traced_klass, from.traced_klass);
    append(&out->codec_us, from.codec_us);
    if (spans != nullptr) spans->Append(mine.spans);
    last = std::max(last, mine.last);
  }
  if (out->attempted == 0) {
    return Status::Internal("closed loop never reached its timed window");
  }
  out->window_s = (last - timed_from) / 1e6;
  return Status::OK();
}

Status OpenLoop(uint16_t port, const std::vector<RequestKind>& kinds,
                const std::vector<size_t>& sequence, double rate,
                int connections, bool quick_ack, double warmup_s, double seconds,
                SpanLog* spans, uint64_t* next_request, LoadStats* out) {
  OnLoadCpu on_load_cpu;  // the sender and the receiver it starts
  std::vector<WireClient> clients;
  for (int c = 0; c < connections; ++c) {
    MEETXML_ASSIGN_OR_RETURN(WireClient client,
                             WireClient::Connect(port, quick_ack));
    clients.push_back(std::move(client));
  }
  const size_t conns = clients.size();
  const double period_us = 1e6 / rate;
  const size_t total = static_cast<size_t>(std::ceil((warmup_s + seconds) * rate));
  const size_t warm = static_cast<size_t>(std::ceil(warmup_s * rate));
  auto kind_of = [&](size_t j) -> const RequestKind& {
    return kinds[sequence[j % sequence.size()]];
  };

  std::vector<double> woke(total, 0), send_start(total, 0), send_end(total, 0);
  std::vector<double> received(total, 0), done(total, 0);
  std::vector<char> ok(total, 0);
  std::vector<char> answered(total, 0);

  const double t0 = NowUs() + 5000;  // let the receiver park first
  auto due = [&](size_t j) { return t0 + static_cast<double>(j) * period_us; };

  // One receiver multiplexes every connection. Replies arrive in
  // request order per connection, so the k-th reply on connection c
  // answers request c + k * conns.
  Status receive_status;
  std::thread receiver([&] {
    std::vector<size_t> next(conns);
    for (size_t c = 0; c < conns; ++c) next[c] = c;
    std::vector<pollfd> fds(conns);
    for (size_t c = 0; c < conns; ++c) fds[c] = pollfd{clients[c].fd(), POLLIN, 0};
    size_t pending = total;
    std::vector<std::string> payloads;
    while (pending > 0) {
      int ready = ::poll(fds.data(), fds.size(), 30000);
      if (ready <= 0) {
        receive_status = Status::Unavailable("no reply within 30 s");
        return;
      }
      for (size_t c = 0; c < conns; ++c) {
        if (fds[c].revents == 0) continue;
        payloads.clear();
        Status read = clients[c].ReadAvailable(&payloads);
        const double got = NowUs();
        for (const std::string& payload : payloads) {
          const size_t j = next[c];
          if (j >= total) {
            receive_status = Status::Internal("unsolicited reply");
            return;
          }
          next[c] += conns;
          received[j] = got;
          Result<server::Response> response = server::DecodeResponse(payload);
          done[j] = NowUs();
          answered[j] = 1;
          ok[j] = ReplyMatches(response, kind_of(j).expected) ? 1 : 0;
          pending -= 1;
        }
        if (!read.ok()) {
          receive_status = read;
          return;
        }
      }
    }
  });

  Status send_status;
  for (size_t j = 0; j < total; ++j) {
    if (j == warm) {
      out->usage_before = ReadUsage();
      out->queue_wait_before = QueueWaitBuckets();
    }
    SleepUntilUs(due(j));
    woke[j] = NowUs();
    const RequestKind& kind = kind_of(j);
    std::string frame = QueryFrame(kind.scope, kind.query);
    send_start[j] = NowUs();
    send_status = clients[j % conns].Send(frame);
    send_end[j] = NowUs();
    if (!send_status.ok()) break;
  }
  // A failed send leaves replies that never come: the receiver's poll
  // times out and the phase fails below.
  receiver.join();
  out->usage_after = ReadUsage();
  out->queue_wait_after = QueueWaitBuckets();
  MEETXML_RETURN_NOT_OK(send_status);
  MEETXML_RETURN_NOT_OK(receive_status);

  double last = due(warm);
  for (size_t j = warm; j < total; ++j) {
    out->attempted += 1;
    if (!answered[j] || !ok[j]) {
      out->failed += 1;
      continue;
    }
    last = std::max(last, done[j]);
    out->late_ms.push_back((woke[j] - due(j)) / 1e3);
    // Lateness the sender caused itself: time past the later of the due
    // time and the end of its previous (possibly blocked) send.
    double ready = j > 0 ? std::max(due(j), send_end[j - 1]) : due(j);
    out->generator_lag_ms.push_back(std::max(0.0, woke[j] - ready) / 1e3);
    // Every timestamp above is taken on both paths; a traced phase turns
    // them into spans for alternate blocks of requests, so the tracing
    // overhead is the spans' bookkeeping alone.
    const bool traced = spans != nullptr && (j / kTraceBlock) % 2 == 1;
    if (!traced) {
      out->latency_ms.push_back((done[j] - due(j)) / 1e3);
      out->klass.push_back(kind_of(j).klass);
      out->done_s.push_back((done[j] - due(warm)) / 1e6);
      continue;
    }
    out->traced_latency_ms.push_back((done[j] - due(j)) / 1e3);
    out->traced_klass.push_back(kind_of(j).klass);
    const uint64_t request = (*next_request)++;
    size_t root = spans->Add("client.request", due(j), done[j],
                             SpanLog::kNoParent, request);
    spans->Add("client.schedule_wait", due(j), woke[j], root, request);
    spans->Add("client.encode", woke[j], send_start[j], root, request);
    spans->Add("tcp.roundtrip", send_start[j], received[j], root, request);
    spans->Add("client.decode", received[j], done[j], root, request);
    out->codec_us.push_back((send_start[j] - woke[j]) + (done[j] - received[j]));
  }
  out->window_s = (last - due(warm)) / 1e6;
  return Status::OK();
}

bool GeneratorKeptUp(const LoadStats& load, double window_s) {
  double total_lag_ms = 0;
  for (double lag : load.generator_lag_ms) total_lag_ms += lag;
  return Median(load.generator_lag_ms) <= 1.0 &&
         total_lag_ms <= 0.05 * window_s * 1e3;
}

}  // namespace perfbench
