#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/net.h"

namespace perfbench {

using mx::util::Result;
using mx::util::Status;
namespace server = mx::server;

namespace {

int server_cpu = -1;
int load_cpu = -1;

bool PinThisThread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

}  // namespace

bool PinCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (server_cpu < 0) {
      server_cpu = cpu;
    } else {
      load_cpu = cpu;
      break;
    }
  }
  if (server_cpu < 0) return false;
  if (load_cpu < 0) load_cpu = server_cpu;
  return PinThisThread(server_cpu);
}

OnLoadCpu::OnLoadCpu() { PinThisThread(load_cpu); }
OnLoadCpu::~OnLoadCpu() { PinThisThread(server_cpu); }

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double at = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(at));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Usage ReadUsage() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  Usage out;
  out.cpu_ms = ms(usage.ru_utime) + ms(usage.ru_stime);
  out.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

void PrintResult(std::string_view workload, const Outcome& outcome,
                 const std::vector<Metric>& metrics) {
  std::printf("# %.*s: %llu attempted, %llu failed, failed_ratio %.6f\n",
              static_cast<int>(workload.size()), workload.data(),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted));
  for (const Metric& metric : metrics) {
    std::printf("#   %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

size_t SpanLog::Begin(std::string_view name, size_t parent,
                      uint64_t request) {
  spans_.push_back(Span{std::string(name), NowUs(), 0, parent, request});
  return spans_.size() - 1;
}

size_t SpanLog::Add(std::string_view name, double start_us, double end_us,
                    size_t parent, uint64_t request) {
  spans_.push_back(Span{std::string(name), start_us, end_us, parent, request});
  return spans_.size() - 1;
}

void SpanLog::Append(const SpanLog& other) {
  const size_t base = spans_.size();
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

double SpanLog::End(size_t id) {
  spans_[id].end_us = NowUs();
  return Duration(id);
}

double SpanLog::Duration(size_t id) const {
  return spans_[id].end_us - spans_[id].start_us;
}

Status SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write span log ", path);
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    long long parent =
        span.parent == kNoParent ? -1 : static_cast<long long>(span.parent);
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}\n",
                  i, span.name.c_str(), span.start_us, span.end_us, parent,
                  static_cast<unsigned long long>(span.request));
    out << line;
  }
  return out ? Status::OK() : Status::Internal("short write on ", path);
}

uint64_t HashBytes(std::string_view bytes) {
  // FNV-1a, 64-bit.
  uint64_t hash = 14695981039346656037ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

bool ReplyMatches(const Result<server::Response>& response,
                  const Expected& expected) {
  return response.ok() && response->ok &&
         response->opcode == server::Opcode::kQuery &&
         response->row_count == expected.rows &&
         response->truncated == expected.truncated &&
         response->table.size() == expected.table_bytes &&
         HashBytes(response->table) == expected.table_hash;
}

std::string QueryFrame(std::string_view scope, std::string_view query) {
  server::Request request;
  request.opcode = server::Opcode::kQuery;
  request.scope = std::string(scope);
  request.query = std::string(query);
  return server::EncodeFrame(server::EncodeRequest(request));
}

Result<WireClient> WireClient::Connect(uint16_t port, bool quick_ack) {
  MEETXML_ASSIGN_OR_RETURN(int fd,
                           mx::util::ConnectTcp("127.0.0.1", port, 5000));
  WireClient client(fd, quick_ack);
  // A stalled server fails the run instead of hanging it.
  MEETXML_RETURN_NOT_OK(mx::util::SetRecvTimeoutMs(fd, 30000));
  server::Request hello;
  hello.opcode = server::Opcode::kHello;
  hello.protocol_version = server::kProtocolVersion;
  MEETXML_RETURN_NOT_OK(
      client.Send(server::EncodeFrame(server::EncodeRequest(hello))));
  MEETXML_ASSIGN_OR_RETURN(std::string payload, client.Receive());
  MEETXML_ASSIGN_OR_RETURN(server::Response response,
                           server::DecodeResponse(payload));
  if (!response.ok) return Status::Unavailable("HELLO refused");
  return client;
}

WireClient::~WireClient() { mx::util::CloseSocket(fd_); }

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(other.fd_), quick_ack_(other.quick_ack_),
      frames_(std::move(other.frames_)) {
  other.fd_ = -1;
}

void WireClient::ArmQuickAck() const {
  if (!quick_ack_) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

Status WireClient::Send(std::string_view frame) {
  return mx::util::WriteFull(fd_, frame);
}

Status WireClient::ReadAvailable(std::vector<std::string>* payloads) {
  char buffer[64 * 1024];
  ArmQuickAck();
  MEETXML_ASSIGN_OR_RETURN(size_t got,
                           mx::util::ReadSome(fd_, buffer, sizeof(buffer)));
  if (got == 0) return Status::UnexpectedEof("server closed the stream");
  frames_.Append(std::string_view(buffer, got));
  while (true) {
    MEETXML_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                             frames_.Next());
    if (!payload.has_value()) return Status::OK();
    payloads->push_back(std::move(*payload));
  }
}

Result<std::string> WireClient::Receive() {
  char buffer[64 * 1024];
  while (true) {
    MEETXML_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                             frames_.Next());
    if (payload.has_value()) return std::move(*payload);
    ArmQuickAck();
    MEETXML_ASSIGN_OR_RETURN(size_t got,
                             mx::util::ReadSome(fd_, buffer, sizeof(buffer)));
    if (got == 0) return Status::UnexpectedEof("server closed the stream");
    frames_.Append(std::string_view(buffer, got));
  }
}

}  // namespace perfbench
