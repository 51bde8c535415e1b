// perfbench: the repository benchmark program.
//
//   perfbench --workdir DIR --workload case_study|fanout_topk|ingest_reopen
//             --seed N --seconds S --trace 0|1
//
// Generates the workload's inputs from the seed, serves them through
// the real stack, checks every answer, and prints the metrics — the
// end-to-end set with --trace 0, the per-layer ledger with --trace 1 —
// as a table followed by one JSON object on the last line of stdout.
// The traced run also writes its spans to DIR/spans-<workload>-<seed>.jsonl.
// Exit code 0 means a result was printed; any failure to run exits 1
// without one.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {

mx::util::Status WriteSpans(const Options& options, const SpanLog& spans) {
  return spans.Write(options.workdir + "/spans-" + options.workload + "-" +
                     std::to_string(options.seed) + ".jsonl");
}

namespace {

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options->seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options->seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options->trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--workdir") == 0) {
      options->workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->workdir.empty() && options->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A peer that closes early must fail a send, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (!PinCpus()) {
    std::fprintf(stderr, "perfbench: cannot pin CPUs\n");
    return 1;
  }
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workdir DIR --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 1;
  }
  mx::util::Result<RunOutput> output =
      mx::util::Status::InvalidArgument("unknown workload ", options.workload);
  if (options.workload == "case_study") {
    output = RunCaseStudy(options);
  } else if (options.workload == "fanout_topk") {
    output = RunFanoutTopk(options);
  } else if (options.workload == "ingest_reopen") {
    output = RunIngestReopen(options);
  }
  if (!output.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", output.status().ToString().c_str());
    return 1;
  }
  PrintResult(options.workload, output->outcome, output->metrics);
  return 0;
}
