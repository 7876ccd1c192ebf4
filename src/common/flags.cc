#include "src/common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/mem/memory_budget.h"

namespace mrtheta {

namespace {

// Parses a whole-string positive integer; no trailing junk, no overflow.
StatusOr<int> ParsePositiveInt(const char* text) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    return Status::InvalidArgument(std::string("not an integer: '") + text +
                                   "'");
  }
  if (errno == ERANGE || value < 1 || value > 1 << 20) {
    return Status::InvalidArgument(std::string("out of range: '") + text +
                                   "' (expected 1..1048576)");
  }
  return static_cast<int>(value);
}

}  // namespace

StatusOr<CommonFlags> ParseCommonFlags(int argc, char** argv,
                                       bool allow_runtime_flags) {
  CommonFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      if (arg[12] == '\0') {
        return Status::InvalidArgument("--trace-out= needs a file path");
      }
      flags.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      if (arg[14] == '\0') {
        return Status::InvalidArgument("--metrics-out= needs a file path");
      }
      flags.metrics_out = arg + 14;
    } else if (allow_runtime_flags && std::strcmp(arg, "--threads") == 0) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("--threads needs a value");
      }
      StatusOr<int> n = ParsePositiveInt(argv[++i]);
      if (!n.ok()) {
        return Status::InvalidArgument("--threads: " + n.status().message());
      }
      flags.num_threads = *n;
    } else if (allow_runtime_flags && std::strcmp(arg, "--mem-budget") == 0) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(
            "--mem-budget needs a value (bytes, or K/M/G suffixed)");
      }
      StatusOr<int64_t> bytes = MemoryBudget::ParseByteSize(argv[++i]);
      if (!bytes.ok()) {
        return Status::InvalidArgument("--mem-budget: " +
                                       bytes.status().message());
      }
      flags.mem_budget_bytes = *bytes;
    } else if (arg[0] == '-') {
      return Status::InvalidArgument(std::string("unknown flag: ") + arg);
    } else if (flags.output_path.empty()) {
      flags.output_path = arg;
    } else {
      return Status::InvalidArgument(
          std::string("unexpected extra argument: ") + arg);
    }
  }
  return flags;
}

void WarnIfSingleHardwareThread(int num_threads) {
  if (num_threads <= 1) return;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 1) {
    std::fprintf(stderr,
                 "warning: this host reports a single hardware thread; "
                 "%d threads will time-slice one core and measured "
                 "wall-clock will not improve\n",
                 num_threads);
  } else if (hw == 0) {
    // The standard defines 0 as "not computable or not well defined" —
    // the host may well be multi-core, so do not claim it is single-core.
    std::fprintf(stderr,
                 "note: could not determine this host's hardware thread "
                 "count (hardware_concurrency() == 0); if it is "
                 "single-core, %d threads will time-slice it and measured "
                 "wall-clock will not improve\n",
                 num_threads);
  }
}

}  // namespace mrtheta
