#include "src/runtime/fault_injection.h"

#include <cmath>
#include <cstdlib>

namespace mrtheta {

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Status RateInRange(const char* name, double rate) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be in [0, 1], got " +
                                   std::to_string(rate));
  }
  return Status::OK();
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kMapTask:
      return "map.task";
    case FaultPoint::kReduceTask:
      return "reduce.task";
    case FaultPoint::kMapAlloc:
      return "map.alloc";
    case FaultPoint::kReduceAlloc:
      return "reduce.alloc";
    case FaultPoint::kMapStraggler:
      return "map.straggler";
    case FaultPoint::kReduceStraggler:
      return "reduce.straggler";
  }
  return "unknown";
}

Status FaultPlan::Validate() const {
  MRTHETA_RETURN_IF_ERROR(RateInRange("map_failure_rate", map_failure_rate));
  MRTHETA_RETURN_IF_ERROR(
      RateInRange("reduce_failure_rate", reduce_failure_rate));
  MRTHETA_RETURN_IF_ERROR(
      RateInRange("alloc_failure_rate", alloc_failure_rate));
  MRTHETA_RETURN_IF_ERROR(RateInRange("straggler_rate", straggler_rate));
  if (!(straggler_delay_ms >= 0.0)) {
    return Status::InvalidArgument("straggler_delay_ms must be >= 0");
  }
  return Status::OK();
}

StatusOr<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  plan.armed = true;  // an explicitly spelled plan engages the chaos path
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string pair = text.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault plan entry '" + pair +
                                     "' is not key=value");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    char* parse_end = nullptr;
    const double num = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0') {
      return Status::InvalidArgument("fault plan value '" + value +
                                     "' for key '" + key +
                                     "' is not a number");
    }
    if (key == "seed") {
      plan.seed = static_cast<uint64_t>(num);
    } else if (key == "map") {
      plan.map_failure_rate = num;
    } else if (key == "reduce") {
      plan.reduce_failure_rate = num;
    } else if (key == "alloc") {
      plan.alloc_failure_rate = num;
    } else if (key == "straggler") {
      plan.straggler_rate = num;
    } else if (key == "delay_ms") {
      plan.straggler_delay_ms = num;
    } else if (key == "armed") {
      plan.armed = num != 0.0;
    } else {
      return Status::InvalidArgument("unknown fault plan key '" + key + "'");
    }
  }
  MRTHETA_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

const FaultPlan& FaultPlan::FromEnvironment() {
  static const FaultPlan plan = [] {
    const char* env = std::getenv("MRTHETA_FAULT_PLAN");
    if (env == nullptr || env[0] == '\0') return FaultPlan{};
    StatusOr<FaultPlan> parsed = Parse(env);
    if (!parsed.ok()) {
      // A chaos CI job with a typo in its plan must fail loudly, not run
      // fault-free and report a meaningless green.
      std::fprintf(stderr, "MRTHETA_FAULT_PLAN='%s': %s\n", env,
                   parsed.status().ToString().c_str());
      std::abort();
    }
    return *parsed;
  }();
  return plan;
}

double RetryPolicy::BackoffMs(int failures) const {
  double ms = backoff_base_ms;
  for (int i = 0; i < failures; ++i) {
    ms *= backoff_multiplier;
    if (ms >= backoff_max_ms) return backoff_max_ms;
  }
  return std::min(ms, backoff_max_ms);
}

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("retry.max_attempts must be >= 1");
  }
  if (!(backoff_base_ms >= 0.0) || !(backoff_max_ms >= 0.0)) {
    return Status::InvalidArgument("retry backoff must be >= 0");
  }
  if (!(backoff_multiplier >= 1.0)) {
    return Status::InvalidArgument("retry.backoff_multiplier must be >= 1");
  }
  if (!(task_timeout_ms >= 0.0)) {
    return Status::InvalidArgument("retry.task_timeout_ms must be >= 0");
  }
  return Status::OK();
}

Status SpeculationPolicy::Validate() const {
  if (!(straggler_multiplier > 0.0)) {
    return Status::InvalidArgument(
        "speculation.straggler_multiplier must be > 0");
  }
  if (!(min_deadline_ms >= 0.0)) {
    return Status::InvalidArgument("speculation.min_deadline_ms must be >= 0");
  }
  if (min_completed_tasks < 1) {
    return Status::InvalidArgument(
        "speculation.min_completed_tasks must be >= 1");
  }
  return Status::OK();
}

void FaultReport::Merge(const FaultReport& other) {
  injected_faults += other.injected_faults;
  task_retries += other.task_retries;
  map_task_retries += other.map_task_retries;
  reduce_task_retries += other.reduce_task_retries;
  speculative_launches += other.speculative_launches;
  wasted_task_seconds += other.wasted_task_seconds;
}

double FaultInjector::Draw(FaultPoint point, const std::string& job,
                           int64_t task, int attempt) const {
  uint64_t h = plan_.seed * 0x9E3779B97F4A7C15ULL;
  h = Mix64(h ^ (static_cast<uint64_t>(point) + 0x51ULL));
  h = Mix64(h ^ Fnv1a(job));
  h = Mix64(h ^ static_cast<uint64_t>(task) * 0xD6E8FEB86659FD93ULL);
  h = Mix64(h ^ (static_cast<uint64_t>(attempt) + 0xA5ULL));
  // 53 uniform bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::ShouldFail(FaultPoint point, const std::string& job,
                               int64_t task, int attempt) const {
  double rate = 0.0;
  switch (point) {
    case FaultPoint::kMapTask:
      rate = plan_.map_failure_rate;
      break;
    case FaultPoint::kReduceTask:
      rate = plan_.reduce_failure_rate;
      break;
    case FaultPoint::kMapAlloc:
    case FaultPoint::kReduceAlloc:
      rate = plan_.alloc_failure_rate;
      break;
    case FaultPoint::kMapStraggler:
    case FaultPoint::kReduceStraggler:
      rate = plan_.straggler_rate;
      break;
  }
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  return Draw(point, job, task, attempt) < rate;
}

double FaultInjector::StragglerDelayMs(FaultPoint point,
                                       const std::string& job, int64_t task,
                                       int attempt) const {
  // Slow-slot model: a retry or speculative copy runs on a different slot
  // and is never re-delayed, which also guarantees speculation terminates.
  if (attempt != 0) return 0.0;
  if (!ShouldFail(point, job, task, attempt)) return 0.0;
  return plan_.straggler_delay_ms;
}

}  // namespace mrtheta
