#ifndef MRTHETA_MEM_MEMORY_BUDGET_H_
#define MRTHETA_MEM_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace mrtheta {

/// \brief Process-wide accounting arena for the runtime's shuffle memory
/// (docs/MEMORY.md).
///
/// Two kinds of usage are tracked against one shared ledger:
///  - fixed-size KV *pages* (AcquirePage/ReleasePage) backing MapEmitter
///    buffers; released pages are recycled through a small freelist, and
///    a cached free page does not count as in use;
///  - *charges* (Charge/Uncharge, or the ScopedCharge RAII) for tracked
///    allocations that are not page-shaped, e.g. a map task's index by
///    reduce task or a reduce task's gathered record vector.
///
/// The budget never refuses memory — exceeding a limit is a *spill
/// signal*, not an allocation failure, so the runtime always makes
/// progress (the spill path itself needs a page or two of headroom).
/// Spill decisions compare in_use_bytes() against a per-execution limit
/// (ExecutorOptions::mem_budget_bytes); limit_bytes() here is only the
/// process-wide default, seeded from $MRTHETA_MEM_BUDGET.
///
/// peak_bytes() is the high-water mark of in-use bytes since the last
/// ResetPeak() — a process-wide figure: concurrent executions share it.
class MemoryBudget {
 public:
  /// Page granularity of every paged container. 64 KiB holds ~1.6k
  /// MapOutputRecords — small enough that per-holder slack stays a
  /// rounding error against any realistic budget, large enough that page
  /// churn is invisible next to map/reduce compute.
  static constexpr int64_t kPageBytes = 64 * 1024;

  using PagePtr = std::unique_ptr<unsigned char[]>;

  /// The process-wide budget. First use parses $MRTHETA_MEM_BUDGET into
  /// limit_bytes() (aborts on a malformed value — a CI memory leg with a
  /// typo must fail loudly, not silently run unbounded, mirroring
  /// FaultPlan::FromEnvironment).
  static MemoryBudget& Global();

  /// Process-default spill threshold in bytes; 0 = unlimited.
  int64_t limit_bytes() const {
    return limit_.load(std::memory_order_relaxed);
  }
  void set_limit_bytes(int64_t limit) {
    limit_.store(limit, std::memory_order_relaxed);
  }

  /// Hands out one kPageBytes page (recycled or freshly allocated) and
  /// charges it to the ledger. Only a real allocation failure errors
  /// (kResourceExhausted); being over limit does not.
  StatusOr<PagePtr> AcquirePage() MRTHETA_EXCLUDES(free_mu_);
  /// Uncharges and recycles `page` (freelist-capped; excess pages free).
  void ReleasePage(PagePtr page) MRTHETA_EXCLUDES(free_mu_);

  /// Tracks a non-paged allocation of `bytes` against the ledger.
  void Charge(int64_t bytes);
  void Uncharge(int64_t bytes);

  /// Bytes currently charged (pages out + explicit charges).
  int64_t in_use_bytes() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  /// High-water mark of in_use_bytes() since the last ResetPeak().
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  void ResetPeak();

  /// True when tracked usage exceeds `limit` (> 0) — the spill signal.
  bool OverBudget(int64_t limit) const {
    return limit > 0 && in_use_bytes() > limit;
  }

  /// Strict byte-size parser for flags and $MRTHETA_MEM_BUDGET: a
  /// non-negative integer with an optional K/M/G binary suffix
  /// (case-insensitive), no trailing junk, no overflow. "0" = unlimited.
  static StatusOr<int64_t> ParseByteSize(const std::string& text);

 private:
  MemoryBudget() = default;

  std::atomic<int64_t> limit_{0};
  std::atomic<int64_t> in_use_{0};
  std::atomic<int64_t> peak_{0};

  Mutex free_mu_;
  std::vector<PagePtr> free_pages_ MRTHETA_GUARDED_BY(free_mu_);
};

/// RAII Charge/Uncharge against the global budget; movable so it can ride
/// inside attempt-local task state.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  explicit ScopedCharge(int64_t bytes) : bytes_(bytes) {
    MemoryBudget::Global().Charge(bytes_);
  }
  ScopedCharge(ScopedCharge&& other) noexcept : bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    Release();
    bytes_ = other.bytes_;
    other.bytes_ = 0;
    return *this;
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ~ScopedCharge() { Release(); }

  void Release() {
    if (bytes_ > 0) MemoryBudget::Global().Uncharge(bytes_);
    bytes_ = 0;
  }

 private:
  int64_t bytes_ = 0;
};

/// Test helper: overrides the global default limit for a scope, restoring
/// the previous limit (and resetting the peak both ways) on destruction.
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(int64_t limit_bytes)
      : saved_(MemoryBudget::Global().limit_bytes()) {
    MemoryBudget::Global().set_limit_bytes(limit_bytes);
    MemoryBudget::Global().ResetPeak();
  }
  ScopedMemoryBudget(const ScopedMemoryBudget&) = delete;
  ScopedMemoryBudget& operator=(const ScopedMemoryBudget&) = delete;
  ~ScopedMemoryBudget() {
    MemoryBudget::Global().set_limit_bytes(saved_);
    MemoryBudget::Global().ResetPeak();
  }

 private:
  int64_t saved_;
};

}  // namespace mrtheta

#endif  // MRTHETA_MEM_MEMORY_BUDGET_H_
