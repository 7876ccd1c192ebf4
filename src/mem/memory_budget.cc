#include "src/mem/memory_budget.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>

namespace mrtheta {

namespace {

// Freelist cap: recycled pages beyond this are freed back to the
// allocator. 256 pages = 16 MiB of cache, enough to absorb the page churn
// of one execution without hoarding memory between queries.
constexpr size_t kMaxFreePages = 256;

}  // namespace

MemoryBudget& MemoryBudget::Global() {
  static MemoryBudget* budget = [] {
    auto* b = new MemoryBudget();
    const char* env = std::getenv("MRTHETA_MEM_BUDGET");
    if (env != nullptr && env[0] != '\0') {
      StatusOr<int64_t> parsed = ParseByteSize(env);
      if (!parsed.ok()) {
        // A CI memory leg with a typo in its budget must fail loudly, not
        // silently run unbounded and report a meaningless green.
        std::fprintf(stderr, "MRTHETA_MEM_BUDGET='%s': %s\n", env,
                     parsed.status().ToString().c_str());
        std::abort();
      }
      b->set_limit_bytes(*parsed);
    }
    return b;
  }();
  return *budget;
}

StatusOr<MemoryBudget::PagePtr> MemoryBudget::AcquirePage() {
  {
    MutexLock lock(&free_mu_);
    if (!free_pages_.empty()) {
      PagePtr page = std::move(free_pages_.back());
      free_pages_.pop_back();
      Charge(kPageBytes);
      return page;
    }
  }
  PagePtr page(new (std::nothrow) unsigned char[kPageBytes]);
  if (page == nullptr) {
    return Status::ResourceExhausted("failed to allocate a " +
                                     std::to_string(kPageBytes) +
                                     "-byte KV page");
  }
  Charge(kPageBytes);
  return page;
}

void MemoryBudget::ReleasePage(PagePtr page) {
  if (page == nullptr) return;
  Uncharge(kPageBytes);
  MutexLock lock(&free_mu_);
  if (free_pages_.size() < kMaxFreePages) {
    free_pages_.push_back(std::move(page));
  }
}

void MemoryBudget::Charge(int64_t bytes) {
  if (bytes <= 0) return;
  const int64_t now =
      in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void MemoryBudget::Uncharge(int64_t bytes) {
  if (bytes <= 0) return;
  in_use_.fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryBudget::ResetPeak() {
  peak_.store(in_use_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

StatusOr<int64_t> MemoryBudget::ParseByteSize(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("byte size is empty");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str()) {
    return Status::InvalidArgument("not a byte size: '" + text + "'");
  }
  if (errno == ERANGE || value < 0) {
    return Status::InvalidArgument("byte size out of range: '" + text + "'");
  }
  int64_t multiplier = 1;
  if (*end != '\0') {
    switch (std::toupper(static_cast<unsigned char>(*end))) {
      case 'K': multiplier = int64_t{1} << 10; break;
      case 'M': multiplier = int64_t{1} << 20; break;
      case 'G': multiplier = int64_t{1} << 30; break;
      default:
        return Status::InvalidArgument("bad byte-size suffix in '" + text +
                                       "' (expected K, M or G)");
    }
    if (end[1] != '\0') {
      return Status::InvalidArgument("trailing junk in byte size '" + text +
                                     "'");
    }
  }
  if (value > std::numeric_limits<int64_t>::max() / multiplier) {
    return Status::InvalidArgument("byte size out of range: '" + text + "'");
  }
  return static_cast<int64_t>(value) * multiplier;
}

}  // namespace mrtheta
