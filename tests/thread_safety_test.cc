// Runtime behaviour of the annotated lock primitives
// (src/common/thread_annotations.h, docs/STATIC_ANALYSIS.md): the
// held-lock registry behind HeldByCurrentThread / ThisThreadHoldsNamed,
// the CondVar wait contract, and the two abort-on-misuse guards this PR
// introduced — MemoryBudget's page-pool lock-ordering CHECK and the
// nested-TraceSession CHECK (formerly an assert() that vanished in
// Release builds). The *static* side — that mis-locked code fails to
// compile — is covered by scripts/check_thread_safety.sh over
// tests/static/.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_annotations.h"
#include "src/mem/memory_budget.h"
#include "src/obs/trace.h"

namespace mrtheta {
namespace {

TEST(MutexTest, HeldByCurrentThreadTracksLockAndUnlock) {
  Mutex mu;
  EXPECT_FALSE(mu.HeldByCurrentThread());
  {
    MutexLock lock(&mu);
    EXPECT_TRUE(mu.HeldByCurrentThread());
  }
  EXPECT_FALSE(mu.HeldByCurrentThread());
}

TEST(MutexTest, RegistryIsPerThread) {
  Mutex mu;
  MutexLock lock(&mu);
  bool held_in_other_thread = true;
  std::thread other(
      [&] { held_in_other_thread = mu.HeldByCurrentThread(); });
  other.join();
  EXPECT_TRUE(mu.HeldByCurrentThread());
  EXPECT_FALSE(held_in_other_thread);
}

TEST(MutexTest, TryLockRegistersLikeLock) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  EXPECT_TRUE(mu.HeldByCurrentThread());
  mu.Unlock();
  EXPECT_FALSE(mu.HeldByCurrentThread());
}

TEST(MutexTest, NonLifoUnlockOrderIsTolerated) {
  // The registry must not assume LIFO: hand-over-hand patterns release
  // the outer lock first.
  Mutex a, b;
  a.Lock();
  b.Lock();
  a.Unlock();
  EXPECT_FALSE(a.HeldByCurrentThread());
  EXPECT_TRUE(b.HeldByCurrentThread());
  b.Unlock();
}

TEST(MutexTest, ThisThreadHoldsNamedMatchesByName) {
  Mutex named("test.lock_order_probe");
  Mutex anonymous;
  EXPECT_FALSE(Mutex::ThisThreadHoldsNamed("test.lock_order_probe"));
  {
    MutexLock lock(&anonymous);
    // An unnamed lock matches no name.
    EXPECT_FALSE(Mutex::ThisThreadHoldsNamed("test.lock_order_probe"));
  }
  {
    MutexLock lock(&named);
    EXPECT_TRUE(Mutex::ThisThreadHoldsNamed("test.lock_order_probe"));
    EXPECT_FALSE(Mutex::ThisThreadHoldsNamed("test.some_other_name"));
  }
  EXPECT_FALSE(Mutex::ThisThreadHoldsNamed("test.lock_order_probe"));
}

TEST(MutexTest, NameMatchingIsByContentAcrossInstances) {
  // Two distinct Mutex objects with the same name are one ordering class;
  // the registry compares by string content, not pointer identity
  // (distinct translation units may hold distinct literal copies).
  const std::string name_copy("test.same_name");
  Mutex first("test.same_name");
  Mutex second(name_copy.c_str());
  MutexLock lock(&second);
  EXPECT_TRUE(Mutex::ThisThreadHoldsNamed("test.same_name"));
  EXPECT_FALSE(first.HeldByCurrentThread());
}

TEST(CondVarTest, WaitReleasesAndReacquires) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    // Back from the wait the lock is held again (registry included).
    EXPECT_TRUE(mu.HeldByCurrentThread());
    EXPECT_TRUE(ready);
  }
  producer.join();
  EXPECT_FALSE(mu.HeldByCurrentThread());
}

// --- Cross-subsystem lock-ordering guard (satellite 6) ------------------
//
// MemoryBudget's page pool is a lock-hierarchy leaf: AcquirePage and
// ReleasePage must never run while a shuffle partition lock is held
// (spill inside a partition critical section could wait on the pool while
// a page holder waits on the partition — the classic inversion). The
// static MRTHETA_EXCLUDES(free_mu_) cannot see another class's private
// mutex, so the contract is enforced at runtime through the named
// registry. These tests pin both sides of that guard.

TEST(LockOrderTest, PagePoolWorksWithoutPartitionLock) {
  StatusOr<MemoryBudget::PagePtr> page = MemoryBudget::Global().AcquirePage();
  ASSERT_TRUE(page.ok());
  MemoryBudget::Global().ReleasePage(*std::move(page));
}

TEST(LockOrderTest, PagePoolWorksUnderUnrelatedLocks) {
  Mutex unrelated("test.unrelated");
  MutexLock lock(&unrelated);
  StatusOr<MemoryBudget::PagePtr> page = MemoryBudget::Global().AcquirePage();
  ASSERT_TRUE(page.ok());
  MemoryBudget::Global().ReleasePage(*std::move(page));
}

TEST(LockOrderDeathTest, AcquirePageUnderSpoolPartitionLockAborts) {
  // Any mutex carrying the partition lock name is in the ordering class,
  // whichever class owns it.
  Mutex spool_like(kSpoolPartitionLockName);
  MutexLock lock(&spool_like);
  EXPECT_DEATH(
      // Deliberate discard: the call aborts before returning a page.
      static_cast<void>(MemoryBudget::Global().AcquirePage()),
      "MRTHETA_CHECK failed");
}

TEST(LockOrderDeathTest, ReleasePageUnderSpoolPartitionLockAborts) {
  StatusOr<MemoryBudget::PagePtr> page = MemoryBudget::Global().AcquirePage();
  ASSERT_TRUE(page.ok());
  MemoryBudget::PagePtr& raw = *page;
  Mutex spool_like(kSpoolPartitionLockName);
  {
    MutexLock lock(&spool_like);
    EXPECT_DEATH(MemoryBudget::Global().ReleasePage(std::move(raw)),
                 "MRTHETA_CHECK failed");
  }
  // The parent's page survives the forked death test; give it back.
  MemoryBudget::Global().ReleasePage(*std::move(page));
}

// --- Nested-TraceSession guard (satellite 1) ----------------------------
//
// TraceSession nesting used to be a raw assert(): invisible in NDEBUG
// Release builds, where the inner session silently recorded nothing and
// the caller's trace went missing. It is now an MRTHETA_CHECK that
// aborts in every build type.

TEST(TraceSessionDeathTest, NestingAbortsInEveryBuildType) {
  Tracer outer_tracer;
  TraceSession outer(&outer_tracer);
  Tracer inner_tracer;
  EXPECT_DEATH(TraceSession inner(&inner_tracer), "nested TraceSession");
}

TEST(TraceSessionTest, SequentialSessionsAreFine) {
  Tracer first;
  { TraceSession session(&first); }
  Tracer second;
  { TraceSession session(&second); }
  SUCCEED();
}

}  // namespace
}  // namespace mrtheta
