// Runtime behaviour of the annotated lock primitives
// (src/common/thread_annotations.h, docs/STATIC_ANALYSIS.md): the CondVar
// wait contract, and the nested-TraceSession CHECK (formerly an assert()
// that vanished in Release builds). The *static* side — that mis-locked code
// fails to compile — is covered by scripts/check_thread_safety.sh over
// tests/static/.

#include <thread>

#include <gtest/gtest.h>

#include "src/common/thread_annotations.h"
#include "src/obs/trace.h"

namespace mrtheta {
namespace {

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
    EXPECT_TRUE(ready);
  }
  producer.join();
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
