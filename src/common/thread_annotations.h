#ifndef MRTHETA_COMMON_THREAD_ANNOTATIONS_H_
#define MRTHETA_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

/// \file
/// Clang Thread Safety Analysis annotations and the annotated lock
/// primitives every concurrent subsystem must use (docs/STATIC_ANALYSIS.md).
///
/// The macros expand to Clang's thread-safety attributes when compiling
/// with clang and to nothing elsewhere, so gcc builds are unaffected while
/// the CI lint job builds the library with
/// `-Wthread-safety -Werror=thread-safety` and turns every lock-discipline
/// violation (a MRTHETA_GUARDED_BY member touched without its lock, a
/// *Locked function called outside its MRTHETA_REQUIRES mutex, an unpaired
/// acquire/release) into a compile error instead of a TSan finding that
/// needs the race to actually interleave.
///
/// Raw `std::mutex` members are banned in src/ (scripts/lint.py): the
/// analysis cannot see through them. Use `Mutex` + `MutexLock` + `CondVar`
/// below — a zero-overhead wrapper over std::mutex /
/// std::condition_variable that additionally maintains a per-thread
/// held-lock registry (HeldByCurrentThread) for runtime checks on paths
/// the static analysis cannot follow.

#if defined(__clang__) && !defined(SWIG)
#define MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Declares a type to be a lockable capability ("mutex").
#define MRTHETA_CAPABILITY(x) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII type whose lifetime is a critical section.
#define MRTHETA_SCOPED_CAPABILITY \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Member may only be accessed while holding `x`.
#define MRTHETA_GUARDED_BY(x) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Pointee may only be accessed while holding `x` (the pointer itself is
/// unguarded).
#define MRTHETA_PT_GUARDED_BY(x) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Function requires the caller to hold `...` (the *Locked convention).
#define MRTHETA_REQUIRES(...) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// Function acquires `...` and holds it on return.
#define MRTHETA_ACQUIRE(...) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// Function releases `...` (held on entry, released on return).
#define MRTHETA_RELEASE(...) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// Function acquires `...` when returning the given value.
#define MRTHETA_TRY_ACQUIRE(...) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding `...` — the static face of a
/// deadlock-ordering rule (self-deadlock, lock-hierarchy leaves).
#define MRTHETA_EXCLUDES(...) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held without acquiring it (for
/// assertion helpers).
#define MRTHETA_ASSERT_CAPABILITY(x) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

/// Function returns a reference to the given capability.
#define MRTHETA_RETURN_CAPABILITY(x) \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment justifying it and is subject to the suppression policy in
/// docs/STATIC_ANALYSIS.md (grep-able, reviewed, exceptional).
#define MRTHETA_NO_THREAD_SAFETY_ANALYSIS \
  MRTHETA_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace mrtheta {

/// \brief The project's annotated mutex: std::mutex plus (a) the
/// MRTHETA_CAPABILITY attribute that makes Clang's thread-safety analysis
/// track it, and (b) a per-thread held-lock registry behind
/// HeldByCurrentThread.
///
/// The registry costs one thread_local vector push/pop per Lock/Unlock —
/// nanoseconds, and every Mutex in this codebase is on a per-task or
/// per-phase path, never per-row.
class MRTHETA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MRTHETA_ACQUIRE() {
    mu_.lock();
    PushHeld(this);
  }
  void Unlock() MRTHETA_RELEASE() {
    PopHeld(this);
    mu_.unlock();
  }
  bool TryLock() MRTHETA_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    PushHeld(this);
    return true;
  }

  /// True when the calling thread holds this mutex. For MRTHETA_CHECKs on
  /// paths the static analysis cannot follow (callbacks, type-erased
  /// functions).
  bool HeldByCurrentThread() const;

 private:
  friend class CondVar;

  static void PushHeld(const Mutex* mu);
  static void PopHeld(const Mutex* mu);

  std::mutex mu_;
};

/// RAII critical section over a Mutex; the annotated replacement for
/// std::lock_guard / std::unique_lock (both banned in src/ by
/// scripts/lint.py — the analysis cannot see through them).
class MRTHETA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) MRTHETA_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() MRTHETA_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to the annotated Mutex. Wait atomically
/// releases and reacquires `mu`, so the caller's annotated critical
/// section is intact around it — the canonical pattern is
///
///   MutexLock lock(&mu_);
///   while (!predicate()) cv_.Wait(&mu_);
///
/// which the analysis accepts because Wait is MRTHETA_REQUIRES(mu).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified; `mu` must be held (spurious wake-ups happen,
  /// callers loop on their predicate).
  void Wait(Mutex* mu) MRTHETA_REQUIRES(mu) {
    // Adopt the already-held std::mutex for the wait, then release the
    // unique_lock's ownership claim so the Mutex wrapper keeps it. The
    // held-lock registry deliberately keeps the entry during the wait: the
    // thread still logically owns the critical section.
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mrtheta

#endif  // MRTHETA_COMMON_THREAD_ANNOTATIONS_H_
