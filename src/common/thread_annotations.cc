#include "src/common/thread_annotations.h"

#include <algorithm>
#include <vector>

namespace mrtheta {

namespace {

/// The calling thread's currently-held annotated mutexes, in acquisition
/// order. A plain vector: the registry holds a handful of entries (lock
/// nesting in this codebase is 2-3 deep) and push/pop from the back is one
/// pointer move.
std::vector<const Mutex*>& HeldLocks() {
  thread_local std::vector<const Mutex*> held;
  return held;
}

}  // namespace

void Mutex::PushHeld(const Mutex* mu) { HeldLocks().push_back(mu); }

void Mutex::PopHeld(const Mutex* mu) {
  std::vector<const Mutex*>& held = HeldLocks();
  // Search from the back: unlocks are almost always LIFO, and non-LIFO
  // release (manual Lock/Unlock sequences) still pops the right entry.
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == mu) {
      held.erase(std::next(it).base());
      return;
    }
  }
  // Unlocking a mutex this thread never locked is a discipline violation
  // the static analysis would have caught on clang; tolerate it here (the
  // std::mutex unlock itself is already UB) rather than abort twice.
}

bool Mutex::HeldByCurrentThread() const {
  const std::vector<const Mutex*>& held = HeldLocks();
  return std::find(held.begin(), held.end(), this) != held.end();
}

}  // namespace mrtheta
