#include "src/mem/huge_pages.h"

#include <sys/mman.h>

namespace mrtheta {

AddressRange WholeHugePages(uintptr_t begin, uintptr_t bytes) {
  const uintptr_t end = begin + bytes;
  // Shorter than a page, or wrapping past the top of the address space.
  if (begin == 0 || bytes < kHugePageBytes || end < begin) return {};
  const uintptr_t mask = kHugePageBytes - 1;
  const uintptr_t first = (begin + mask) & ~mask;
  const uintptr_t last = end & ~mask;
  if (last <= first) return {};
  return {first, last - first};
}

void AdviseHugePages(void* data, size_t bytes) {
#ifdef MADV_HUGEPAGE
  const AddressRange pages =
      WholeHugePages(reinterpret_cast<uintptr_t>(data), bytes);
  if (pages.bytes == 0) return;
  // A refusal (a kernel without THP) leaves the buffer as it was.
  (void)madvise(reinterpret_cast<void*>(pages.begin), pages.bytes,
                MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace mrtheta
