#ifndef MRTHETA_MEM_HUGE_PAGES_H_
#define MRTHETA_MEM_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace mrtheta {

/// Size and alignment of one transparent huge page (x86-64, 4 KiB base
/// pages).
inline constexpr uintptr_t kHugePageBytes = uintptr_t{2} << 20;

/// The addresses [begin, begin + bytes).
struct AddressRange {
  uintptr_t begin = 0;
  uintptr_t bytes = 0;
};

/// The whole kHugePageBytes-aligned pages inside the buffer of `bytes` at
/// address `begin`: from its first aligned address to its last. Empty
/// (bytes 0) for a null or empty buffer, and for one that holds no whole
/// aligned page. Pure arithmetic, no system call.
AddressRange WholeHugePages(uintptr_t begin, uintptr_t bytes);

/// Advises the kernel (`madvise(MADV_HUGEPAGE)`) to back the whole huge
/// pages of a freshly reserved, not yet written buffer with transparent
/// huge pages, so that writing it takes one page fault per 2 MiB instead
/// of one per 4 KiB. Advice only: the bytes do not change, the head and
/// tail outside the whole pages still fault 4 KiB at a time, and a host
/// whose THP mode is `never` ignores it. Does nothing when the buffer
/// holds no whole aligned page or MADV_HUGEPAGE is not defined
/// (docs/MEMORY.md, "Reducer output path").
void AdviseHugePages(void* data, size_t bytes);

}  // namespace mrtheta

#endif  // MRTHETA_MEM_HUGE_PAGES_H_
