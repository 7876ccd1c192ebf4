#ifndef MRTHETA_MEM_SPILL_H_
#define MRTHETA_MEM_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace mrtheta {

/// \brief A per-execution temporary directory for spill files
/// (docs/MEMORY.md).
///
/// The directory is created lazily on the first NewFilePath() call —
/// executions that never spill touch the filesystem not at all — under
/// $MRTHETA_SPILL_DIR (re-read on every construction, so tests can
/// redirect it) or the system temp directory. The destructor removes the
/// whole tree, which is what guarantees cleanup on success, failure and
/// cancellation alike: the executor keeps one SpillDirectory on the
/// RunOn stack, so every exit path unwinds through it.
///
/// Thread-safe: concurrent plan jobs of one execution share a directory.
class SpillDirectory {
 public:
  SpillDirectory() = default;
  SpillDirectory(const SpillDirectory&) = delete;
  SpillDirectory& operator=(const SpillDirectory&) = delete;
  ~SpillDirectory();

  /// Creates the directory on first use and returns a unique file path in
  /// it (the file itself is not created).
  StatusOr<std::string> NewFilePath();

  /// The directory path; empty until the first NewFilePath().
  std::string path() const;

 private:
  mutable Mutex mu_;
  std::string path_ MRTHETA_GUARDED_BY(mu_);
  int next_file_ MRTHETA_GUARDED_BY(mu_) = 0;
};

/// \brief One append-then-read spill stream: raw bytes written
/// sequentially, then read back by position. The file is removed on
/// destruction, so an abandoned attempt's spill disappears with its
/// emitter.
///
/// Record-agnostic by design (callers write POD record arrays as bytes),
/// which keeps src/mem free of src/mapreduce types.
class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile();

  /// Creates an empty spill stream in `dir`.
  static StatusOr<SpillFile> Create(SpillDirectory& dir);

  bool open() const { return write_handle_ != nullptr; }

  /// Appends `bytes` raw bytes. Invalid after Finish().
  Status Append(const void* data, int64_t bytes);
  /// Flushes and closes the write handle, then opens the one read
  /// descriptor every ReadAt() shares. Idempotent.
  Status Finish();

  int64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  /// Reads bytes [offset, offset + bytes) of a finished stream into `out`
  /// with pread(2), so concurrent reads of one file need no lock.
  Status ReadAt(void* out, int64_t offset, int64_t bytes) const;

 private:
  std::string path_;
  std::FILE* write_handle_ = nullptr;
  int read_fd_ = -1;
  int64_t bytes_written_ = 0;
  bool finished_ = false;
};

}  // namespace mrtheta

#endif  // MRTHETA_MEM_SPILL_H_
