#include "src/mem/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <system_error>
#include <utility>

namespace mrtheta {

namespace {

// Distinguishes the spill directories of executions running concurrently
// in one process (DAG-overlapped plans, concurrent Submits).
std::atomic<uint64_t> g_next_dir_id{0};

}  // namespace

SpillDirectory::~SpillDirectory() {
  std::string path;
  {
    MutexLock lock(&mu_);
    path = path_;
  }
  if (path.empty()) return;
  std::error_code ec;  // best-effort: destructor must not throw
  std::filesystem::remove_all(path, ec);
}

std::string SpillDirectory::path() const {
  MutexLock lock(&mu_);
  return path_;
}

StatusOr<std::string> SpillDirectory::NewFilePath() {
  MutexLock lock(&mu_);
  if (path_.empty()) {
    // $MRTHETA_SPILL_DIR is read here, per directory, not cached
    // process-wide: tests redirect it between executions.
    const char* root_env = std::getenv("MRTHETA_SPILL_DIR");
    std::filesystem::path root;
    if (root_env != nullptr && root_env[0] != '\0') {
      root = root_env;
    } else {
      std::error_code ec;
      root = std::filesystem::temp_directory_path(ec);
      if (ec) {
        return Status::Internal("no temp directory for spill files: " +
                                ec.message());
      }
    }
    const std::filesystem::path dir =
        root / ("mrtheta-spill-" + std::to_string(::getpid()) + "-" +
                std::to_string(
                    g_next_dir_id.fetch_add(1, std::memory_order_relaxed)));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("failed to create spill directory '" +
                              dir.string() + "': " + ec.message());
    }
    path_ = dir.string();
  }
  return path_ + "/spill-" + std::to_string(next_file_++) + ".bin";
}

SpillFile::SpillFile(SpillFile&& other) noexcept
    : path_(std::move(other.path_)),
      write_handle_(other.write_handle_),
      read_fd_(other.read_fd_),
      bytes_written_(other.bytes_written_),
      finished_(other.finished_) {
  other.path_.clear();
  other.write_handle_ = nullptr;
  other.read_fd_ = -1;
  other.bytes_written_ = 0;
  other.finished_ = false;
}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    this->~SpillFile();
    new (this) SpillFile(std::move(other));
  }
  return *this;
}

SpillFile::~SpillFile() {
  if (write_handle_ != nullptr) std::fclose(write_handle_);
  if (read_fd_ >= 0) ::close(read_fd_);
  if (!path_.empty()) {
    std::error_code ec;  // best-effort
    std::filesystem::remove(path_, ec);
  }
}

StatusOr<SpillFile> SpillFile::Create(SpillDirectory& dir) {
  StatusOr<std::string> path = dir.NewFilePath();
  if (!path.ok()) return path.status();
  SpillFile file;
  file.write_handle_ = std::fopen(path->c_str(), "wb");
  if (file.write_handle_ == nullptr) {
    return Status::Internal("failed to create spill file '" + *path + "'");
  }
  file.path_ = *std::move(path);
  return file;
}

Status SpillFile::Append(const void* data, int64_t bytes) {
  if (write_handle_ == nullptr || finished_) {
    return Status::Internal("spill file '" + path_ + "' is not writable");
  }
  if (bytes <= 0) return Status::OK();
  const size_t written =
      std::fwrite(data, 1, static_cast<size_t>(bytes), write_handle_);
  if (written != static_cast<size_t>(bytes)) {
    return Status::ResourceExhausted("short write to spill file '" + path_ +
                                     "' (disk full?)");
  }
  bytes_written_ += bytes;
  return Status::OK();
}

Status SpillFile::Finish() {
  if (finished_) return Status::OK();
  if (write_handle_ == nullptr) {
    return Status::Internal("spill file was never created");
  }
  const int flush = std::fflush(write_handle_);
  const int close = std::fclose(write_handle_);
  write_handle_ = nullptr;
  finished_ = true;
  if (flush != 0 || close != 0) {
    return Status::ResourceExhausted("failed to flush spill file '" + path_ +
                                     "' (disk full?)");
  }
  read_fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (read_fd_ < 0) {
    return Status::Internal("failed to reopen spill file '" + path_ + "'");
  }
  return Status::OK();
}

Status SpillFile::ReadAt(void* out, int64_t offset, int64_t bytes) const {
  if (read_fd_ < 0) {
    return Status::Internal("spill file '" + path_ +
                            "' read before Finish()");
  }
  if (offset < 0 || bytes < 0 || offset > bytes_written_ - bytes) {
    return Status::Internal("spill read range out of bounds");
  }
  auto* dst = static_cast<unsigned char*>(out);
  while (bytes > 0) {
    const ssize_t got = ::pread(read_fd_, dst, static_cast<size_t>(bytes),
                                static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return Status::Internal("short read from spill file '" + path_ + "'");
    }
    dst += got;
    offset += got;
    bytes -= got;
  }
  return Status::OK();
}

}  // namespace mrtheta
