#include <array>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "src/mapreduce/job.h"
#include "src/obs/trace.h"

namespace mrtheta {

namespace {
constexpr int64_t kRecordBytes = static_cast<int64_t>(sizeof(MapOutputRecord));
}  // namespace

MapEmitter& MapEmitter::operator=(MapEmitter&& other) noexcept {
  if (this != &other) {
    this->~MapEmitter();  // return our pages to the budget first
    new (this) MapEmitter(std::move(other));
    other.Clear();
  }
  return *this;
}

void MapEmitter::Reserve(size_t records) {
  if (!status_.ok()) return;
  // No container of records can hold more than this (about 2^58), so such a
  // hint is refused before the allocator sees it: sanitizer allocators
  // abort on an impossible size instead of throwing std::bad_alloc.
  if (records > std::vector<MapOutputRecord>().max_size()) {
    status_ = Status::ResourceExhausted(
        "map emit reservation for " + std::to_string(records) +
        " records exceeds the largest record container");
    return;
  }
  try {
    pages_.reserve(records / static_cast<size_t>(kRecordsPerPage) + 1);
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted(
        "map emit reservation for " + std::to_string(records) +
        " records failed");
  }
}

bool MapEmitter::AddPage() {
  StatusOr<MemoryBudget::PagePtr> page = MemoryBudget::Global().AcquirePage();
  if (!page.ok()) {
    status_ = page.status();
    return false;
  }
  try {
    pages_.push_back(*std::move(page));
  } catch (const std::bad_alloc&) {
    MemoryBudget::Global().ReleasePage(*std::move(page));
    status_ = Status::ResourceExhausted("map emit page table growth failed");
    return false;
  }
  last_page_records_ = 0;
  return true;
}

void MapEmitter::EndRow() {
  if (!status_.ok()) return;
  if (spill_dir_ != nullptr &&
      MemoryBudget::Global().OverBudget(spill_limit_bytes_)) {
    // Full pages only; the partial last page keeps filling.
    int64_t full = static_cast<int64_t>(pages_.size());
    if (full > 0 && last_page_records_ < kRecordsPerPage) --full;
    if (full > 0) SpillRun(full * kRecordsPerPage);
  }
}

bool MapEmitter::IndexResident(int64_t count) {
  if (count > std::numeric_limits<uint32_t>::max()) {
    status_ = Status::ResourceExhausted(
        "map task holds " + std::to_string(count) +
        " resident records, more than its index can address");
    return false;
  }
  const int n = num_tasks();
  std::vector<int64_t> cursor;
  try {
    index_offsets_.assign(static_cast<size_t>(n) + 1, 0);
    index_.resize(static_cast<size_t>(count));
    cursor.resize(static_cast<size_t>(n));
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted("map output index allocation failed");
    return false;
  }
  for (int64_t i = 0; i < count; ++i) ++index_offsets_[Resident(i).target + 1];
  for (int t = 0; t < n; ++t) {
    index_offsets_[t + 1] += index_offsets_[t];
    cursor[t] = index_offsets_[t];
  }
  // A forward scatter keeps each task's positions in emit order.
  for (int64_t i = 0; i < count; ++i) {
    index_[cursor[Resident(i).target]++] = static_cast<uint32_t>(i);
  }
  return true;
}

void MapEmitter::SpillRun(int64_t count) {
  if (!spill_file_.has_value()) {
    StatusOr<SpillFile> file = SpillFile::Create(*spill_dir_);
    if (!file.ok()) {
      status_ = file.status();
      return;
    }
    spill_file_ = *std::move(file);
  }
  if (!IndexResident(count)) return;
  TraceSpan span("spill-write", "mem");
  const int64_t base = spill_file_->bytes_written() / kRecordBytes;
  std::array<MapOutputRecord, 512> stage;
  size_t staged = 0;
  for (int64_t i = 0; i < count; ++i) {
    stage[staged++] = Resident(index_[i]);
    if (staged == stage.size() || i + 1 == count) {
      Status s = spill_file_->Append(
          stage.data(), static_cast<int64_t>(staged) * kRecordBytes);
      if (!s.ok()) {
        status_ = std::move(s);
        return;
      }
      staged = 0;
    }
  }
  try {
    for (int64_t offset : index_offsets_) run_offsets_.push_back(base + offset);
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted("spill run offsets growth failed");
    return;
  }
  spilled_records_ += count;
  spilled_bytes_ += count * kRecordBytes;
  if (span.enabled()) span.Arg("bytes", count * kRecordBytes);
  // The run is whole pages, or every resident record: drop its pages.
  const size_t pages = static_cast<size_t>(
      (count + kRecordsPerPage - 1) / kRecordsPerPage);
  for (size_t p = 0; p < pages; ++p) {
    MemoryBudget::Global().ReleasePage(std::move(pages_[p]));
  }
  pages_.erase(pages_.begin(), pages_.begin() + static_cast<ptrdiff_t>(pages));
  if (pages_.empty()) last_page_records_ = 0;
  index_ = {};
  index_offsets_.clear();
}

Status MapEmitter::Finish() {
  if (!status_.ok()) return status_;
  const int64_t resident = size_ - spilled_records_;
  // Resident output lives until the reduce phase ends, so a finished task
  // keeps its records only while at most half the budget is in use: the
  // running tasks keep the other half to fill, and their runs stay many
  // pages long instead of one page each.
  const int64_t keep_limit = spill_limit_bytes_ - spill_limit_bytes_ / 2;
  if (resident > 0 && spill_dir_ != nullptr &&
      MemoryBudget::Global().OverBudget(keep_limit)) {
    SpillRun(resident);
  } else if (IndexResident(resident)) {
    index_charge_ = ScopedCharge(
        static_cast<int64_t>(index_.capacity() * sizeof(uint32_t) +
                             index_offsets_.capacity() * sizeof(int64_t)));
  }
  if (status_.ok() && spill_file_.has_value()) status_ = spill_file_->Finish();
  if (!status_.ok()) return status_;
  const int n = num_tasks();
  try {
    task_records_.assign(static_cast<size_t>(n), 0);
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted("map output counts allocation failed");
    return status_;
  }
  const size_t stride = static_cast<size_t>(n) + 1;
  for (size_t r = 0; r < run_offsets_.size(); r += stride) {
    for (int t = 0; t < n; ++t) {
      task_records_[t] += run_offsets_[r + t + 1] - run_offsets_[r + t];
    }
  }
  for (int t = 0; t < n; ++t) task_records_[t] += ResidentTaskRecords(t);
  return status_;
}

Status MapEmitter::ReadSpilledTask(int t, MapOutputRecord* out) const {
  const size_t stride = static_cast<size_t>(num_tasks()) + 1;
  for (size_t r = 0; r < run_offsets_.size(); r += stride) {
    const int64_t begin = run_offsets_[r + t];
    const int64_t count = run_offsets_[r + t + 1] - begin;
    if (count == 0) continue;
    MRTHETA_RETURN_IF_ERROR(spill_file_->ReadAt(out, begin * kRecordBytes,
                                                count * kRecordBytes));
    out += count;
  }
  return Status::OK();
}

void MapEmitter::CopyResidentTask(int t, MapOutputRecord* out) const {
  if (index_offsets_.empty()) return;
  for (int64_t i = index_offsets_[t]; i < index_offsets_[t + 1]; ++i) {
    *out++ = Resident(index_[i]);
  }
}

void MapEmitter::Clear() {
  for (MemoryBudget::PagePtr& page : pages_) {
    MemoryBudget::Global().ReleasePage(std::move(page));
  }
  pages_.clear();
  last_page_records_ = 0;
  size_ = 0;
  spilled_records_ = 0;
  status_ = Status::OK();
  partition_ = nullptr;
  num_reduce_tasks_ = 0;
  spill_limit_bytes_ = 0;
  spill_dir_ = nullptr;
  spill_file_.reset();
  spilled_bytes_ = 0;
  run_offsets_.clear();
  index_ = {};
  index_offsets_.clear();
  index_charge_.Release();
  task_records_.clear();
}

}  // namespace mrtheta
