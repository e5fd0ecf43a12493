#include "exec/spill.hpp"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "exec/query_context.hpp"

namespace quotient {

namespace {

// Rows per read-cache page. Large enough that sequential scans over spilled
// runs amortize the pread; small enough that re-draining stays bounded.
constexpr size_t kCacheRows = 1024;

}  // namespace

// ---------------------------------------------------------------- manager

SpillManager::SpillManager(std::string dir) : dir_(std::move(dir)) {}

SpillManager::~SpillManager() {
  int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

void SpillManager::EnsureOpenLocked() {
  if (fd_.load(std::memory_order_relaxed) >= 0) return;
  GovernorFaultPoint("spill.open");
  std::string dir = dir_;
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  std::string path = dir + "/quotient-spill-XXXXXX";
  std::vector<char> buf(path.begin(), path.end());
  buf.push_back('\0');
  int fd = ::mkstemp(buf.data());
  if (fd < 0) {
    throw QueryAbort(Status::Error(std::string("spill open failed: ") + buf.data() +
                                   ": " + ::strerror(errno)));
  }
  // Anonymous: the space is reclaimed on close no matter how we exit.
  ::unlink(buf.data());
  fd_.store(fd, std::memory_order_release);
}

uint64_t SpillManager::Write(const void* data, size_t bytes) {
  // Poll + fault before taking the lock, so a trip never holds up other
  // flushing stores.
  GovernorPoll();
  GovernorFaultPoint("spill.write");
  GovernorFaultPoint("spill.disk_full");
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureOpenLocked();
  int fd = fd_.load(std::memory_order_relaxed);
  const uint64_t offset = end_;
  const char* p = static_cast<const char*>(data);
  size_t remaining = bytes;
  uint64_t at = offset;
  while (remaining > 0) {
    ssize_t n = ::pwrite(fd, p, remaining, static_cast<off_t>(at));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw QueryAbort(
          Status::Error(std::string("spill write failed: ") + ::strerror(errno)));
    }
    p += n;
    at += static_cast<uint64_t>(n);
    remaining -= static_cast<size_t>(n);
  }
  end_ += bytes;
  partitions_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  return offset;
}

void SpillManager::Read(void* dst, size_t bytes, uint64_t offset) {
  GovernorPoll();
  GovernorFaultPoint("spill.read");
  int fd = fd_.load(std::memory_order_acquire);
  char* p = static_cast<char*>(dst);
  size_t remaining = bytes;
  uint64_t at = offset;
  while (remaining > 0) {
    ssize_t n = ::pread(fd, p, remaining, static_cast<off_t>(at));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw QueryAbort(Status::Error(
          std::string("spill read failed: ") +
          (n < 0 ? ::strerror(errno) : "short read past end of spill file")));
    }
    p += n;
    at += static_cast<uint64_t>(n);
    remaining -= static_cast<size_t>(n);
  }
}

// ------------------------------------------------------------------ store

SpilledU32Store& SpilledU32Store::operator=(SpilledU32Store&& other) noexcept {
  if (this == &other) return *this;
  // Charges travel with the rows they account for; the overwritten state's
  // charge stays with its ctx (released by whoever owned it, or absorbed as
  // permanent build-state accounting).
  stride_ = other.stride_;
  rows_ = other.rows_;
  mem_first_row_ = other.mem_first_row_;
  mem_ = std::move(other.mem_);
  runs_ = std::move(other.runs_);
  spill_ = other.spill_;
  charged_ = other.charged_;
  charge_ctx_ = other.charge_ctx_;
  cache_ = std::move(other.cache_);
  cache_first_row_ = other.cache_first_row_;
  cache_rows_ = other.cache_rows_;
  other.stride_ = 0;
  other.rows_ = 0;
  other.mem_first_row_ = 0;
  other.runs_.clear();
  other.spill_ = nullptr;
  other.charged_ = 0;
  other.charge_ctx_ = nullptr;
  other.cache_rows_ = 0;
  return *this;
}

void SpilledU32Store::Reserve(size_t rows) {
  if (stride_ == 0) return;
  if (QueryContext* ctx = CurrentQueryContext()) {
    size_t watermark = ctx->spill_watermark_bytes();
    if (watermark > 0) {
      size_t max_rows = watermark / (stride_ * sizeof(uint32_t));
      rows = std::min(rows, max_rows);
    }
  }
  mem_.reserve(rows * stride_);
}

void SpilledU32Store::Append(const uint32_t* ids, size_t nrows) {
  if (nrows == 0) return;
  rows_ += nrows;
  if (stride_ == 0) return;  // inert store: row count only
  // Record the charge before Charge() so a budget trip mid-append still
  // releases the full amount on the owner's unwind path.
  if (charge_ctx_ == nullptr) charge_ctx_ = CurrentQueryContext();
  mem_.insert(mem_.end(), ids, ids + nrows * stride_);
  if (charge_ctx_ != nullptr) {
    size_t bytes = nrows * stride_ * 8;  // coarse: ids + hash/aux overhead
    charged_ += bytes;
    charge_ctx_->Charge(bytes);
  }
  MaybeSpill();
}

void SpilledU32Store::MaybeSpill() {
  QueryContext* ctx = charge_ctx_;
  if (ctx == nullptr || mem_.empty() || !ctx->ShouldSpill()) return;
  Flush();
}

void SpilledU32Store::Flush() {
  SpillManager* spill = charge_ctx_ != nullptr ? charge_ctx_->spill() : nullptr;
  if (spill == nullptr) return;
  uint64_t offset = spill->Write(mem_.data(), mem_.size() * sizeof(uint32_t));
  spill_ = spill;
  size_t nrows = mem_.size() / stride_;
  runs_.push_back(Run{offset, mem_first_row_, nrows});
  mem_first_row_ += nrows;
  mem_.clear();
  mem_.shrink_to_fit();
  if (charged_ > 0) {
    charge_ctx_->Release(charged_);
    charged_ = 0;
  }
}

const uint32_t* SpilledU32Store::Row(size_t row) const {
  if (stride_ == 0) return nullptr;
  if (row >= mem_first_row_) return mem_.data() + (row - mem_first_row_) * stride_;
  return SpilledRow(row);
}

const uint32_t* SpilledU32Store::SpilledRow(size_t row) const {
  if (row >= cache_first_row_ && row < cache_first_row_ + cache_rows_) {
    return cache_.data() + (row - cache_first_row_) * stride_;
  }
  // Find the run containing `row`: last run with first_row <= row.
  auto it = std::upper_bound(runs_.begin(), runs_.end(), row,
                             [](size_t r, const Run& run) { return r < run.first_row; });
  const Run& run = *(it - 1);
  size_t in_run = row - run.first_row;
  size_t page_rows = std::min(kCacheRows, run.nrows - in_run);
  cache_.resize(page_rows * stride_);
  spill_->Read(cache_.data(), page_rows * stride_ * sizeof(uint32_t),
               run.offset + static_cast<uint64_t>(in_run) * stride_ * sizeof(uint32_t));
  cache_first_row_ = row;
  cache_rows_ = page_rows;
  return cache_.data();
}

void SpilledU32Store::Clear() {
  rows_ = 0;
  mem_first_row_ = 0;
  mem_.clear();
  runs_.clear();
  cache_.clear();
  cache_rows_ = 0;
  // charged_ / charge_ctx_ untouched: Clear() does not return memory to the
  // governor (the owner decides via DetachCharges or keeps it permanent).
}

void SpilledU32Store::DetachCharges() {
  if (charge_ctx_ != nullptr && charged_ > 0) {
    charge_ctx_->Release(charged_);
    charged_ = 0;
  }
  charge_ctx_ = nullptr;
  spill_ = nullptr;  // per-query file; a detached store must never read it
}

}  // namespace quotient
