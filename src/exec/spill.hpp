#pragma once

// Spill-to-disk build state (docs/robustness.md).
//
// PR 6's governor turned memory pressure into a clean kResourceExhausted
// trip; this subsystem turns it into graceful degradation instead. A
// statement configured with SessionOptions::spill_watermark_bytes gets a
// per-query SpillManager hanging off its QueryContext, and every governed
// uint32 id-column build (the codec row stores behind CodecAppendSink /
// ProbeAppendSink / JoinBuildSink, and the division operators' probe
// columns) lives in a SpilledU32Store: a flat append-only array that, when
// the governor's OUTSTANDING byte account crosses the soft watermark,
// flushes its complete rows to the statement's anonymous temp file,
// releases their charge, and keeps appending. Reads transparently page
// spilled runs back through a small cache, so the algorithm phases are
// oblivious to where the rows live — results are bit-identical to the
// in-memory path at every thread count, because spilling never reorders
// rows (each store flushes its own prefix in append order).
//
// The hard budget (memory_budget_bytes) still trips kResourceExhausted
// exactly as before; the watermark must sit below it, since a store
// charges an append before it checks whether to flush.
//
// Concurrency: one SpillManager is shared by every store of a statement,
// and concurrent sessions' statements each have their own. Write is
// mutex-serialized and hands each flush a unique file range; Read is
// lock-free (pread). Any single store is written by exactly one thread at
// a time and read after its writes.
//
// Fault sites: spill.open, spill.write, spill.disk_full (per partition
// write), spill.read — all in FaultInjector::KnownSites(), so every I/O
// failure path is deterministically testable; Write/Read also poll the
// governor, so cancellation and deadlines land mid-spill.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace quotient {

class QueryContext;

/// Per-query temp-file writer: one anonymous file (created with mkstemp and
/// immediately unlinked, so any exit reclaims the space), opened lazily on
/// the first flush. One Write call == one spill partition; the counters
/// feed ExecProfile::spill_partitions / spill_bytes_written.
class SpillManager {
 public:
  /// `dir`: where to create the temp file; empty means $TMPDIR or /tmp.
  explicit SpillManager(std::string dir);
  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Appends `bytes` bytes as one partition; returns its file offset.
  /// Serialized internally; polls the governor and consults the
  /// spill.open / spill.write / spill.disk_full fault sites. Throws
  /// QueryAbort on I/O failure.
  uint64_t Write(const void* data, size_t bytes);

  /// Reads `bytes` bytes at `offset` (a range some Write returned).
  /// Lock-free; polls the governor and consults spill.read.
  void Read(void* dst, size_t bytes, uint64_t offset);

  size_t partitions() const { return partitions_.load(std::memory_order_relaxed); }
  size_t bytes_written() const { return bytes_written_.load(std::memory_order_relaxed); }

 private:
  void EnsureOpenLocked();

  std::string dir_;
  std::mutex mutex_;               // serializes open + write + end_
  std::atomic<int> fd_{-1};        // set once under mutex_, read lock-free
  uint64_t end_ = 0;               // next write offset (under mutex_)
  std::atomic<size_t> partitions_{0};
  std::atomic<size_t> bytes_written_{0};
};

/// An append-only array of fixed-stride uint32 rows that spills its prefix
/// to the current query's SpillManager when the governor crosses the soft
/// watermark. Appends charge the governor (8 bytes per id, matching the
/// coarse accounting the sinks used before); a flush releases the charge
/// for the rows it moved to disk.
///
/// The default-constructed store has stride 0 and is inert (supports
/// zero-key-column codecs: Row() returns nullptr, rows() counts only what
/// callers Append with nrows > 0 — which for stride 0 is nothing).
///
/// Writes are single-threaded per store; reads are single-threaded per
/// store (a mutable page cache serves spilled rows). Row(i) stays valid
/// only until the next Row/At call.
class SpilledU32Store {
 public:
  SpilledU32Store() = default;
  explicit SpilledU32Store(size_t stride) : stride_(stride) {}
  ~SpilledU32Store() = default;  // never releases charges: may outlive the ctx

  SpilledU32Store(SpilledU32Store&& other) noexcept { *this = std::move(other); }
  SpilledU32Store& operator=(SpilledU32Store&& other) noexcept;
  SpilledU32Store(const SpilledU32Store&) = delete;
  SpilledU32Store& operator=(const SpilledU32Store&) = delete;

  /// Reserves in-memory capacity for `rows` rows, clamped to the spill
  /// watermark when one is active (no point reserving what will flush).
  void Reserve(size_t rows);

  /// Appends `nrows` complete rows (nrows * stride ids), then flushes to
  /// disk if the governor is past the watermark.
  void Append(const uint32_t* ids, size_t nrows);

  /// Pointer to row `row`'s `stride` ids; for spilled rows, served from a
  /// page cache and valid only until the next Row/At call.
  const uint32_t* Row(size_t row) const;

  /// Stride-1 convenience read.
  uint32_t At(size_t row) const { return *Row(row); }

  size_t rows() const { return rows_; }
  size_t stride() const { return stride_; }

  /// Drops all rows (memory and spilled-run bookkeeping). Does NOT release
  /// governor charges — see DetachCharges().
  void Clear();

  /// Releases the outstanding charge AND forgets the charging context and
  /// spill file, so the store can outlive the query that built it (recycled
  /// build state, exec/recycler.hpp). Only valid for stores that never
  /// spilled (!on_disk()): a spilled store reads through the per-query temp
  /// file. Only call while the charging QueryContext is alive.
  void DetachCharges();

  /// True when some rows were flushed to the spill file. Reads of such rows
  /// go through a mutable page cache and a per-query file — an on-disk
  /// store is single-reader and must never be shared across queries.
  bool on_disk() const { return !runs_.empty(); }

 private:
  struct Run {
    uint64_t offset;    // file offset of the run
    size_t first_row;   // global index of its first row
    size_t nrows;
  };

  void MaybeSpill();
  void Flush();
  const uint32_t* SpilledRow(size_t row) const;

  size_t stride_ = 0;
  size_t rows_ = 0;            // total rows (spilled + in memory)
  size_t mem_first_row_ = 0;   // global index of mem_'s first row
  std::vector<uint32_t> mem_;
  std::vector<Run> runs_;      // ascending first_row
  SpillManager* spill_ = nullptr;  // cached at first flush, for reads

  size_t charged_ = 0;             // bytes charged and not yet released
  QueryContext* charge_ctx_ = nullptr;

  // Read cache for spilled rows (single-threaded readers only).
  mutable std::vector<uint32_t> cache_;
  mutable size_t cache_first_row_ = 0;
  mutable size_t cache_rows_ = 0;
};

}  // namespace quotient
