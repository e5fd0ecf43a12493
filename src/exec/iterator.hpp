#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "algebra/relation.hpp"
#include "exec/batch.hpp"

namespace quotient {

/// What an operator's output stream is known to satisfy, by column
/// position, derived once in its constructor from its children's records
/// (interesting orders and functional-dependency reduction, Simmen,
/// Shekita & Malkemus, SIGMOD 1996; docs/batched_execution.md).
struct StreamProperties {
  /// Column sets no two rows share, each sorted. Every stream is a set, so
  /// its full column set is always one of them.
  std::vector<std::vector<size_t>> keys;
  /// Columns the stream is grouped on, in order: for every prefix, rows
  /// equal there arrive contiguously.
  std::vector<size_t> clustering;

  /// A set of `width` columns: the full column set is its one key.
  static StreamProperties Set(size_t width);
  /// Adds `key` (any order) unless it is already listed.
  void AddKey(std::vector<size_t> key);
  /// True when `columns` (any order) include one of the keys.
  bool HoldsKey(const std::vector<size_t>& columns) const;
  /// True when `columns` (any order) are the first |columns| clustering
  /// columns, so rows equal on them arrive contiguously.
  bool GroupedOn(const std::vector<size_t>& columns) const;
  /// The record of a stream whose column c is this stream's column
  /// `from[c]` and that keeps this stream's rows in order (π, the probe
  /// side of a join): the keys it retains whole and the clustering prefix
  /// it retains, renumbered. `width` is the new stream's column count; a
  /// column absent from `from` maps nowhere.
  StreamProperties Map(const std::vector<size_t>& from, size_t width) const;
};

/// Physical operator: Open / NextBatch / Close. NextBatch() is the only
/// pull contract: it moves ~GetBatchRows() rows per virtual call as columns
/// of dictionary ids or row views (see docs/batched_execution.md).
/// Every iterator counts the tuples it produces; ExecStats aggregates those
/// counters over a plan so benchmarks can report intermediate-result sizes
/// (the quantity the Leinders/Van den Bussche result in §6 is about).
class Iterator {
 public:
  virtual ~Iterator() = default;

  /// The output schema; valid before Open().
  virtual const Schema& schema() const = 0;
  /// Acquires resources / builds hash tables. Must be called before
  /// NextBatch().
  virtual void Open() = 0;

  /// Batched pull: fills `out` with the next 1..GetBatchRows() active rows
  /// (batch-producing operators may emit more when forwarding a child batch
  /// whose selection they only narrow). Returns false at end of stream —
  /// a true return always carries at least one active row. The batch's
  /// contents are valid until the next NextBatch() call on this iterator.
  virtual bool NextBatch(Batch* out) = 0;

  /// Releases resources; the iterator may be re-Opened afterwards.
  virtual void Close() = 0;

  /// Operator name for EXPLAIN output.
  virtual const char* name() const = 0;

  /// Optional EXPLAIN ANALYZE annotation, e.g. which kernel path ran.
  virtual const char* ExplainNote() const { return nullptr; }

  /// Keys and clustering of the output stream; valid before Open().
  const StreamProperties& properties() const { return properties_; }

  /// Children for plan walking (non-owning).
  virtual std::vector<Iterator*> InputIterators() = 0;

  /// Upper-bound row-count hint for pre-sizing buffers and hash tables;
  /// 0 means unknown. Valid before Open().
  virtual size_t EstimatedRows() const { return 0; }

  /// Indices (into InputIterators()) of the children this operator fully
  /// drains during Open() — the pipeline-breaker edges where the executor
  /// splits the plan into pipelines (exec/pipeline.hpp). Children not
  /// listed stream lazily and belong to this operator's own pipeline.
  virtual std::vector<size_t> BlockingInputs() { return {}; }

  /// Tuples this operator has produced since Open().
  size_t rows_produced() const { return rows_produced_.load(std::memory_order_relaxed); }

  /// Degree of parallelism the last Open() recorded for this operator's
  /// pipeline drains (0 = none recorded; streaming operators never do).
  size_t pipeline_dop() const { return pipeline_dop_; }

  /// Pipeline-executor accounting hook: credits rows produced when a
  /// parallel pipeline reads morsel spans straight from storage instead of
  /// pulling this operator's NextBatch. Keeps EXPLAIN row totals identical
  /// across thread counts.
  void AddProducedRows(size_t n) { CountRows(n); }

 protected:
  /// Operators count active rows, not batches, so ExplainTree and
  /// TotalRowsProduced stay comparable across batch sizes.
  void CountRows(size_t n) { rows_produced_.fetch_add(n, std::memory_order_relaxed); }
  /// Clears the row counter AND the recorded pipeline parallelism; every
  /// operator calls this at the top of Open().
  void ResetCount() {
    rows_produced_.store(0, std::memory_order_relaxed);
    pipeline_dop_ = 0;
  }
  /// Blocking operators record the parallelism of each drain; EXPLAIN
  /// shows the maximum over this Open()'s pipelines.
  void RecordPipelineDop(size_t dop) { pipeline_dop_ = std::max(pipeline_dop_, dop); }
  // Atomic so workers may account concurrently; the pipeline executor's
  // merge discipline means all updates normally happen on the owning
  // thread, but the counter must stay exact under any future interleaving.
  std::atomic<size_t> rows_produced_{0};
  size_t pipeline_dop_ = 0;
  // Set by every operator's constructor.
  StreamProperties properties_;
};

using IterPtr = std::unique_ptr<Iterator>;

/// Pulls every remaining batch of an Open()ed `it` and appends its active
/// rows to `rows`, polling the governor once per batch.
void DrainRows(Iterator& it, std::vector<Tuple>* rows);

/// Drains `it` (Open/.../Close) into a canonical Relation.
Relation ExecuteToRelation(Iterator& it);

/// Sum of rows_produced over the whole plan (call after draining).
size_t TotalRowsProduced(Iterator& root);

/// Largest rows_produced of any single operator in the plan.
size_t MaxRowsProduced(Iterator& root);

/// Largest pipeline degree of parallelism recorded anywhere in the plan
/// (0 when the plan has no blocking drain).
size_t MaxPipelineDop(Iterator& root);

/// Indented operator tree with per-operator row counts, for EXPLAIN ANALYZE
/// style output.
std::string ExplainTree(Iterator& root);

}  // namespace quotient
