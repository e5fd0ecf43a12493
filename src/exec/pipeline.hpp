#pragma once

// Pipeline-based executor (docs/parallel_execution.md).
//
// A physical plan decomposes into pipelines at its breaker edges — child
// streams a blocking operator fully drains during Open(): hash-table
// builds, division divisor and dividend drains, grouping, set-operation
// build sides. Each such drain is "source → streaming ops → sink", and
// RunPipeline folds its batches straight into the sink on the calling
// thread.
//
// One sink fans out: the dividend drain of a clustered division
// (DivisionRunSink, exec/division_runs.hpp). Its own RunPipeline overload
// splits a scan source into contiguous chunks of id spans, a worker pool
// (exec/scheduler.hpp) folds each chunk into a partial state, and the
// partials merge in chunk-index order. Chunks of a dividend clustered on A
// share at most their boundary runs (the paper's Law 2), so the merge
// touches two runs per chunk and the output equals the serial drain's at
// every thread count. Every other sink would have to re-intern each
// chunk's values in serial order to stay bit-identical, which costs more
// than the parallel phase saves.

#include <string>
#include <vector>

#include "exec/batch.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"
#include "exec/spill.hpp"

namespace quotient {

/// Target rows per parallel chunk (a "morsel" of contiguous source ids).
/// Chunks grow past this when the input is large relative to the worker
/// count (at most ~4 chunks per worker), and are never smaller than one
/// batch. A drain fans out only past a fixed number of morsels per worker
/// (ChoosePipeline). Default 4096; tests shrink it to force multi-chunk
/// schedules on small fixtures.
size_t GetMorselRows();
void SetMorselRows(size_t rows);

/// RAII guard for the knob above. Like ScopedExecThreads it restores on any
/// unwind (a faulted or cancelled test must not poison the process
/// globals for the rest of the suite) and is non-copyable so an accidental
/// copy cannot restore twice.
struct ScopedMorselRows {
  explicit ScopedMorselRows(size_t rows) : saved(GetMorselRows()) { SetMorselRows(rows); }
  ~ScopedMorselRows() { SetMorselRows(saved); }
  ScopedMorselRows(const ScopedMorselRows&) = delete;
  ScopedMorselRows& operator=(const ScopedMorselRows&) = delete;
  size_t saved;
};

/// Per-drain execution choice of a run-sink drain, sized from its row
/// count: whether it fans out and the rows per chunk. A worker is added
/// only per kMinMorselsPerWorker morsels of rows (the measured break-even,
/// see docs/parallel_execution.md), so a drain below it runs serially.
/// Both only move chunk boundaries, so results stay bit-identical.
struct PipelineChoice {
  /// Workers the drain pays for, 1..GetExecThreads(); 1 = drain serially.
  /// It gates the fan-out and sizes the chunks; once fanned out, every
  /// GetExecThreads() thread claims chunks.
  size_t workers = 1;
  /// Rows per chunk: at least a morsel, at most ~4 chunks per worker.
  size_t chunk_rows = 0;
};

/// Decided once per run-sink drain from `rows`, the exact row count of its
/// splittable source (RelationScan::TotalRows, a RangeScan's span width).
PipelineChoice ChoosePipeline(size_t rows);

/// Where a pipeline's rows land: a blocking operator's build state.
/// Consume folds one batch into it, in row order, on the draining thread.
class PipelineSink {
 public:
  virtual ~PipelineSink() = default;
  virtual void Consume(const Batch& batch) = 0;
};

/// What RunPipeline did, for EXPLAIN accounting.
struct PipelineStats {
  size_t rows = 0;  // active rows the sink consumed
  size_t dop = 1;   // threads that claimed chunks: min(threads, chunks); 1 = serial
};

class RelationScan;  // exec/exec_basic.hpp

/// A pipeline source the executor can split into row-span morsels: a
/// RelationScan under any chain of pass-through ρ operators. `chain` holds
/// every bypassed operator (child down to the scan) for row-count credit;
/// `scan` is null when `child` is no such source.
struct SplitSource {
  RelationScan* scan = nullptr;
  std::vector<Iterator*> chain;
};

SplitSource FindSplittableSource(Iterator& child);

/// Drains `child` (already Open()ed) into `sink`, serially. The clustered
/// division's run sink has its own overload that may fan out
/// (exec/division_runs.hpp).
PipelineStats RunPipeline(Iterator& child, PipelineSink& sink);

// ---------------------------------------------------------------- sinks
// Reusable sinks for the standard drain shapes.

/// Numbers the stream's key columns with one or more keyers (divisor
/// drains, semi-join builds); a target given `row_ids` also records each
/// row's key id there, in row order (the great divide's divisor feeds its
/// B and C keyers from one pass). The keyers charge the keys they number.
class KeyerSink : public PipelineSink {
 public:
  KeyerSink(BatchIncrementalKeyer* keyer, const std::vector<size_t>* indices,
            std::vector<uint32_t>* row_ids = nullptr) {
    AddTarget(keyer, indices, row_ids);
  }
  void AddTarget(BatchIncrementalKeyer* keyer, const std::vector<size_t>* indices,
                 std::vector<uint32_t>* row_ids = nullptr) {
    targets_.push_back(Target{keyer, indices, row_ids});
  }

  void Consume(const Batch& batch) override;

 private:
  struct Target {
    BatchIncrementalKeyer* keyer;
    const std::vector<size_t>* indices;
    std::vector<uint32_t>* row_ids;  // nullptr: not recorded
  };
  std::vector<Target> targets_;
  std::vector<uint32_t> ids_;  // one batch's key ids
};

/// The probe-side drain of the unclustered ÷ and ÷*: resolves each row's B
/// columns against the divisor's keys into `row_b` (kNotFound = miss) and
/// numbers its A columns with `a_keyer` into `row_a`, both in row order and
/// both spilling past the governor's watermark. With `a_hits_only` (÷ over
/// a nonempty divisor) an A key of two or more columns is numbered only on
/// rows whose B hits, so candidates are numbered in the order of their
/// first hit (BatchIncrementalKeyer::Keys, `gate`).
class ProbeAppendSink : public PipelineSink {
 public:
  ProbeAppendSink(BatchIncrementalKeyer* a_keyer, const std::vector<size_t>* a_indices,
                  bool a_hits_only, const IncrementalKeyEncoder* b_keys,
                  const std::vector<size_t>* b_indices, SpilledU32Store* row_a,
                  SpilledU32Store* row_b);

  void Consume(const Batch& batch) override;

 private:
  BatchIncrementalKeyer* a_keyer_;
  const std::vector<size_t>* a_indices_;
  bool a_hits_only_;
  SpilledU32Store* row_a_;
  SpilledU32Store* row_b_;
  std::vector<uint32_t> a_ids_;  // per-batch ids before Append
  std::vector<uint32_t> b_ids_;
  BatchKeyProbe probe_;
};

/// Hash-join build drain: numbers the key columns with `keyer` and files
/// one materialized Tuple per build row (projected to `proj` when given,
/// the whole row otherwise) into its key's bucket, in row order.
class JoinBuildSink : public PipelineSink {
 public:
  JoinBuildSink(BatchIncrementalKeyer* keyer, const std::vector<size_t>* key_indices,
                const std::vector<size_t>* proj, std::vector<std::vector<Tuple>>* buckets)
      : keyer_(keyer), key_indices_(key_indices), proj_(proj), buckets_(buckets) {}

  void Consume(const Batch& batch) override;

 private:
  BatchIncrementalKeyer* keyer_;
  const std::vector<size_t>* key_indices_;
  const std::vector<size_t>* proj_;  // nullptr = materialize whole rows
  std::vector<std::vector<Tuple>>* buckets_;
  std::vector<uint32_t> ids_;  // one batch's key ids
};

// -------------------------------------------- plan-level decomposition
// Introspection over a built physical plan: the pipelines RunPipeline will
// execute, derived from each operator's BlockingInputs() edges. EXPLAIN
// uses this to report the plan's pipeline structure and per-pipeline
// degree of parallelism.

struct PipelineDesc {
  Iterator* sink = nullptr;            // breaker (or root) terminating the pipeline
  std::vector<Iterator*> ops;          // source-to-sink operator chain
};

/// All pipelines of the plan, sources before the pipelines that consume
/// their output (children listed before parents).
std::vector<PipelineDesc> DecomposePipelines(Iterator& root);

/// One line per pipeline: "pipeline 0 dop=4: Scan -> HashDivision". Call
/// after execution to see the recorded per-pipeline parallelism.
std::string DescribePipelines(Iterator& root);

}  // namespace quotient
