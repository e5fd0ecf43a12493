#pragma once

// Pipeline-based executor (docs/parallel_execution.md).
//
// A physical plan decomposes into pipelines at its breaker edges — child
// streams a blocking operator fully drains during Open(): hash-table
// builds, division codec drains, grouping, set-operation build sides. Each
// such drain is "source → streaming ops → sink", and RunPipeline folds its
// batches straight into the sink on the calling thread.
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

/// Appends the stream's key columns into one or more target KeyCodecs
/// (division divisor drains, semi-join builds; the great divide's divisor
/// feeds its B and C codecs from one pass via AddTarget).
class CodecAppendSink : public PipelineSink {
 public:
  CodecAppendSink(KeyCodec* target, const std::vector<size_t>* indices) {
    AddTarget(target, indices);
  }
  void AddTarget(KeyCodec* target, const std::vector<size_t>* indices);

  void Consume(const Batch& batch) override;

 private:
  std::vector<BatchCodecAppender> appenders_;
};

/// The probe-side drain of ÷ and ÷*: appends the dividend's A columns into
/// `a_codec` and resolves each row's B columns against a sealed divisor
/// numbering into `row_b` (KeyNumbering::kNotFound = miss), both in row
/// order. `row_b` is a stride-1 SpilledU32Store, so huge probe columns
/// flush to disk past the governor's spill watermark.
class ProbeAppendSink : public PipelineSink {
 public:
  ProbeAppendSink(KeyCodec* a_codec, const std::vector<size_t>* a_indices,
                  const KeyNumbering* numbering, const KeyCodec* b_codec,
                  const std::vector<size_t>* b_indices, SpilledU32Store* row_b);

  void Consume(const Batch& batch) override;

 private:
  SpilledU32Store* row_b_;
  std::vector<uint32_t> scratch_;  // per-batch resolved ids before Append
  BatchCodecAppender append_;
  BatchKeyProbe probe_;
};

/// Hash-join build drain: key columns into `codec`, plus one materialized
/// Tuple per build row into `rows` (projected to `proj` when given, the
/// whole row otherwise), in row order.
class JoinBuildSink : public PipelineSink {
 public:
  JoinBuildSink(KeyCodec* codec, const std::vector<size_t>* key_indices,
                const std::vector<size_t>* proj, std::vector<Tuple>* rows);

  void Consume(const Batch& batch) override;

 private:
  const std::vector<size_t>* proj_;  // nullptr = materialize whole rows
  std::vector<Tuple>* rows_;
  BatchCodecAppender append_;
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
