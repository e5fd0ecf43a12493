#pragma once

// Pipeline-based parallel executor (docs/parallel_execution.md).
//
// A physical plan decomposes into pipelines at its breaker edges — child
// streams a blocking operator fully drains during Open(): hash-table
// builds, division codec drains, grouping, set-operation build sides. Each
// such drain is "source → streaming ops → sink", and RunPipeline executes
// it in one of two shapes, decided by the thread count and the drain's row
// count (ChoosePipeline):
//
//   serial  — one thread, a drain already on a pool worker, or too few rows
//             to pay for a fan-out: batches fold straight into the sink;
//   chunked — morsel-driven: the source's rows are split into contiguous
//             chunks of id spans, a worker pool (exec/scheduler.hpp) runs
//             the batch kernels per chunk into per-chunk partial sink
//             states, and the partials are merged in chunk-index order.
//
// The chunk-ordered merge is what makes chunked drains bit-identical to
// serial ones at every thread count: iterating chunks in index
// order and rows within a chunk in row order visits the input in exactly
// the serial row order, so dictionary ids, candidate numberings, group
// numbers, and result emission order all come out the same. Law 13's
// partitioned great divide proved this merge shape correct for division;
// the sinks here generalize it to every hash-based operator.

#include <memory>
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

/// Per-drain execution choice, sized from the drain's row count: a worker
/// cap and the rows per chunk. A worker is added only per
/// kMinMorselsPerWorker morsels of rows (the measured break-even, see
/// docs/parallel_execution.md), so a drain below it runs serially. Both
/// only move chunk boundaries, so results stay bit-identical.
struct PipelineChoice {
  /// Workers the drain pays for, 1..GetExecThreads(); 1 = drain serially.
  size_t workers = 1;
  /// Rows per chunk: at least a morsel, at most ~4 chunks per worker.
  size_t chunk_rows = 0;
};

/// Decided once per pipeline drain, so one operator may drain a tiny
/// divisor serially while morsel-parallelizing a large dividend. `rows` is
/// the exact row count of a splittable source (RelationScan::TotalRows,
/// a RangeScan's span width) or of a buffered stream.
PipelineChoice ChoosePipeline(size_t rows);

/// Partial state of one chunk of a parallel pipeline. Chunks are created
/// up front, written by exactly one worker task, and merged in chunk-index
/// order on the owning thread.
class SinkChunk {
 public:
  virtual ~SinkChunk() = default;
};

/// Where a pipeline's rows land: a blocking operator's build state. A sink
/// must implement both drain shapes —
///   ConsumeSerial : fold batches straight into the final state (serial
///                   runs pay zero partial/merge overhead);
///   MakeChunk / Consume / Merge : per-chunk partial states for parallel
///                   runs; Consume is called concurrently on distinct
///                   chunks and must only touch the chunk plus immutable
///                   shared state; Merge runs serially in chunk order.
///                   MakeChunk gets the chunk's row count, so per-row state
///                   is reserved once instead of regrown on the workers.
class PipelineSink {
 public:
  virtual ~PipelineSink() = default;
  virtual void ConsumeSerial(const Batch& batch) = 0;
  virtual std::unique_ptr<SinkChunk> MakeChunk(size_t rows) = 0;
  virtual void Consume(SinkChunk& chunk, const Batch& batch) = 0;
  virtual void Merge(SinkChunk& chunk) = 0;
  /// Sinks whose merge cannot reproduce the serial fold exactly (e.g.
  /// floating-point sums) return false to force the serial discipline.
  virtual bool AllowParallel() const { return true; }
};

/// What RunPipeline did, for EXPLAIN accounting.
struct PipelineStats {
  size_t rows = 0;    // active rows the sink consumed
  size_t chunks = 1;  // partial states used (1 = serial)
  size_t dop = 1;     // worker parallelism usable for those chunks
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

/// True when `child` streams its rows clustered on the column positions
/// `columns`: rows with equal values there arrive contiguously. That holds
/// when the physical chain below `child` is ρ and σ only (both keep row
/// order) down to a RelationScan, which reads canonical (sorted) order —
/// of a table, a RangeScan span, a materialized subplan or VALUES — and
/// `columns` are exactly its leading |columns| positions.
bool ClusteredOn(Iterator& child, const std::vector<size_t>& columns);

/// Drains `child` (already Open()ed) into `sink`; see the file comment for
/// the serial and chunked shapes. Chunked runs
/// require the pipeline's source rows to be chunkable: a RelationScan
/// source (under any chain of pass-through ρ) is split into id-span
/// morsels read directly from storage; any other source is drained
/// serially into buffered batches first and the batch kernels + sink work
/// are parallelized over those.
PipelineStats RunPipeline(Iterator& child, PipelineSink& sink);

// ---------------------------------------------------------------- sinks
// Reusable sinks for the standard drain shapes. All merges go through
// KeyCodec::AppendTranslated, which interns each chunk's dictionaries in
// their first-seen order — the serial id assignment, reproduced exactly.

/// Appends the stream's key columns into one or more target KeyCodecs
/// (division divisor drains, semi-join builds; the great divide's divisor
/// feeds its B and C codecs from one pass via AddTarget).
class CodecAppendSink : public PipelineSink {
 public:
  CodecAppendSink(KeyCodec* target, const std::vector<size_t>* indices) {
    AddTarget(target, indices);
  }
  void AddTarget(KeyCodec* target, const std::vector<size_t>* indices);

  void ConsumeSerial(const Batch& batch) override;
  std::unique_ptr<SinkChunk> MakeChunk(size_t rows) override;
  void Consume(SinkChunk& chunk, const Batch& batch) override;
  void Merge(SinkChunk& chunk) override;

 private:
  struct Chunk;
  std::vector<KeyCodec*> targets_;
  std::vector<const std::vector<size_t>*> indices_;
  std::vector<BatchCodecAppender> serial_;
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

  void ConsumeSerial(const Batch& batch) override;
  std::unique_ptr<SinkChunk> MakeChunk(size_t rows) override;
  void Consume(SinkChunk& chunk, const Batch& batch) override;
  void Merge(SinkChunk& chunk) override;

 private:
  struct Chunk;
  KeyCodec* a_codec_;
  const std::vector<size_t>* a_indices_;
  const KeyNumbering* numbering_;
  const KeyCodec* b_codec_;
  const std::vector<size_t>* b_indices_;
  SpilledU32Store* row_b_;
  std::vector<uint32_t> scratch_;  // per-batch resolved ids before Append
  BatchCodecAppender serial_append_;
  BatchKeyProbe serial_probe_;
};

/// Hash-join build drain: key columns into `codec`, plus one materialized
/// Tuple per build row into `rows` (projected to `proj` when given, the
/// whole row otherwise), in row order.
class JoinBuildSink : public PipelineSink {
 public:
  JoinBuildSink(KeyCodec* codec, const std::vector<size_t>* key_indices,
                const std::vector<size_t>* proj, std::vector<Tuple>* rows);

  void ConsumeSerial(const Batch& batch) override;
  std::unique_ptr<SinkChunk> MakeChunk(size_t rows) override;
  void Consume(SinkChunk& chunk, const Batch& batch) override;
  void Merge(SinkChunk& chunk) override;

 private:
  struct Chunk;
  KeyCodec* codec_;
  const std::vector<size_t>* key_indices_;
  const std::vector<size_t>* proj_;  // nullptr = materialize whole rows
  std::vector<Tuple>* rows_;
  BatchCodecAppender serial_;
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
