#include "exec/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "exec/exec_basic.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"

namespace quotient {

namespace {

constexpr size_t kDefaultMorselRows = 4096;

std::atomic<size_t>& MorselRowsFlag() {
  static std::atomic<size_t> rows{kDefaultMorselRows};
  return rows;
}

/// Approximate payload of a batch for memory-budget charging: 8 bytes per
/// active cell for columnar batches, a flat 16 per row for row views (the
/// governor's accounting is deliberately coarse — see docs/robustness.md).
size_t ApproxBatchBytes(const Batch& batch) {
  size_t rows = batch.ActiveRows();
  return batch.row_mode() ? rows * 16 : rows * batch.num_columns() * 8;
}

PipelineStats DrainSerial(Iterator& child, PipelineSink& sink) {
  PipelineStats stats;
  Batch batch;
  while (child.NextBatch(&batch)) {
    GovernorPoll();
    GovernorFaultPoint("pipeline.drain");
    stats.rows += batch.ActiveRows();
    sink.ConsumeSerial(batch);
  }
  return stats;
}

}  // namespace

SplitSource FindSplittableSource(Iterator& child) {
  SplitSource source;
  Iterator* it = &child;
  while (true) {
    source.chain.push_back(it);
    if (auto* scan = dynamic_cast<RelationScan*>(it)) {
      source.scan = scan;
      return source;
    }
    auto* rename = dynamic_cast<RenameIterator*>(it);
    if (rename == nullptr) {
      source.scan = nullptr;
      return source;
    }
    it = rename->InputIterators()[0];
  }
}

bool ClusteredOn(Iterator& child, const std::vector<size_t>& columns) {
  std::vector<size_t> sorted = columns;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != i) return false;
  }
  Iterator* it = &child;
  while (dynamic_cast<RelationScan*>(it) == nullptr) {
    if (dynamic_cast<RenameIterator*>(it) == nullptr &&
        dynamic_cast<FilterIterator*>(it) == nullptr) {
      return false;
    }
    it = it->InputIterators()[0];
  }
  return true;
}

namespace {

/// Morsels of work each worker must get before a drain fans out to it.
/// Below that, scheduling the chunks and merging their partial states costs
/// more than the parallel phase saves (docs/parallel_execution.md,
/// "Break-even"). Counted in morsels rather than rows, so a smaller
/// SetMorselRows still drives small inputs through the chunked path.
constexpr size_t kMinMorselsPerWorker = 64;

}  // namespace

size_t GetMorselRows() { return MorselRowsFlag().load(std::memory_order_relaxed); }
void SetMorselRows(size_t rows) {
  MorselRowsFlag().store(rows == 0 ? 1 : rows, std::memory_order_relaxed);
}

PipelineChoice ChoosePipeline(size_t rows) {
  PipelineChoice choice;
  size_t threads = std::max<size_t>(1, GetExecThreads());
  size_t morsel = std::max<size_t>(1, std::max(GetMorselRows(), GetBatchRows()));
  choice.workers = std::min(threads, std::max<size_t>(1, rows / (kMinMorselsPerWorker * morsel)));
  // At most ~4 chunks per worker, each at least a morsel: chunk sizes only
  // move chunk boundaries, never results.
  size_t spread = (rows + choice.workers * 4 - 1) / (choice.workers * 4);
  choice.chunk_rows = std::max(morsel, spread);
  return choice;
}

PipelineStats RunPipeline(Iterator& child, PipelineSink& sink) {
  bool parallel = GetExecThreads() > 1 && !OnWorkerThread() && sink.AllowParallel();
  if (!parallel) return DrainSerial(child, sink);

  SplitSource source = FindSplittableSource(child);
  if (source.scan != nullptr) {
    // Morsel-driven: contiguous id spans of the scan, read straight from
    // storage (TableEncoding id columns / relation rows are immutable), one
    // partial sink state per chunk. The scan knows its exact row count (a
    // RangeScan's is its span width), so the fan-out needs no estimate.
    size_t rows = source.scan->TotalRows();
    PipelineChoice choice = ChoosePipeline(rows);
    if (choice.workers <= 1) return DrainSerial(child, sink);
    // Two or more workers imply at least two morsels, so two or more chunks.
    size_t chunk_rows = choice.chunk_rows;
    size_t chunks = (rows + chunk_rows - 1) / chunk_rows;

    std::vector<std::unique_ptr<SinkChunk>> states;
    states.reserve(chunks);
    for (size_t i = 0; i < chunks; ++i) {
      states.push_back(sink.MakeChunk(std::min(chunk_rows, rows - i * chunk_rows)));
    }
    const size_t batch_rows = GetBatchRows();
    RelationScan* scan = source.scan;
    ParallelFor(chunks, [&](size_t ci) {
      size_t begin = ci * chunk_rows;
      size_t end = std::min(rows, begin + chunk_rows);
      Batch batch;
      for (size_t at = begin; at < end; at += batch_rows) {
        GovernorPoll();
        GovernorFaultPoint("pipeline.morsel");
        scan->FillSpan(at, std::min(batch_rows, end - at), &batch);
        sink.Consume(*states[ci], batch);
      }
    });
    for (std::unique_ptr<SinkChunk>& state : states) {
      GovernorPoll();
      GovernorFaultPoint("pipeline.merge");
      sink.Merge(*state);
    }
    // The span reads bypassed the chain's NextBatch methods; credit every
    // bypassed operator with the rows it forwarded so EXPLAIN totals match
    // the serial drain exactly.
    for (Iterator* op : source.chain) op->AddProducedRows(rows);

    PipelineStats stats;
    stats.rows = rows;
    stats.chunks = chunks;
    stats.dop = std::min(choice.workers, chunks);
    return stats;
  }

  // Non-splittable source (a filter, join probe, or another breaker's
  // result stream feeds this pipeline): drain it serially into buffered
  // batches, then parallelize the sink's batch kernels over contiguous
  // chunk groups of them. The stream is buffered in memory for the drain's
  // duration; this engine's inputs are in-memory relations, so the
  // transient copy is bounded by the input itself. Buffering only pays when
  // the stream may be large enough to fan out: the cost model's estimate
  // (EstimatedRows() as the structural fallback) decides whether to buffer,
  // the buffered row count decides the fan-out.
  double hint = child.cost_rows_hint();
  double estimate = hint > 0 ? hint : static_cast<double>(child.EstimatedRows());
  if (estimate > 0 && ChoosePipeline(static_cast<size_t>(estimate)).workers <= 1) {
    return DrainSerial(child, sink);
  }
  std::vector<Batch> buffered;
  // Buffering is the one place the executor materializes a whole input
  // stream; charge it — transiently, released when the buffered copy dies
  // with this drain — so runaway intermediate results trip the budget
  // without permanently inflating the statement's account.
  ScopedCharge buffered_charge;
  size_t total = 0;
  {
    Batch batch;
    while (child.NextBatch(&batch)) {
      GovernorPoll();
      GovernorFaultPoint("pipeline.drain");
      buffered_charge.Add(ApproxBatchBytes(batch));
      total += batch.ActiveRows();
      buffered.push_back(std::move(batch));
      batch = Batch();
    }
  }
  PipelineStats stats;
  stats.rows = total;
  if (total == 0) return stats;

  PipelineChoice choice = ChoosePipeline(total);
  struct Group {
    size_t first, last;  // [first, last) batch index
    size_t rows;
  };
  std::vector<Group> groups;
  size_t group_begin = 0;
  size_t group_rows = 0;
  for (size_t i = 0; i < buffered.size(); ++i) {
    group_rows += buffered[i].ActiveRows();
    if (group_rows >= choice.chunk_rows) {
      groups.push_back({group_begin, i + 1, group_rows});
      group_begin = i + 1;
      group_rows = 0;
    }
  }
  if (group_begin < buffered.size()) groups.push_back({group_begin, buffered.size(), group_rows});

  if (choice.workers <= 1 || groups.size() <= 1) {
    for (const Batch& batch : buffered) sink.ConsumeSerial(batch);
    return stats;
  }
  std::vector<std::unique_ptr<SinkChunk>> states;
  states.reserve(groups.size());
  for (const Group& group : groups) states.push_back(sink.MakeChunk(group.rows));
  ParallelFor(groups.size(), [&](size_t ci) {
    for (size_t i = groups[ci].first; i < groups[ci].last; ++i) {
      GovernorPoll();
      GovernorFaultPoint("pipeline.morsel");
      sink.Consume(*states[ci], buffered[i]);
    }
  });
  for (std::unique_ptr<SinkChunk>& state : states) {
    GovernorPoll();
    GovernorFaultPoint("pipeline.merge");
    sink.Merge(*state);
  }
  stats.chunks = groups.size();
  stats.dop = std::min(choice.workers, groups.size());
  return stats;
}

// ---------------------------------------------------------------- sinks

struct CodecAppendSink::Chunk : SinkChunk {
  std::vector<KeyCodec> parts;
  std::vector<BatchCodecAppender> appenders;
};

void CodecAppendSink::AddTarget(KeyCodec* target, const std::vector<size_t>* indices) {
  targets_.push_back(target);
  indices_.push_back(indices);
  serial_.emplace_back(target, indices);
}

void CodecAppendSink::ConsumeSerial(const Batch& batch) {
  GovernorFaultPoint("sink.codec_append");
  // The target codecs' row stores charge (and spill) their own bytes.
  for (BatchCodecAppender& appender : serial_) appender.Append(batch);
}

std::unique_ptr<SinkChunk> CodecAppendSink::MakeChunk(size_t rows) {
  auto chunk = std::make_unique<Chunk>();
  chunk->parts.reserve(targets_.size());
  chunk->appenders.reserve(targets_.size());
  for (const std::vector<size_t>* indices : indices_) {
    chunk->parts.emplace_back(indices->size());
    chunk->parts.back().Reserve(rows);
  }
  for (size_t i = 0; i < targets_.size(); ++i) {
    chunk->appenders.emplace_back(&chunk->parts[i], indices_[i]);
  }
  return chunk;
}

void CodecAppendSink::Consume(SinkChunk& chunk, const Batch& batch) {
  GovernorFaultPoint("sink.codec_append");
  for (BatchCodecAppender& appender : static_cast<Chunk&>(chunk).appenders) {
    appender.Append(batch);
  }
}

void CodecAppendSink::Merge(SinkChunk& chunk) {
  Chunk& c = static_cast<Chunk&>(chunk);
  for (size_t i = 0; i < targets_.size(); ++i) {
    targets_[i]->AppendTranslated(c.parts[i]);
    // The chunk-local rows now live (charged) in the target codec; stop
    // double-counting the transient copy.
    c.parts[i].ReleaseRowCharges();
  }
}

struct ProbeAppendSink::Chunk : SinkChunk {
  Chunk(size_t a_cols, const std::vector<size_t>* a_indices, const KeyNumbering* numbering,
        const KeyCodec* b_codec, const std::vector<size_t>* b_indices)
      : a_part(a_cols), appender(&a_part, a_indices) {
    probe.Bind(numbering, b_codec, b_indices);
  }
  KeyCodec a_part;
  BatchCodecAppender appender;
  BatchKeyProbe probe;
  std::vector<uint32_t> row_b;
  ScopedCharge row_b_charge;  // transient: released when the chunk merges
};

ProbeAppendSink::ProbeAppendSink(KeyCodec* a_codec, const std::vector<size_t>* a_indices,
                                 const KeyNumbering* numbering, const KeyCodec* b_codec,
                                 const std::vector<size_t>* b_indices,
                                 SpilledU32Store* row_b)
    : a_codec_(a_codec),
      a_indices_(a_indices),
      numbering_(numbering),
      b_codec_(b_codec),
      b_indices_(b_indices),
      row_b_(row_b),
      serial_append_(a_codec, a_indices) {
  serial_probe_.Bind(numbering, b_codec, b_indices);
}

void ProbeAppendSink::ConsumeSerial(const Batch& batch) {
  GovernorFaultPoint("sink.probe_append");
  // The a-codec's store and row_b_ itself charge (and spill) their bytes.
  serial_append_.Append(batch);
  scratch_.clear();
  serial_probe_.Resolve(batch, &scratch_);
  row_b_->Append(scratch_.data(), scratch_.size());
}

std::unique_ptr<SinkChunk> ProbeAppendSink::MakeChunk(size_t rows) {
  auto chunk = std::make_unique<Chunk>(a_indices_->size(), a_indices_, numbering_, b_codec_,
                                       b_indices_);
  chunk->a_part.Reserve(rows);
  chunk->row_b.reserve(rows);
  return chunk;
}

void ProbeAppendSink::Consume(SinkChunk& chunk, const Batch& batch) {
  GovernorFaultPoint("sink.probe_append");
  Chunk& c = static_cast<Chunk&>(chunk);
  c.appender.Append(batch);
  c.row_b_charge.Add(batch.ActiveRows() * sizeof(uint32_t));
  c.probe.Resolve(batch, &c.row_b);
}

void ProbeAppendSink::Merge(SinkChunk& chunk) {
  Chunk& c = static_cast<Chunk&>(chunk);
  a_codec_->AppendTranslated(c.a_part);
  c.a_part.ReleaseRowCharges();
  row_b_->Append(c.row_b.data(), c.row_b.size());
  c.row_b.clear();
  c.row_b.shrink_to_fit();
  c.row_b_charge.ReleaseNow();
}

namespace {

void MaterializeRows(const Batch& batch, const std::vector<size_t>* proj,
                     std::vector<Tuple>* out) {
  size_t n = batch.ActiveRows();
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = batch.RowAt(i);
    Tuple t;
    if (proj != nullptr) {
      t.reserve(proj->size());
      for (size_t c : *proj) t.push_back(batch.At(row, c));
    } else {
      batch.ToTuple(row, &t);
    }
    out->push_back(std::move(t));
  }
}

}  // namespace

struct JoinBuildSink::Chunk : SinkChunk {
  Chunk(size_t key_cols, const std::vector<size_t>* key_indices)
      : part(key_cols), appender(&part, key_indices) {}
  KeyCodec part;
  BatchCodecAppender appender;
  std::vector<Tuple> rows;
};

JoinBuildSink::JoinBuildSink(KeyCodec* codec, const std::vector<size_t>* key_indices,
                             const std::vector<size_t>* proj, std::vector<Tuple>* rows)
    : codec_(codec),
      key_indices_(key_indices),
      proj_(proj),
      rows_(rows),
      serial_(codec, key_indices) {}

void JoinBuildSink::ConsumeSerial(const Batch& batch) {
  GovernorFaultPoint("sink.join_build");
  // Key bytes are charged by the codec's row store; charge the materialized
  // build tuples here (retained for the statement's lifetime).
  size_t row_cols = proj_ != nullptr ? proj_->size() : batch.num_columns();
  GovernorCharge(batch.ActiveRows() * (row_cols + 2) * 8);
  serial_.Append(batch);
  MaterializeRows(batch, proj_, rows_);
}

std::unique_ptr<SinkChunk> JoinBuildSink::MakeChunk(size_t rows) {
  auto chunk = std::make_unique<Chunk>(key_indices_->size(), key_indices_);
  chunk->part.Reserve(rows);
  chunk->rows.reserve(rows);
  return chunk;
}

void JoinBuildSink::Consume(SinkChunk& chunk, const Batch& batch) {
  GovernorFaultPoint("sink.join_build");
  size_t row_cols = proj_ != nullptr ? proj_->size() : batch.num_columns();
  GovernorCharge(batch.ActiveRows() * (row_cols + 2) * 8);
  Chunk& c = static_cast<Chunk&>(chunk);
  c.appender.Append(batch);
  MaterializeRows(batch, proj_, &c.rows);
}

void JoinBuildSink::Merge(SinkChunk& chunk) {
  Chunk& c = static_cast<Chunk&>(chunk);
  codec_->AppendTranslated(c.part);
  c.part.ReleaseRowCharges();
  rows_->reserve(rows_->size() + c.rows.size());
  for (Tuple& t : c.rows) rows_->push_back(std::move(t));
}

// -------------------------------------------- plan-level decomposition

namespace {

void WalkPipelines(Iterator* it, PipelineDesc* current, std::vector<PipelineDesc>* out) {
  current->ops.push_back(it);
  std::vector<Iterator*> children = it->InputIterators();
  std::vector<size_t> blocking = it->BlockingInputs();
  for (size_t i = 0; i < children.size(); ++i) {
    bool breaks = std::find(blocking.begin(), blocking.end(), i) != blocking.end();
    if (breaks) {
      PipelineDesc sub;
      sub.sink = it;
      WalkPipelines(children[i], &sub, out);
      std::reverse(sub.ops.begin(), sub.ops.end());  // source first
      out->push_back(std::move(sub));
    } else {
      WalkPipelines(children[i], current, out);
    }
  }
}

}  // namespace

std::vector<PipelineDesc> DecomposePipelines(Iterator& root) {
  std::vector<PipelineDesc> pipelines;
  PipelineDesc top;
  top.sink = &root;
  WalkPipelines(&root, &top, &pipelines);
  std::reverse(top.ops.begin(), top.ops.end());
  pipelines.push_back(std::move(top));
  return pipelines;
}

std::string DescribePipelines(Iterator& root) {
  std::vector<PipelineDesc> pipelines = DecomposePipelines(root);
  std::string out;
  for (size_t i = 0; i < pipelines.size(); ++i) {
    const PipelineDesc& p = pipelines[i];
    out += "pipeline " + std::to_string(i) + ":";
    for (Iterator* op : p.ops) {
      out += " ";
      out += op->name();
      out += " ->";
    }
    bool drains_into_sink = p.sink != nullptr && (p.ops.empty() || p.ops.back() != p.sink);
    if (drains_into_sink) {
      out += std::string(" [") + p.sink->name() + "]";
      // pipeline_dop() is recorded per operator as the max over its drains,
      // so it is labeled on the sink, not claimed per pipeline: a breaker
      // that drained a tiny input serially and a large one 8-way shows
      // "dop=8" on both of its drain pipelines' sink tag.
      if (p.sink->pipeline_dop() > 0) {
        out += " dop=" + std::to_string(p.sink->pipeline_dop());
      }
    } else {
      out += " output";
    }
    out += "\n";
  }
  return out;
}

}  // namespace quotient
