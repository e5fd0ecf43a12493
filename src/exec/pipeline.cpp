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
  PipelineStats stats;
  Batch batch;
  while (child.NextBatch(&batch)) {
    GovernorPoll();
    GovernorFaultPoint("pipeline.drain");
    stats.rows += batch.ActiveRows();
    sink.Consume(batch);
  }
  return stats;
}

// ---------------------------------------------------------------- sinks

void CodecAppendSink::AddTarget(KeyCodec* target, const std::vector<size_t>* indices) {
  appenders_.emplace_back(target, indices);
}

void CodecAppendSink::Consume(const Batch& batch) {
  GovernorFaultPoint("sink.codec_append");
  // The target codecs' row stores charge (and spill) their own bytes.
  for (BatchCodecAppender& appender : appenders_) appender.Append(batch);
}

ProbeAppendSink::ProbeAppendSink(KeyCodec* a_codec, const std::vector<size_t>* a_indices,
                                 const KeyNumbering* numbering, const KeyCodec* b_codec,
                                 const std::vector<size_t>* b_indices,
                                 SpilledU32Store* row_b)
    : row_b_(row_b), append_(a_codec, a_indices) {
  probe_.Bind(numbering, b_codec, b_indices);
}

void ProbeAppendSink::Consume(const Batch& batch) {
  GovernorFaultPoint("sink.probe_append");
  // The a-codec's store and row_b_ itself charge (and spill) their bytes.
  append_.Append(batch);
  scratch_.clear();
  probe_.Resolve(batch, &scratch_);
  row_b_->Append(scratch_.data(), scratch_.size());
}

JoinBuildSink::JoinBuildSink(KeyCodec* codec, const std::vector<size_t>* key_indices,
                             const std::vector<size_t>* proj, std::vector<Tuple>* rows)
    : proj_(proj), rows_(rows), append_(codec, key_indices) {}

void JoinBuildSink::Consume(const Batch& batch) {
  GovernorFaultPoint("sink.join_build");
  // Key bytes are charged by the codec's row store; charge the materialized
  // build tuples here (retained for the statement's lifetime).
  size_t row_cols = proj_ != nullptr ? proj_->size() : batch.num_columns();
  GovernorCharge(batch.ActiveRows() * (row_cols + 2) * 8);
  append_.Append(batch);
  size_t n = batch.ActiveRows();
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = batch.RowAt(i);
    Tuple t;
    if (proj_ != nullptr) {
      t.reserve(proj_->size());
      for (size_t c : *proj_) t.push_back(batch.At(row, c));
    } else {
      batch.ToTuple(row, &t);
    }
    rows_->push_back(std::move(t));
  }
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
