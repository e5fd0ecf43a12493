#include "exec/division_runs.hpp"

#include <algorithm>
#include <utility>

#include "exec/exec_basic.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "util/bitmap.hpp"

namespace quotient {

/// The state of one open run: the candidate's A values and what it hit.
struct DivisionRunSink::Run {
  Tuple a;
  Bitmap seen;                   // ÷: divisor keys hit, plus the miss bit
  std::vector<uint32_t> counts;  // ÷*: member hits per C group
  bool open = false;
};

/// A fold over part of the dividend: the whole of it (serial) or a chunk.
struct DivisionRunSink::Part {
  BatchKeyProbe probe;
  std::vector<uint32_t> keys;   // per active row: divisor key number or miss
  std::vector<uint8_t> starts;  // per active row: 1 when it opens a run
  Run run;                      // the run open at the end of the last batch
  GovernorTicker ticker;
};

/// A chunk keeps its first run apart (the previous chunk may have started
/// it) and the runs that closed in between as results.
struct DivisionRunSink::Chunk : Part {
  Run head;
  bool has_head = false;
  std::vector<Tuple> results;
};

DivisionRunSink::DivisionRunSink(const DivisionBuildArtifact& build,
                                 const std::vector<size_t>* a_indices,
                                 const std::vector<size_t>* b_indices,
                                 std::vector<Tuple>* results)
    : a_indices_(a_indices),
      b_indices_(b_indices),
      b_keys_(&build.keys),
      keys_(build.keys.size()),
      results_(results),
      serial_(std::make_unique<Part>()) {
  serial_->probe.Bind(b_keys_, b_indices_);
  GovernorCharge(RunBytes());
}

DivisionRunSink::DivisionRunSink(const GreatDivideBuildArtifact& build,
                                 const std::vector<size_t>* a_indices,
                                 const std::vector<size_t>* b_indices,
                                 std::vector<Tuple>* results)
    : a_indices_(a_indices),
      b_indices_(b_indices),
      b_keys_(&build.b),
      keys_(build.b.size()),
      groups_(&build),
      results_(results),
      serial_(std::make_unique<Part>()) {
  serial_->probe.Bind(b_keys_, b_indices_);
  GovernorCharge(RunBytes());
}

DivisionRunSink::~DivisionRunSink() = default;

size_t DivisionRunSink::RunBytes() const {
  size_t state = groups_ != nullptr ? groups_->group_sizes.size() * sizeof(uint32_t)
                                    : (keys_ / 64 + 1) * sizeof(uint64_t);
  return state + a_indices_->size() * sizeof(Value);
}

void DivisionRunSink::ChargeResults() {
  size_t arity = results_->empty() ? 0 : results_->front().size();
  GovernorCharge((results_->size() - charged_results_) * (sizeof(Tuple) + arity * sizeof(Value)));
  charged_results_ = results_->size();
}

void DivisionRunSink::OpenRun(const Batch& batch, uint32_t row, Run* run) const {
  run->a.resize(a_indices_->size());
  for (size_t c = 0; c < a_indices_->size(); ++c) run->a[c] = batch.At(row, (*a_indices_)[c]);
  if (groups_ != nullptr) {
    run->counts.assign(groups_->group_sizes.size(), 0);
  } else if (run->seen.size() != keys_ + 1) {
    run->seen = Bitmap(keys_ + 1);
  } else {
    run->seen.Clear();
  }
  run->open = true;
}

void DivisionRunSink::Combine(Run* into, const Run& from) const {
  if (groups_ != nullptr) {
    for (size_t g = 0; g < into->counts.size(); ++g) into->counts[g] += from.counts[g];
  } else {
    into->seen.OrWith(from.seen);
  }
}

void DivisionRunSink::Emit(const Run& run, std::vector<Tuple>* out) const {
  if (groups_ == nullptr) {
    if (run.seen.AllBelow(keys_)) out->push_back(run.a);
    return;
  }
  const std::vector<uint32_t>& sizes = groups_->group_sizes;
  for (size_t g = 0; g < sizes.size(); ++g) {
    if (run.counts[g] == sizes[g]) {
      out->push_back(ConcatTuples(run.a, groups_->c.KeyTuple(static_cast<uint32_t>(g))));
    }
  }
}

template <typename Close>
void DivisionRunSink::Fold(Part& part, const Batch& batch, Close&& close) {
  GovernorFaultPoint("sink.probe_append");
  if (batch.ActiveRows() == 0) return;
  part.keys.clear();
  part.probe.Resolve(batch, &part.keys);
  // Misses (kNotFound) clamp to keys_: a spare bit (÷) or
  // an empty member range (÷*), so the row loops carry no miss branch.
  if (groups_ == nullptr) {
    FoldRuns(part, batch, close,
             [this](Run& run, uint32_t key) { run.seen.Set(std::min<size_t>(key, keys_)); });
    return;
  }
  const uint32_t* begin = groups_->member_begin.data();
  const uint32_t* members = groups_->member_groups.data();
  FoldRuns(part, batch, close, [&](Run& run, uint32_t key) {
    size_t k = std::min<size_t>(key, keys_);
    uint32_t* counts = run.counts.data();
    for (uint32_t j = begin[k]; j < begin[k + 1]; ++j) counts[members[j]] += 1;
  });
}

template <typename Close, typename Hit>
void DivisionRunSink::FoldRuns(Part& part, const Batch& batch, Close& close, Hit&& hit) {
  size_t n = batch.ActiveRows();
  const uint32_t* keys = part.keys.data();
  const BatchColumn* enc =
      a_indices_->size() == 1 ? batch.EncodedColumn((*a_indices_)[0]) : nullptr;
  if (enc != nullptr) {
    // One encoded A column: a run ends where the dictionary id changes.
    // The first row continues the open run iff its value is the run's.
    const uint32_t* ids = enc->ids.data();
    uint32_t row = batch.RowAt(0);
    uint32_t current = ids[row];
    if (!part.run.open || batch.At(row, (*a_indices_)[0]) != part.run.a[0]) {
      if (part.run.open) close(part.run);
      OpenRun(batch, row, &part.run);
    }
    for (size_t i = 0; i < n; ++i) {
      part.ticker.Tick();
      row = batch.RowAt(i);
      if (ids[row] != current) {
        close(part.run);
        OpenRun(batch, row, &part.run);
        current = ids[row];
      }
      hit(part.run, keys[i]);
    }
    return;
  }
  MarkKeyChanges(batch, *a_indices_, part.run.open ? &part.run.a : nullptr, &part.starts);
  const uint8_t* starts = part.starts.data();
  for (size_t i = 0; i < n; ++i) {
    part.ticker.Tick();
    if (starts[i]) {
      if (part.run.open) close(part.run);
      OpenRun(batch, batch.RowAt(i), &part.run);
    }
    hit(part.run, keys[i]);
  }
}

void DivisionRunSink::Consume(const Batch& batch) {
  Fold(*serial_, batch, [&](const Run& run) { Emit(run, results_); });
  ChargeResults();
}

std::unique_ptr<DivisionRunSink::Chunk> DivisionRunSink::MakeChunk() {
  auto chunk = std::make_unique<Chunk>();
  chunk->probe.Bind(b_keys_, b_indices_);
  GovernorCharge(2 * RunBytes());  // the held first run and the open one
  return chunk;
}

void DivisionRunSink::Consume(Chunk& c, const Batch& batch) {
  Fold(c, batch, [&](Run& run) {
    if (c.has_head) {
      Emit(run, &c.results);
      return;
    }
    std::swap(c.head, run);  // OpenRun resets what `run` now holds
    c.has_head = true;
  });
}

void DivisionRunSink::Merge(Chunk& c) {
  if (!c.run.open) return;  // the chunk had no rows
  Run& open = serial_->run;
  Run& first = c.has_head ? c.head : c.run;
  if (open.open && open.a == first.a) {
    Combine(&open, first);  // the run crosses the chunk boundary
  } else {
    if (open.open) Emit(open, results_);
    std::swap(open, first);
  }
  if (c.has_head) {
    Emit(open, results_);
    for (Tuple& t : c.results) results_->push_back(std::move(t));
    std::swap(open, c.run);
  }
  ChargeResults();
}

void DivisionRunSink::Finish() {
  Run& open = serial_->run;
  if (open.open) Emit(open, results_);
  open.open = false;
  ChargeResults();
}

PipelineStats RunPipeline(Iterator& child, DivisionRunSink& sink) {
  PipelineSink& serial = sink;
  if (GetExecThreads() <= 1 || OnWorkerThread()) return RunPipeline(child, serial);
  SplitSource source = FindSplittableSource(child);
  if (source.scan == nullptr) return RunPipeline(child, serial);
  // The scan knows its exact row count (a RangeScan's is its span width),
  // so the fan-out needs no estimate.
  const size_t rows = source.scan->TotalRows();
  PipelineChoice choice = ChoosePipeline(rows);
  if (choice.workers <= 1) return RunPipeline(child, serial);
  // Two or more workers imply at least two morsels, so two or more chunks.
  const size_t chunk_rows = choice.chunk_rows;
  const size_t chunks = (rows + chunk_rows - 1) / chunk_rows;

  std::vector<std::unique_ptr<DivisionRunSink::Chunk>> states;
  states.reserve(chunks);
  for (size_t i = 0; i < chunks; ++i) states.push_back(sink.MakeChunk());
  // Contiguous id spans of the scan, read straight from storage
  // (TableEncoding id columns and relation rows are immutable).
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
  for (std::unique_ptr<DivisionRunSink::Chunk>& state : states) {
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
  // ParallelFor lets every thread claim chunks, whatever choice.workers.
  stats.dop = std::min(GetExecThreads(), chunks);
  return stats;
}

}  // namespace quotient
