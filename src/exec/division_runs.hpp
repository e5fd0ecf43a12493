#pragma once

// Run-at-a-time hash division over a clustered dividend
// (docs/key_encoding.md, "Clustered dividends").
//
// When the dividend arrives grouped on its quotient attributes A (a prefix
// of its StreamProperties clustering, exec/iterator.hpp), each quotient
// candidate's rows form one contiguous run. One bitmap (÷) or one row of
// per-C-group counters (÷*) for the current run then replaces the
// candidate matrix: each row's B columns resolve to a divisor key number,
// the number sets a bit or bumps the counters of the C groups containing
// it, and the candidate is emitted when its run closes. No A codec, no
// per-row divisor-key store and no candidate numbering are built, so there
// is no probe state to recycle.
// This is Graefe & Cole's hash-division specialised to grouped input, the
// case Rantzau's classification of division algorithms (DMKD 2003) gives
// one bitmap row per group.
//
// Candidates are emitted in run order, which is the first-seen order the
// matrix path numbers them in, so both paths return the same stream.

#include <memory>
#include <vector>

#include "exec/pipeline.hpp"
#include "exec/recycler.hpp"

namespace quotient {

/// The dividend drain of a clustered ÷ or ÷*, emitting qualifying
/// candidates (A, or A × C) into `results`. The only sink with a chunked
/// drain: RunPipeline below folds each chunk into a Chunk that keeps its
/// first and last runs open, and Merge ORs (÷) or sums (÷*) them with the
/// neighbouring chunk's in chunk order, so the output equals the serial
/// drain at every thread count. Call Finish() after RunPipeline to close
/// the last run.
class DivisionRunSink : public PipelineSink {
 public:
  struct Chunk;

  /// ÷: a run qualifies when it hit every divisor key; r1 ÷ ∅ = πA(r1),
  /// since with no divisor keys every run qualifies.
  DivisionRunSink(const DivisionBuildArtifact& build, const std::vector<size_t>* a_indices,
                  const std::vector<size_t>* b_indices, std::vector<Tuple>* results);
  /// ÷*: a run qualifies for each C group whose every member it hit.
  DivisionRunSink(const GreatDivideBuildArtifact& build, const std::vector<size_t>* a_indices,
                  const std::vector<size_t>* b_indices, std::vector<Tuple>* results);
  ~DivisionRunSink() override;

  void Consume(const Batch& batch) override;
  /// Chunked drains: one Chunk per chunk, folded concurrently on distinct
  /// chunks (Consume touches only the chunk and immutable build state),
  /// then merged serially in chunk order.
  std::unique_ptr<Chunk> MakeChunk();
  void Consume(Chunk& chunk, const Batch& batch);
  void Merge(Chunk& chunk);
  void Finish();

 private:
  struct Run;
  struct Part;

  template <typename Close>
  void Fold(Part& part, const Batch& batch, Close&& close);
  template <typename Close, typename Hit>
  void FoldRuns(Part& part, const Batch& batch, Close& close, Hit&& hit);
  void OpenRun(const Batch& batch, uint32_t row, Run* run) const;
  void Combine(Run* into, const Run& from) const;
  void Emit(const Run& run, std::vector<Tuple>* out) const;
  size_t RunBytes() const;
  void ChargeResults();

  const std::vector<size_t>* a_indices_;
  const std::vector<size_t>* b_indices_;
  const KeyNumbering* numbering_;  // divisor keys (÷) or divisor B keys (÷*)
  const KeyCodec* b_codec_;
  size_t keys_;  // divisor key numbers are 0..keys_-1; keys_ takes misses
  const GreatDivideBuildArtifact* groups_ = nullptr;  // ÷* only
  std::vector<Tuple>* results_;
  size_t charged_results_ = 0;
  std::unique_ptr<Part> serial_;  // the serial fold, and the merge's open run
};

/// Drains `child` (already Open()ed) into the run sink. Morsel-driven once
/// the source is a RelationScan under ρ only and its exact row count clears
/// ChoosePipeline's break-even at more than one thread: contiguous id
/// spans are read straight from storage, one Chunk each, and merged in
/// chunk order. Otherwise the drain is serial, as for every other sink.
PipelineStats RunPipeline(Iterator& child, DivisionRunSink& sink);

}  // namespace quotient
