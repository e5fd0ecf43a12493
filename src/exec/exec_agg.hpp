#pragma once

#include <memory>

#include "algebra/ops.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"
#include "exec/recycler.hpp"

namespace quotient {

/// Hash aggregation implementing GγF: online, key-encoded grouping. Group
/// keys are incrementally dictionary-encoded and numbered densely
/// (IncrementalKeyEncoder, the same discipline as π/∪/∩/−); aggregate states are accumulated in a
/// flat array with the same AggState machinery as the reference GroupBy, so
/// results agree by construction.
class HashAggregateIterator : public Iterator {
 public:
  HashAggregateIterator(IterPtr child, std::vector<std::string> group_names,
                        std::vector<AggSpec> aggs);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "HashAggregate"; }
  std::vector<Iterator*> InputIterators() override { return {child_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {0}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp).
  /// Aggregation's build state IS its output, so a hit skips the child
  /// entirely and streams the cached result rows.
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  std::shared_ptr<GroupingArtifact> BuildArtifact();

  IterPtr child_;
  std::vector<std::string> group_names_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::vector<size_t> group_indices_;
  std::vector<size_t> arg_indices_;
  RecycleSpec recycle_;
  std::shared_ptr<const GroupingArtifact> grouping_;  // finished result rows
  size_t position_ = 0;
};

}  // namespace quotient
