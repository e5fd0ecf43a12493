#pragma once

#include <memory>

#include "algebra/divide.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"
#include "exec/recycler.hpp"

namespace quotient {

/// Blocking hash great divide (Rantzau et al. [36] style); output schema
/// A ∪ C. One pass over the dividend: each divisor B value knows which C
/// groups it belongs to, and a (candidate × group) match-count matrix
/// collects the hits; a pair qualifies when its count reaches the group's
/// size. A dividend clustered on A is divided run by run instead, with one
/// row of group counters for the current run (exec/division_runs.hpp).
class GreatDivideIterator : public Iterator {
 public:
  GreatDivideIterator(IterPtr dividend, IterPtr divisor);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "HashGreatDivide"; }
  const char* ExplainNote() const override {
    return clustered_ ? "path=clustered" : "path=matrix";
  }
  std::vector<Iterator*> InputIterators() override {
    return {dividend_.get(), divisor_.get()};
  }
  std::vector<size_t> BlockingInputs() override { return {0, 1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp).
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

  /// True when the dividend is divided run by run (no probe state).
  bool clustered() const { return clustered_; }

 private:
  // The key-encoded inputs the kernel runs over live in the artifact
  // types (exec/recycler.hpp): divisor B values and C groups numbered
  // densely (GreatDivideBuildArtifact), every dividend row carrying its
  // candidate number and divisor-B number (GreatDivideProbeArtifact).
  std::shared_ptr<GreatDivideBuildArtifact> BuildDivisorArtifact();
  /// The recycler's divisor artifact (adopted or published), or nullptr
  /// when there is none to share.
  std::shared_ptr<const GreatDivideBuildArtifact> AdoptDivisorArtifact();
  std::shared_ptr<GreatDivideProbeArtifact> BuildProbeArtifact();

  void RunHash(const GreatDivideBuildArtifact& build,
               const GreatDivideProbeArtifact& probe);

  IterPtr dividend_;
  IterPtr divisor_;
  Schema schema_;
  std::vector<size_t> a_idx_;
  std::vector<size_t> b_idx_;
  std::vector<size_t> divisor_b_idx_;
  std::vector<size_t> divisor_c_idx_;
  bool clustered_ = false;
  RecycleSpec recycle_;

  std::shared_ptr<const GreatDivideProbeArtifact> probe_;
  std::vector<Tuple> results_;
  size_t position_ = 0;
};

/// Convenience: great-divide materialized relations.
Relation ExecGreatDivide(const Relation& dividend, const Relation& divisor);

}  // namespace quotient
