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
/// size.
class GreatDivideIterator : public Iterator {
 public:
  GreatDivideIterator(IterPtr dividend, IterPtr divisor);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "HashGreatDivide"; }
  std::vector<Iterator*> InputIterators() override {
    return {dividend_.get(), divisor_.get()};
  }
  std::vector<size_t> BlockingInputs() override { return {0, 1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp).
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  // The key-encoded inputs the kernel runs over live in the artifact
  // types (exec/recycler.hpp): divisor B values and C groups numbered
  // densely (GreatDivideBuildArtifact), every dividend row carrying its
  // candidate number and divisor-B number (GreatDivideProbeArtifact).
  std::shared_ptr<GreatDivideBuildArtifact> BuildDivisorArtifact();
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
  RecycleSpec recycle_;

  std::shared_ptr<const GreatDivideProbeArtifact> probe_;
  std::vector<Tuple> results_;
  size_t position_ = 0;
};

/// Law 13 as an executable strategy: partitions the divisor's C-groups into
/// `threads` disjoint parts (hash on C), runs a hash great divide per part
/// in parallel against the shared dividend, and unions the results. Correct
/// because the partition projections on C are disjoint by construction.
/// The dividend's table encoding is built once and shared by every worker
/// (it is read-only after Build), so partitions stop re-encoding the
/// dividend — the cache behavior ROADMAP item 2 asks for. Callers holding a
/// cached encoding (Catalog::Encoding) pass it to skip even that one build.
Relation GreatDividePartitioned(const Relation& dividend, const Relation& divisor,
                                size_t threads, TableEncodingPtr dividend_enc = nullptr);

/// Convenience: great-divide materialized relations. Optional pre-built
/// table encodings let repeated calls skip re-encoding inputs.
Relation ExecGreatDivide(const Relation& dividend, const Relation& divisor,
                         TableEncodingPtr dividend_enc = nullptr,
                         TableEncodingPtr divisor_enc = nullptr);

/// Physical set containment join r1 ⋈_{b1⊇b2} r2 with a 64-bit signature
/// pre-filter (Helmer/Moerkotte style): sig(s2) ⊄ sig(s1) disproves
/// containment without touching the elements.
class SetContainmentJoinIterator : public Iterator {
 public:
  SetContainmentJoinIterator(IterPtr left, std::string left_set_attr, IterPtr right,
                             std::string right_set_attr);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "SetContainmentJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {0, 1}; }

 private:
  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  size_t left_idx_;
  size_t right_idx_;
  std::vector<Tuple> results_;
  size_t position_ = 0;
};

}  // namespace quotient
