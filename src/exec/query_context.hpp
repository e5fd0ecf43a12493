#pragma once

// Query lifecycle governor (docs/robustness.md).
//
// A QueryContext is created per statement execution by the Session front
// door (api/session.hpp) and installed as the CURRENT context for the
// executing thread; ParallelFor (exec/scheduler.hpp) re-installs it on every
// pool worker draining that region's tasks, so the whole morsel-parallel
// execution of one statement shares one governor. Execution code never
// threads a pointer through operator constructors — it calls the free
// GovernorPoll / GovernorCharge / GovernorFaultPoint helpers, which are
// no-ops when no context is installed (benches and direct executor use pay
// one thread-local load).
//
// The governor owns four concerns:
//
//   * CANCELLATION  — Cancel() is callable from any thread; every pipeline
//                     drain polls at batch granularity and unwinds with
//                     StatusCode::kCancelled.
//   * DEADLINE      — a monotonic (steady_clock) deadline checked by the
//                     same polls; trips as kDeadlineExceeded.
//   * MEMORY BUDGET — blocking builds charge their allocations against an
//                     atomic OUTSTANDING byte account (Charge/Release);
//                     exceeding the budget trips as kResourceExhausted.
//                     Charges are approximate (key bytes, bitmap words,
//                     per-batch scratch); transient state releases
//                     when retired (ScopedCharge), retained build state
//                     stays charged for the statement's lifetime. The
//                     high-water mark is reported as rows_charged_bytes.
//                     Below the hard budget, a soft SPILL WATERMARK
//                     (EnableSpill) makes the id-column stores flush to a
//                     per-query temp file instead of growing —
//                     exec/spill.hpp.
//   * FAULTS        — a deterministic FaultInjector consulted at named
//                     sites; the nth hit of an armed site throws, so tests
//                     can prove every trip point unwinds cleanly.
//
// Trips surface as QueryAbort, an exception carrying a typed Status. The
// executor's existing unwinding (ParallelFor error propagation, cursor
// catch blocks, Session catch blocks) carries it to the API boundary, where
// it becomes a Status/Result — the public API never throws and never
// returns partial results.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.hpp"

namespace quotient {

class SpillManager;

/// Thrown inside the executor when the governor trips; converted to the
/// carried Status at the API boundary. Derives runtime_error so pre-governor
/// catch sites (which catch std::exception) degrade to a plain error message
/// instead of losing the failure.
class QueryAbort : public std::runtime_error {
 public:
  explicit QueryAbort(Status status)
      : std::runtime_error(status.message()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Deterministic fault injection: Arm(site, nth) makes the nth hit of that
/// site (1-based, counted per injector) fail. Sites are consulted through
/// GovernorFaultPoint at the registry below; unarmed injectors cost one
/// relaxed atomic load per hit. The process-global injector additionally
/// arms itself from QUOTIENT_FAULT=<site>:<nth> on first use.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Arms `site` to fail on its `nth` hit (nth >= 1). Replaces any previous
  /// arming of the same site and resets its hit counter.
  void Arm(const std::string& site, uint64_t nth);
  /// Clears all armed sites and hit counters.
  void Disarm();

  /// Counts a hit of `site`; true when this hit must fail. Thread-safe;
  /// exactly one concurrent hit observes the trip.
  bool Hit(const char* site);

  /// The process-global injector (armed from the QUOTIENT_FAULT env var on
  /// first access). Contexts without an explicit injector use this one.
  static FaultInjector* Global();

  /// Parses a "<site>[:<nth>]" spec (the QUOTIENT_FAULT format) and arms
  /// `injector`. A malformed spec — empty site, a site not in KnownSites(),
  /// or a non-positive / non-numeric nth — is reported on stderr and NOT
  /// armed (a silently dropped spec would make a fault test pass vacuously).
  /// Returns whether the injector was armed.
  static bool ArmFromSpec(FaultInjector* injector, const std::string& spec);

  /// Every registered fault site, for sweep tests and docs. A site string
  /// passed to GovernorFaultPoint that is not in this list is a bug caught
  /// by the fault-injection sweep.
  static const std::vector<std::string>& KnownSites();

 private:
  struct Armed {
    uint64_t nth = 0;
    uint64_t hits = 0;
  };
  std::atomic<bool> armed_{false};
  std::mutex mutex_;
  std::unordered_map<std::string, Armed> sites_;
};

/// Per-statement lifecycle governor. Created by the Session, shared with the
/// statement's cursor, installed per executing thread via
/// ScopedQueryContext. All methods are thread-safe.
class QueryContext {
 public:
  QueryContext();
  QueryContext(std::chrono::steady_clock::time_point deadline, size_t memory_budget_bytes,
               FaultInjector* faults);
  /// Out of line: destroys the SpillManager (closing the temp file) and
  /// runs the admission-release hook, returning this statement's memory
  /// grant to the Database's admission controller.
  ~QueryContext();
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Requests cancellation; the first trip (of any kind) wins. Callable
  /// from any thread — this is what Session::Cancel() forwards to.
  void Cancel() { Trip(StatusCode::kCancelled, "query cancelled"); }

  /// Records a trip with an explicit code/message (first trip wins).
  void Trip(StatusCode code, const std::string& message);

  /// True once any trip (cancel, deadline, budget) was recorded. Cheap:
  /// one relaxed atomic load — safe inside per-row loops.
  bool Aborted() const { return tripped_.load(std::memory_order_relaxed) != 0; }

  /// The terminal status of the first trip; Ok when never tripped.
  Status TripStatus() const;

  /// Poll point: checks the deadline, then throws QueryAbort if any trip
  /// was recorded. Called at batch/morsel granularity.
  void Poll();

  /// Charges `bytes` against the memory budget; trips kResourceExhausted
  /// (and throws) when the OUTSTANDING total (charges minus releases)
  /// exceeds the budget. Zero budget = unlimited (still accounted, for
  /// rows_charged_bytes reporting and the spill watermark).
  void Charge(size_t bytes);

  /// Returns `bytes` of a previous Charge, so transient per-batch state
  /// (per-batch scratch, spilled rows, recycled build state) stops counting
  /// against the budget once retired. Never throws.
  void Release(size_t bytes);

  /// High-water mark of the outstanding account — the
  /// ExecProfile::rows_charged_bytes value.
  size_t charged_bytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Bytes currently charged and not released.
  size_t outstanding_bytes() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

  // --- spill (exec/spill.hpp) ---

  /// Arms spill-to-disk: build state flushes to a temp file in `dir` (empty
  /// = $TMPDIR or /tmp) whenever the outstanding account crosses
  /// `watermark_bytes`. Call once, before execution starts.
  void EnableSpill(size_t watermark_bytes, std::string dir);

  /// The statement's spill file, nullptr when spilling is not enabled.
  SpillManager* spill() const { return spill_.get(); }

  /// True when spilling is enabled and the outstanding account is past the
  /// watermark — SpilledU32Store checks this after every append.
  bool ShouldSpill() const {
    return spill_watermark_ != 0 &&
           outstanding_.load(std::memory_order_relaxed) > spill_watermark_;
  }

  size_t spill_watermark_bytes() const { return spill_watermark_; }
  size_t spill_partitions() const;
  size_t spill_bytes_written() const;

  // --- admission (api/database.hpp) ---

  /// Installs the hook that returns this statement's admission grant; run
  /// exactly once, by the destructor.
  void SetAdmissionRelease(std::function<void()> release) {
    admission_release_ = std::move(release);
  }

  bool cancelled() const {
    return static_cast<StatusCode>(tripped_.load(std::memory_order_acquire)) ==
           StatusCode::kCancelled;
  }

  // --- artifact recycler (exec/recycler.hpp) ---

  /// Counts one recycler lookup outcome for this statement, for
  /// ExecProfile::recycler_hits / recycler_misses.
  void RecordRecycler(bool hit) {
    (hit ? recycler_hits_ : recycler_misses_).fetch_add(1, std::memory_order_relaxed);
  }
  size_t recycler_hits() const { return recycler_hits_.load(std::memory_order_relaxed); }
  size_t recycler_misses() const {
    return recycler_misses_.load(std::memory_order_relaxed);
  }

  /// The fault site that fired on this query ("" when none); recorded by
  /// GovernorFaultPoint for ExecProfile::fault_site.
  std::string fault_site() const;
  void RecordFaultSite(const char* site);

  FaultInjector* faults() const { return faults_; }
  bool has_deadline() const {
    return deadline_ != std::chrono::steady_clock::time_point{};
  }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }
  size_t memory_budget_bytes() const { return budget_bytes_; }

 private:
  std::chrono::steady_clock::time_point deadline_{};  // zero = none
  size_t budget_bytes_ = 0;                           // 0 = unlimited
  FaultInjector* faults_ = nullptr;                   // nullptr = Global()

  std::atomic<int> tripped_{0};  // StatusCode of the first trip, 0 = none
  std::atomic<size_t> recycler_hits_{0};
  std::atomic<size_t> recycler_misses_{0};
  std::atomic<size_t> outstanding_{0};  // charges minus releases
  std::atomic<size_t> peak_{0};         // high-water mark of outstanding_
  size_t spill_watermark_ = 0;          // 0 = spilling disabled
  std::unique_ptr<SpillManager> spill_;
  std::function<void()> admission_release_;
  mutable std::mutex mutex_;  // guards trip_message_ / fault_site_
  std::string trip_message_;
  std::string fault_site_;
};

/// The executing thread's current governor (nullptr outside a governed
/// statement). ParallelFor propagates it to pool workers for the duration
/// of a region's tasks.
QueryContext* CurrentQueryContext();

/// Installs `context` as current for this thread's scope (restores the
/// previous one on unwind, so nested governed executions compose).
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* context);
  ~ScopedQueryContext();
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* saved_;
};

/// Poll point for execution loops: checks cancellation/deadline of the
/// current context (no-op without one). Throws QueryAbort on a trip.
inline void GovernorPoll() {
  if (QueryContext* ctx = CurrentQueryContext()) ctx->Poll();
}

/// Charges bytes against the current context's budget (no-op without one).
/// Throws QueryAbort (kResourceExhausted) when the budget trips.
inline void GovernorCharge(size_t bytes) {
  if (QueryContext* ctx = CurrentQueryContext()) ctx->Charge(bytes);
}

/// Returns bytes of a previous GovernorCharge (no-op without a context).
inline void GovernorRelease(size_t bytes) {
  if (QueryContext* ctx = CurrentQueryContext()) ctx->Release(bytes);
}

/// RAII transient charge: Add() charges the CURRENT context (captured at
/// the first Add), the destructor releases everything charged. Bytes are
/// recorded before Charge() runs, so a budget trip mid-Add still releases
/// the full amount when the owner unwinds. Movable (for state held in
/// vectors); release may run on a different thread than the charges —
/// the governor's accounting is atomic.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ~ScopedCharge() { ReleaseNow(); }
  ScopedCharge(ScopedCharge&& other) noexcept
      : ctx_(other.ctx_), bytes_(other.bytes_) {
    other.ctx_ = nullptr;
    other.bytes_ = 0;
  }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      ReleaseNow();
      ctx_ = other.ctx_;
      bytes_ = other.bytes_;
      other.ctx_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  void Add(size_t bytes) {
    if (ctx_ == nullptr) ctx_ = CurrentQueryContext();
    if (ctx_ == nullptr) return;
    bytes_ += bytes;
    ctx_->Charge(bytes);
  }

  void ReleaseNow() {
    if (ctx_ != nullptr && bytes_ > 0) ctx_->Release(bytes_);
    bytes_ = 0;
  }

 private:
  QueryContext* ctx_ = nullptr;
  size_t bytes_ = 0;
};

/// Named fault site (see FaultInjector::KnownSites). Consults the current
/// context's injector — or the global one outside a governed statement, so
/// sites like snapshot publication stay testable — and throws QueryAbort
/// with a deterministic message when the armed hit fires.
void GovernorFaultPoint(const char* site);

/// Batch-granularity poll helper for row-at-a-time loops: ticks a local
/// counter and polls the governor every `stride` rows, so per-row costs
/// stay at one increment + compare.
class GovernorTicker {
 public:
  explicit GovernorTicker(size_t stride = 1024) : stride_(stride) {}
  void Tick() {
    if (++count_ >= stride_) {
      count_ = 0;
      GovernorPoll();
    }
  }

 private:
  size_t stride_;
  size_t count_ = 0;
};

}  // namespace quotient
