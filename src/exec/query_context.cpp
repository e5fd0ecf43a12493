#include "exec/query_context.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "exec/spill.hpp"

namespace quotient {

namespace {

thread_local QueryContext* tls_query_context = nullptr;

/// The fault-site registry. Keep docs/robustness.md and the sweep test in
/// tests/test_governor.cpp in step with this list.
const std::vector<std::string> kKnownSites = {
    "scheduler.task",       // worker-pool task admission (exec/scheduler.cpp)
    "pipeline.drain",       // serial drains, per batch (exec/{pipeline,iterator,exec_basic}.cpp)
    "pipeline.morsel",      // parallel morsel read, per batch (exec/division_runs.cpp)
    "pipeline.merge",       // chunk-ordered run-sink merge (exec/division_runs.cpp)
    "sink.codec_append",    // divisor/build codec appends (exec/pipeline.cpp)
    "sink.probe_append",    // dividend probe drains (exec/{pipeline,division_runs}.cpp)
    "sink.join_build",      // hash-join build drains (exec/pipeline.cpp)
    "sink.aggregate",       // grouping drains (exec/exec_agg.cpp)
    "divide.bitmap_fill",   // hash-division bitmap fills (exec/exec_divide.cpp)
    "catalog.encoding",     // dictionary-encoding builds (plan/catalog.cpp)
    "snapshot.publish",     // DDL snapshot publication (api/database.cpp)
    "cursor.pull",          // ResultCursor batch pulls (api/session.cpp)
    "spill.open",           // first spill-file open of a statement (exec/spill.cpp)
    "spill.write",          // each spill-partition write (exec/spill.cpp)
    "spill.disk_full",      // simulated out-of-disk, per partition write (exec/spill.cpp)
    "spill.read",           // each spilled-run read (exec/spill.cpp)
    "recycler.lookup",      // artifact-recycler lookups (exec/recycler.cpp)
    "recycler.publish",     // artifact publication after a build (exec/recycler.cpp)
    "txn.validate",         // commit-time first-committer-wins check (api/database.cpp)
    "txn.publish",          // commit snapshot publication (api/database.cpp)
};

}  // namespace

void FaultInjector::Arm(const std::string& site, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_[site] = Armed{nth == 0 ? 1 : nth, 0};
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  armed_.store(false, std::memory_order_release);
}

bool FaultInjector::Hit(const char* site) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  return ++it->second.hits == it->second.nth;
}

FaultInjector* FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();  // leaked: process lifetime
    if (const char* env = std::getenv("QUOTIENT_FAULT")) {
      ArmFromSpec(inj, env);
    }
    return inj;
  }();
  return injector;
}

bool FaultInjector::ArmFromSpec(FaultInjector* injector, const std::string& spec) {
  size_t colon = spec.rfind(':');
  std::string site = spec;
  uint64_t nth = 1;
  if (colon != std::string::npos) {
    site = spec.substr(0, colon);
    std::string nth_text = spec.substr(colon + 1);
    char* end = nullptr;
    errno = 0;
    long parsed = std::strtol(nth_text.c_str(), &end, 10);
    if (nth_text.empty() || end != nth_text.c_str() + nth_text.size() || parsed <= 0 ||
        errno == ERANGE) {
      std::fprintf(stderr,
                   "QUOTIENT_FAULT: bad nth '%s' in spec '%s' "
                   "(want <site>:<positive integer>); not arming\n",
                   nth_text.c_str(), spec.c_str());
      return false;
    }
    nth = static_cast<uint64_t>(parsed);
  }
  if (site.empty()) {
    std::fprintf(stderr, "QUOTIENT_FAULT: empty site in spec '%s'; not arming\n",
                 spec.c_str());
    return false;
  }
  const std::vector<std::string>& known = KnownSites();
  if (std::find(known.begin(), known.end(), site) == known.end()) {
    std::fprintf(stderr,
                 "QUOTIENT_FAULT: unknown site '%s' in spec '%s' "
                 "(see FaultInjector::KnownSites()); not arming\n",
                 site.c_str(), spec.c_str());
    return false;
  }
  injector->Arm(site, nth);
  return true;
}

const std::vector<std::string>& FaultInjector::KnownSites() { return kKnownSites; }

QueryContext::QueryContext() = default;

QueryContext::QueryContext(std::chrono::steady_clock::time_point deadline,
                           size_t memory_budget_bytes, FaultInjector* faults)
    : deadline_(deadline), budget_bytes_(memory_budget_bytes), faults_(faults) {}

QueryContext::~QueryContext() {
  spill_.reset();  // close the temp file before the grant returns
  if (admission_release_) admission_release_();
}

void QueryContext::EnableSpill(size_t watermark_bytes, std::string dir) {
  spill_watermark_ = watermark_bytes;
  if (watermark_bytes != 0) spill_ = std::make_unique<SpillManager>(std::move(dir));
}

size_t QueryContext::spill_partitions() const {
  return spill_ != nullptr ? spill_->partitions() : 0;
}

size_t QueryContext::spill_bytes_written() const {
  return spill_ != nullptr ? spill_->bytes_written() : 0;
}

void QueryContext::Trip(StatusCode code, const std::string& message) {
  int expected = 0;
  if (tripped_.compare_exchange_strong(expected, static_cast<int>(code),
                                       std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mutex_);
    trip_message_ = message;
  }
}

Status QueryContext::TripStatus() const {
  StatusCode code = static_cast<StatusCode>(tripped_.load(std::memory_order_acquire));
  if (code == StatusCode::kOk) return Status::Ok();
  std::lock_guard<std::mutex> lock(mutex_);
  return Status::Make(code, trip_message_);
}

void QueryContext::Poll() {
  if (!Aborted() && has_deadline() && std::chrono::steady_clock::now() >= deadline_) {
    Trip(StatusCode::kDeadlineExceeded, "query deadline exceeded");
  }
  if (Aborted()) throw QueryAbort(TripStatus());
}

void QueryContext::Charge(size_t bytes) {
  size_t total = outstanding_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (peak < total &&
         !peak_.compare_exchange_weak(peak, total, std::memory_order_relaxed)) {
  }
  if (budget_bytes_ != 0 && total > budget_bytes_) {
    Trip(StatusCode::kResourceExhausted,
         "query memory budget exceeded (" + std::to_string(total) + " > " +
             std::to_string(budget_bytes_) + " bytes)");
    throw QueryAbort(TripStatus());
  }
  if (Aborted()) throw QueryAbort(TripStatus());
}

void QueryContext::Release(size_t bytes) {
  outstanding_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::string QueryContext::fault_site() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_site_;
}

void QueryContext::RecordFaultSite(const char* site) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fault_site_.empty()) fault_site_ = site;
}

QueryContext* CurrentQueryContext() { return tls_query_context; }

ScopedQueryContext::ScopedQueryContext(QueryContext* context) : saved_(tls_query_context) {
  tls_query_context = context;
}

ScopedQueryContext::~ScopedQueryContext() { tls_query_context = saved_; }

void GovernorFaultPoint(const char* site) {
  QueryContext* ctx = tls_query_context;
  FaultInjector* injector =
      (ctx != nullptr && ctx->faults() != nullptr) ? ctx->faults() : FaultInjector::Global();
  if (!injector->Hit(site)) return;
  if (ctx != nullptr) ctx->RecordFaultSite(site);
  // Deterministic message: identical at every thread count, so differential
  // sweeps can assert terminal-status equality.
  throw QueryAbort(Status::Error(std::string("injected fault at ") + site));
}

}  // namespace quotient
