#pragma once

// The engine's front door (docs/api.md): a Session compiles every SQL
// statement through the full stack the paper argues for — parse, lower to a
// logical plan with first-class division operators (sql/lower.hpp), rewrite
// by the memoized cost-guided search over the paper's laws
// (opt/optimizer.hpp, opt/memo.hpp), and execute on the batched/morsel-
// parallel pipeline executor (exec/pipeline.hpp). The plan cache is keyed on
// the normalized SQL alone. Statements the lowering cannot express fall
// back to the tuple-at-a-time oracle interpreter (sql::ExecuteQueryOracle)
// with the reason recorded in the profile, so semantics never regress while
// the fast path grows.
//
// Threading contract: a Session is a cheap, single-threaded handle onto a
// thread-safe Database (api/database.hpp). To serve N concurrent query
// streams, give each thread its own Session over one shared Database —
// they share the catalog snapshots, the plan cache, and the process-wide
// worker pool. A Session constructed without a Database owns a private one.
//
// Each statement pins the current catalog snapshot: it sees the data and
// metadata as of its start, and DDL from other sessions never tears a
// running query. Cursors and prepared statements keep working across DDL —
// cursors pin their snapshot for their whole lifetime, and prepared
// statements transparently recompile against the newest snapshot.
//
// The API never throws on bad input: every entry point returns Status or
// Result<>.

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/database.hpp"
#include "exec/batch.hpp"
#include "exec/iterator.hpp"
#include "exec/query_context.hpp"
#include "opt/optimizer.hpp"
#include "plan/catalog.hpp"
#include "sql/ast.hpp"
#include "util/status.hpp"

namespace quotient {

class Transaction;

struct SessionOptions {
  /// Physical-planner settings. Not part of the plan-cache key (the
  /// normalized SQL alone): they govern execution, not the logical plan.
  OptimizerOptions optimizer;
  /// Plan-cache capacity for a session-private Database (ignored when
  /// connecting to an existing Database, whose own capacity rules).
  /// 0 additionally opts this session out of the shared cache entirely.
  size_t plan_cache_capacity = 64;

  // ---- query lifecycle governor (exec/query_context.hpp) ----
  // These configure the per-statement QueryContext: they govern execution,
  // not plans.
  /// Per-statement wall-clock deadline, measured on the monotonic clock
  /// from each statement's start. Zero = none. A statement exceeding it
  /// unwinds with StatusCode::kDeadlineExceeded.
  std::chrono::milliseconds deadline{0};
  /// Per-statement budget for build-state allocations (approximate; see
  /// docs/robustness.md). Zero = unlimited. Exceeding it unwinds with
  /// StatusCode::kResourceExhausted. When the Database configures
  /// admission_memory_bytes, this is also the statement's admission grant.
  size_t memory_budget_bytes = 0;
  /// Soft spill watermark (exec/spill.hpp): when the statement's
  /// outstanding build-state account crosses it, the id-column stores
  /// flush to a per-query temp file instead of growing, so the statement
  /// degrades to out-of-core instead of tripping the hard budget. Zero =
  /// never spill. Results are bit-identical to the in-memory path.
  size_t spill_watermark_bytes = 0;
  /// Directory for spill temp files (empty = $TMPDIR or /tmp). Files are
  /// unlinked at creation; nothing survives the statement.
  std::string spill_dir;
  /// Deterministic fault injection for tests (nullptr = the process-global
  /// injector, which arms itself from QUOTIENT_FAULT=<site>:<nth>).
  FaultInjector* fault_injector = nullptr;
};

/// A fully materialized statement result.
struct QueryResult {
  Relation rows;
  ExecProfile profile;  // includes rewrite_steps / plan_cache_hit / fallback
  CompileInfo compile;
};

class Session;

/// A pull-based result stream: rows (Next) or whole batches (NextBatch)
/// without materializing the full relation. A cursor pins the catalog
/// snapshot it was opened against, so it stays valid across later DDL (it
/// streams the data as of its open). Execution errors — including failures
/// surfacing mid-stream from the shared-pool executor, and governor trips
/// (Session::Cancel, deadlines, memory budgets) — never throw:
/// Next/NextBatch return false/nullptr, status() carries the typed Status,
/// and the cursor closes deterministically (done() is true, further pulls
/// return end-of-stream, and the pinned snapshot is released so a
/// cancelled cursor stops holding catalog state).
class ResultCursor {
 public:
  ResultCursor(ResultCursor&&) noexcept = default;
  ResultCursor& operator=(ResultCursor&&) noexcept = default;
  ~ResultCursor();

  const Schema& schema() const;
  /// Copies the next row into `out`; false at end of stream or on error.
  bool Next(Tuple* out);
  /// The next batch of rows (valid until the following NextBatch/Next
  /// call); nullptr at end of stream or on error. Mixing granularities is
  /// fine: after some Next() calls, NextBatch() serves the not-yet-returned
  /// remainder of the current batch via its selection vector.
  const Batch* NextBatch();
  /// Drains the remaining rows into a relation and closes the cursor. On a
  /// mid-stream error the rows produced before the failure are returned
  /// and status() carries the error.
  Relation Drain();
  /// Releases the underlying plan; idempotent.
  void Close();

  bool done() const { return exhausted_; }
  const Status& status() const { return status_; }
  const CompileInfo& compile() const { return compile_; }
  /// Row-count/dop profile of what ran so far (complete once done()).
  ExecProfile Profile() const;

 private:
  friend class Session;
  ResultCursor(IterPtr root, std::shared_ptr<const Relation> owned, CompileInfo compile,
               SnapshotPtr snapshot, std::shared_ptr<QueryContext> context,
               std::shared_ptr<const Catalog> overlay = nullptr, int64_t limit = -1);
  bool PullBatch();
  /// Records the first error, invalidates the current batch, and closes.
  void Fail(Status status);

  IterPtr root_;
  std::shared_ptr<const Relation> owned_;  // backing rows for oracle results
  CompileInfo compile_;
  SnapshotPtr snapshot_;  // pinned catalog state backing the plan
  std::shared_ptr<const Catalog> overlay_;  // txn overlay backing the plan, if any
  std::shared_ptr<QueryContext> ctx_;  // governor shared with Session::Cancel
  Schema schema_;         // cached: survives teardown of root_
  ExecProfile final_profile_;  // captured at close, served once root_ is gone
  Batch batch_;
  size_t next_active_ = 0;  // batch_ rows already served through Next()
  int64_t remaining_limit_ = -1;  // LIMIT rows still to serve (-1 = no limit)
  bool batch_valid_ = false;
  bool opened_ = false;
  bool exhausted_ = false;
  Status status_;
};

/// A parsed statement with '?' placeholders. The statement compiles (parse
/// → lower → rewrite) ONCE per catalog version — the cached plan carries
/// parameter slots and each Execute/Query binds the values into it, so a
/// stream of distinct bindings is a stream of plan-cache hits. Borrow of
/// the Session: must not outlive it.
class PreparedStatement {
 public:
  size_t parameter_count() const { return param_count_; }
  const std::string& normalized_sql() const { return normalized_; }

  /// Binds `params` (one Value per '?', left to right) and executes.
  Result<QueryResult> Execute(const std::vector<Value>& params = {});
  /// Binds and opens a cursor instead of materializing.
  Result<ResultCursor> Query(const std::vector<Value>& params = {});

 private:
  friend class Session;
  Session* session_ = nullptr;
  std::shared_ptr<const sql::SqlQuery> ast_;  // unbound template
  std::string normalized_;
  size_t param_count_ = 0;
  bool explain_ = false;
  bool analyze_ = false;
};

class Session {
 public:
  /// A standalone session over its own private Database.
  explicit Session(SessionOptions options = {});
  /// A session over a shared Database: the intended shape for concurrent
  /// serving — one Database, one Session per thread.
  explicit Session(std::shared_ptr<Database> database, SessionOptions options = {});
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  // Movable; outstanding PreparedStatements/cursors point at the old
  // address, so move only before handing any out. (Defined in session.cpp
  // where Transaction is complete.)
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  ~Session();

  // ---- catalog management ----
  // DDL forwards to the Database: it publishes a new catalog snapshot
  // (copy-on-write) and invalidates cached plans referencing the touched
  // tables — other sessions' cached plans over other tables survive.
  /// Registers (or replaces) a table with the given rows.
  Status CreateTable(const std::string& name, Relation rows);
  /// Registers (or replaces) an empty table ("a:int, color:string").
  Status CreateTable(const std::string& name, const std::string& schema_spec);
  /// Appends rows to an existing table (set semantics: duplicates merge).
  Status InsertRows(const std::string& name, const std::vector<Tuple>& rows);
  /// Registers a table from CSV text / a CSV file (util/csv.hpp format).
  Status LoadCsv(const std::string& name, const std::string& csv_text);
  Status LoadCsvFile(const std::string& name, const std::string& path);
  /// Integrity metadata consulted by the rewrite laws (Laws 2/7/11/12/13).
  Status DeclareKey(const std::string& table, const std::vector<std::string>& attrs);
  Status DeclareForeignKey(const std::string& from_table,
                           const std::vector<std::string>& attrs,
                           const std::string& to_table);
  Status DeclareDisjoint(const std::string& table1, const std::string& table2,
                         const std::vector<std::string>& attrs);
  /// The catalog as of this session's last statement or DDL (a pinned
  /// snapshot; other sessions' later DDL shows up at the next statement).
  /// Inside a transaction: the transaction's read view, including its own
  /// buffered writes.
  const Catalog& catalog() const;
  /// The shared database this session serves.
  const std::shared_ptr<Database>& database() const { return database_; }

  // ---- statements ----
  /// Executes one statement: a SELECT (with DIVIDE BY, subqueries, GROUP
  /// BY/HAVING), or EXPLAIN [ANALYZE] <select> returning the compile+run
  /// story as a (line, detail) relation. Never throws.
  Result<QueryResult> Execute(const std::string& sql);
  /// Like Execute but returns a pull-based cursor over the result.
  Result<ResultCursor> Query(const std::string& sql);
  /// Parses and compiles once; execute many times with different '?'
  /// bindings without recompiling. SELECT / EXPLAIN only — transaction
  /// control and DML do not prepare.
  Result<PreparedStatement> Prepare(const std::string& sql);

  // ---- transactions (docs/transactions.md) ----
  // Also reachable through Execute("BEGIN"/"COMMIT"/"ROLLBACK"). A
  // transaction pins ONE snapshot for all its statements and buffers
  // INSERT/DELETE privately; COMMIT validates first-committer-wins and
  // fails with StatusCode::kConflict if any written table was committed
  // past the pinned version by another session. Statements outside a
  // transaction autocommit exactly as before.
  /// Starts a transaction; errors if one is already open.
  Status Begin();
  /// Validates and publishes the write set; the transaction ends whether
  /// this succeeds (one atomic snapshot publish) or fails (clean rollback,
  /// kConflict on a lost first-committer-wins race).
  Status Commit();
  /// Discards the write set; errors if no transaction is open.
  Status Rollback();
  bool in_transaction() const { return txn_ != nullptr; }

  /// Cancels every statement of this session currently in flight —
  /// materializing Execute()s on other threads and open cursors alike.
  /// Callable from ANY thread (the one concession to the Session's
  /// single-threaded contract). In-flight statements unwind to
  /// StatusCode::kCancelled within one morsel batch of poll latency; the
  /// worker pool stops admitting their morsels and stays reusable.
  /// Statements started after this call are unaffected.
  void Cancel();

  // ---- plan cache (shared; forwards to the Database) ----
  size_t plan_cache_size() const { return database_->plan_cache_size(); }
  PlanCacheStats plan_cache_stats() const { return database_->plan_cache_stats(); }
  void ClearPlanCache() { database_->ClearPlanCache(); }

 private:
  friend class PreparedStatement;

  struct Statement {
    bool explain = false;
    bool analyze = false;
    std::shared_ptr<const sql::SqlQuery> ast;
    std::string normalized;  // of the SELECT, without the EXPLAIN prefix
    // Non-SELECT statement (BEGIN/COMMIT/ROLLBACK/INSERT/DELETE); when set,
    // `ast` is null and the statement runs through RunCommand, not the
    // compile pipeline.
    std::shared_ptr<const sql::SqlStatement> command;
  };
  /// A cache lookup/compile outcome: the shared immutable entry plus
  /// whether it came from the cache (entries are shared, not copied, on
  /// the hit path).
  struct CompiledRef {
    std::shared_ptr<const CompiledStatement> entry;
    bool cache_hit = false;
  };
  /// Everything one statement execution needs: the pinned snapshot, the
  /// shared compiled entry, and the parameter-bound plan/AST to run.
  struct BoundStatement {
    SnapshotPtr snapshot;
    // Transaction read view when the statement runs inside a dirty
    // transaction: the txn's private catalog overlay (snapshot data plus
    // the txn's own buffered writes). Null outside transactions and for
    // clean (read-only-so-far) transactions.
    std::shared_ptr<const Catalog> overlay;
    Statement statement;
    CompiledRef compiled;
    PlanPtr plan;  // param-bound optimized plan (compiled path)
    std::shared_ptr<const sql::SqlQuery> ast;  // param-bound AST (oracle path)

    const Catalog& exec_catalog() const {
      return overlay != nullptr ? *overlay : snapshot->catalog();
    }
  };
  /// The catalog state a statement pins: the txn's snapshot (+overlay when
  /// dirty) inside a transaction, the database's newest snapshot outside.
  struct ReadView {
    SnapshotPtr snapshot;
    std::shared_ptr<const Catalog> overlay;  // non-null = dirty transaction
  };

  /// Pins the database's current snapshot as this session's view.
  const SnapshotPtr& Pin() { return snapshot_ = database_->snapshot(); }
  ReadView PinView();
  Result<Statement> ParseStatement(const std::string& sql) const;
  /// Shared-cache lookup, or a full lower → rewrite → cost compile against
  /// `catalog` published back to the cache under `version`. `allow_cache`
  /// is off for dirty-transaction statements: their overlay data is private,
  /// so neither cached plans nor data-dependent compiles may be shared.
  /// `stats` is the pinned snapshot's harvest cache feeding the cost model,
  /// or null for dirty-transaction compiles (the optimizer then owns a
  /// transient cache over the overlay catalog).
  CompiledRef Compile(const Catalog& catalog, uint64_t version, bool allow_cache,
                      std::shared_ptr<const sql::SqlQuery> ast, const std::string& normalized,
                      size_t param_count, const StatsCache* stats);
  /// Shared unbound-'?' check → compile back half of Execute/Query (after
  /// ParseStatement routed commands to RunCommand).
  Result<BoundStatement> CompileStatement(Statement statement);
  /// Shared '?'-binding front half of PreparedStatement::Execute/Query:
  /// compile-or-hit, then bind the values into the cached plan (or the AST
  /// on the oracle path).
  Result<BoundStatement> BindPrepared(const PreparedStatement& prepared,
                                      const std::vector<Value>& params);
  Result<QueryResult> Run(const BoundStatement& bound);
  Result<ResultCursor> Open(const BoundStatement& bound);
  Relation RenderExplain(const CompileInfo& info, bool analyze, const ExecProfile& profile,
                         size_t result_rows) const;

  // ---- transaction control + DML (src/api/txn.hpp) ----
  /// Dispatches a non-SELECT statement (the `Statement::command` path).
  Result<QueryResult> RunCommand(const sql::SqlStatement& command);
  /// INSERT: buffered into the open transaction, or autocommitted through a
  /// bounded first-committer-wins retry loop. Returns rows actually added
  /// (set semantics).
  Result<size_t> RunInsert(const sql::SqlInsert& insert);
  /// DELETE FROM t [WHERE ...]: evaluates the survivor query against the
  /// statement's read view and replaces the table. Returns rows removed.
  Result<size_t> RunDelete(const sql::SqlDelete& del);

  /// Creates this statement's governor from the session options and
  /// registers it with the cancel registry (weak: a finished statement's
  /// context expires on its own).
  std::shared_ptr<QueryContext> MakeContext();

  /// Live statements' governors, targeted by Cancel() from other threads.
  /// Behind a unique_ptr so the mutex doesn't pin the Session (stays
  /// movable while no statements are outstanding).
  struct CancelRegistry {
    std::mutex mutex;
    std::vector<std::weak_ptr<QueryContext>> active;
  };

  std::shared_ptr<Database> database_;
  SessionOptions options_;
  SnapshotPtr snapshot_;  // this session's pinned catalog view
  std::unique_ptr<CancelRegistry> cancels_;
  std::unique_ptr<Transaction> txn_;  // open transaction, if any
};

}  // namespace quotient
