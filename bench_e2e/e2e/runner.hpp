#pragma once

// Set-up, the closed-loop session threads, and the post-window checks.
//
// Every read goes through Session::Query or PreparedStatement::Query and is
// drained with NextBatch() until it returns null; then status() is checked.
// Writes go through Session::Execute. Nothing else of the engine is called
// inside the timed window. Traced runs additionally replay each traced
// statement's compile through the layer entry points (sql::Tokenize,
// sql::ParseTokens, sql::LowerQuery, Optimizer::Optimize,
// BuildPhysicalPlan) after the statement has finished, outside its span.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "e2e/common.hpp"
#include "e2e/trace.hpp"
#include "e2e/workloads.hpp"
#include "opt/optimizer.hpp"
#include "opt/planner.hpp"
#include "plan/evaluate.hpp"
#include "sql/interp.hpp"
#include "sql/lexer.hpp"
#include "sql/lower.hpp"
#include "sql/parser.hpp"

namespace e2e {

/// The engine state a run measures: one Database, one Session per load
/// thread, and each session's prepared statements. Members are destroyed in
/// reverse order, so prepared statements go before the sessions they borrow.
struct Engine {
  std::shared_ptr<quotient::Database> db;
  std::vector<std::unique_ptr<quotient::Session>> sessions;
  std::vector<std::vector<quotient::PreparedStatement>> prepared;
};

/// Runs one read to completion on `engine`'s session `index` and returns
/// its status; `rows` receives the number of rows drained.
inline quotient::Status RunRead(Engine& engine, size_t index, const Read& read, size_t* rows) {
  quotient::Result<quotient::ResultCursor> cursor =
      read.prepared >= 0
          ? engine.prepared[index][static_cast<size_t>(read.prepared)].Query(read.params)
          : engine.sessions[index]->Query(read.text);
  if (!cursor.ok()) return cursor.status();
  *rows = 0;
  while (const quotient::Batch* batch = cursor.value().NextBatch()) *rows += batch->ActiveRows();
  return cursor.value().status();
}

/// Builds `engine` from `data`: creates the tables, declares parts.p# a key
/// and supplies.p# a foreign key, opens the sessions, prepares the
/// workload's templates and runs the warm pass. Returns the seconds spent
/// inside engine calls; copying the generated rows is harness work and is
/// not counted. Fills `error` and returns a negative value on failure.
inline double SetUp(Workload& workload, const Dataset& data, size_t sessions, Engine* engine,
                    std::string* error) {
  // Tear down the previous engine: prepared statements borrow their
  // sessions, and sessions share the database.
  engine->prepared.clear();
  engine->sessions.clear();
  engine->db.reset();
  int64_t engine_ns = 0;
  auto timed = [&engine_ns](auto&& call) {
    int64_t start = NowNs();
    auto result = call();
    engine_ns += NowNs() - start;
    return result;
  };
  auto check = [error](const quotient::Status& status, const std::string& what) {
    if (!status.ok()) *error = what + ": " + status.message();
    return status.ok();
  };

  engine->db = timed([] { return std::make_shared<quotient::Database>(); });
  for (const auto& [name, rows] : data.tables) {
    quotient::Relation copy = rows;
    quotient::Status status =
        timed([&] { return engine->db->CreateTable(name, std::move(copy)); });
    if (!check(status, "CreateTable " + name)) return -1;
  }
  if (!check(timed([&] { return engine->db->DeclareKey("parts", {"p#"}); }), "DeclareKey") ||
      !check(timed([&] { return engine->db->DeclareForeignKey("supplies", {"p#"}, "parts"); }),
             "DeclareForeignKey")) {
    return -1;
  }

  for (size_t i = 0; i < sessions; ++i) {
    engine->sessions.push_back(
        timed([&] { return std::make_unique<quotient::Session>(engine->db); }));
    engine->prepared.emplace_back();
    for (const std::string& text : workload.prepared()) {
      quotient::Result<quotient::PreparedStatement> prepared =
          timed([&] { return engine->sessions[i]->Prepare(text); });
      if (!check(prepared.status(), "Prepare")) return -1;
      engine->prepared[i].push_back(std::move(prepared).value());
    }
  }
  for (const Read& read : workload.WarmPass()) {
    size_t rows = 0;
    if (!check(timed([&] { return RunRead(*engine, 0, read, &rows); }),
               "warm pass: " + read.text)) {
      return -1;
    }
  }
  return static_cast<double>(engine_ns) / 1e9;
}

/// A read kept for the oracle check: its statement, the catalog snapshot it
/// ran on, the plan the lowering produced (null when it fell back to the
/// interpreter), and the rows the timed execution returned.
struct Capture {
  Read read;
  quotient::Catalog catalog;
  quotient::PlanPtr lowered;
  quotient::Schema schema;
  std::vector<quotient::Tuple> rows;
};

/// Per-read counters of a traced statement, from ResultCursor::Profile()
/// and ResultCursor::compile().
struct ReadRecord {
  bool cache_hit = false;
  bool compiled = false;
  bool budget_exhausted = false;
  size_t search_candidates = 0;
  size_t memo_hits = 0;
  std::vector<std::string> rewrites;  // applied rule names (cache misses only)
  size_t work_rows = 0;
  size_t result_rows = 0;
  size_t max_dop = 0;
  size_t charged_bytes = 0;
  size_t spill_bytes = 0;
  size_t recycler_hits = 0;
  size_t recycler_misses = 0;
};

/// One statement's latency and when it finished.
struct Latency {
  int64_t end_ns = 0;
  double ms = 0;
};

/// Everything one session thread measured.
struct SessionStats {
  std::vector<Latency> reads_ms;   // untraced reads
  std::vector<Latency> writes_ms;  // untraced write units
  std::vector<double> traced_ms;   // traced statements (trace runs only)
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures

  uint64_t reads_seen = 0;        // reservoir position
  std::vector<Capture> captures;  // seeded reservoir sample of reads
  // Hash of (text, bindings, table versions) -> rows. Hashed so the map's
  // memory stays small next to the engine's when nearly every key is new.
  std::unordered_map<uint64_t, size_t> row_counts;
  uint64_t row_count_mismatches = 0;

  SpanLog log;
  std::vector<ReadRecord> records;  // traced reads
  uint64_t replayed_misses = 0;     // traced cache misses whose compile was replayed
};

struct LoopConfig {
  int64_t deadline_ns = 0;
  bool trace = false;
  size_t reservoir = 32;
  uint64_t seed = 0;
  std::vector<std::string> tables;  // names whose data versions key row counts
  std::atomic<uint64_t>* completed = nullptr;  // statements finished, all sessions
};

namespace detail {

inline void NoteError(SessionStats* stats, const std::string& message) {
  ++stats->failed;
  if (stats->errors.size() < 5) stats->errors.push_back(message);
}

inline uint64_t RowCountKey(const Read& read, const quotient::Catalog& catalog,
                            const std::vector<std::string>& tables) {
  std::string key = read.text;
  for (const quotient::Value& value : read.params) key += '\x1f' + value.ToString();
  key += '\x1e';
  for (const std::string& table : tables) {
    key += std::to_string(catalog.DataVersion(table)) + ',';
  }
  return std::hash<std::string>{}(key);
}

/// Re-runs the compile of a finished traced statement layer by layer on
/// the catalog it ran on: parse, lower and optimize for plan-cache misses,
/// then physical planning (which every execution pays, hits included).
inline void ReplayCompile(Engine& engine, const Read& read, const quotient::CompileInfo& info,
                          const quotient::Catalog& catalog,
                          const std::vector<std::string>& tables, uint64_t stmt_id,
                          int64_t root, SessionStats* stats) {
  SpanLog& log = stats->log;
  // The snapshot's shared statistics are used when it still holds the
  // statement's data, as the engine's own compile did.
  quotient::SnapshotPtr snapshot = engine.db->snapshot();
  const quotient::StatsCache* table_stats = &snapshot->stats();
  for (const std::string& table : tables) {
    if (snapshot->catalog().DataVersion(table) != catalog.DataVersion(table)) {
      table_stats = nullptr;
    }
  }
  quotient::PlannerOptions planner;
  planner.recycler = engine.db->recycler();

  quotient::PlanPtr plan = info.optimized;
  if (!info.cache_hit) {
    int64_t span = log.Open("sql.parse", stmt_id, root);
    quotient::Result<std::vector<quotient::sql::Token>> tokens =
        quotient::sql::Tokenize(read.text);
    quotient::Result<std::shared_ptr<quotient::sql::SqlQuery>> ast =
        tokens.ok() ? quotient::sql::ParseTokens(std::move(tokens).value())
                    : quotient::Result<std::shared_ptr<quotient::sql::SqlQuery>>::Error(
                          tokens.error());
    log.Close(span);
    if (!ast.ok()) return;
    span = log.Open("sql.lower", stmt_id, root);
    quotient::Result<quotient::PlanPtr> lowered =
        quotient::sql::LowerQuery(*ast.value(), catalog);
    log.Close(span);
    ++stats->replayed_misses;
    if (!lowered.ok()) return;
    quotient::OptimizerOptions options;
    options.planner = planner;
    span = log.Open("opt.optimize", stmt_id, root);
    quotient::OptimizationReport report =
        quotient::Optimizer(catalog, options, table_stats).Optimize(lowered.value());
    log.Close(span);
    plan = report.chosen;
  }
  if (plan == nullptr) return;  // oracle fallback: nothing to plan
  quotient::PlanPtr bound =
      read.params.empty() ? plan : quotient::BindPlanParameters(plan, read.params);
  int64_t span = log.Open("opt.plan_build", stmt_id, root);
  quotient::IterPtr physical = quotient::BuildPhysicalPlan(bound, catalog, planner, table_stats);
  log.Close(span);
}

inline void DoRead(Engine& engine, size_t index, const Read& read, const LoopConfig& config,
                   bool traced, uint64_t stmt_id, std::mt19937_64& rng, SessionStats* stats) {
  SpanLog& log = stats->log;
  log.set_enabled(traced);
  // Seeded reservoir sample: decided before the statement runs, so only
  // the sampled reads copy their rows (and the copy is not timed).
  size_t slot = config.reservoir;
  if (stats->reads_seen < config.reservoir) {
    slot = static_cast<size_t>(stats->reads_seen);
  } else {
    uint64_t pick = std::uniform_int_distribution<uint64_t>(0, stats->reads_seen)(rng);
    if (pick < config.reservoir) slot = static_cast<size_t>(pick);
  }
  ++stats->reads_seen;
  const bool capture = slot < config.reservoir;
  std::vector<quotient::Tuple> rows;
  int64_t untimed_ns = 0;

  int64_t start = NowNs();
  int64_t root = log.Open("stmt", stmt_id, -1);
  int64_t span = log.Open("api.query", stmt_id, root);
  quotient::Result<quotient::ResultCursor> cursor =
      read.prepared >= 0
          ? engine.prepared[index][static_cast<size_t>(read.prepared)].Query(read.params)
          : engine.sessions[index]->Query(read.text);
  log.Close(span);
  size_t result_rows = 0;
  quotient::Status status = cursor.status();
  if (cursor.ok()) {
    quotient::Tuple row;
    for (bool first = true;; first = false) {
      span = log.Open(first ? "exec.open" : "exec.pull", stmt_id, root);
      const quotient::Batch* batch = cursor.value().NextBatch();
      log.Close(span);
      if (batch == nullptr) break;
      result_rows += batch->ActiveRows();
      if (capture) {
        int64_t copy_start = NowNs();
        for (size_t i = 0; i < batch->ActiveRows(); ++i) {
          batch->ToTuple(batch->RowAt(i), &row);
          rows.push_back(row);
        }
        untimed_ns += NowNs() - copy_start;
      }
    }
    status = cursor.value().status();
  }
  log.Close(root);
  int64_t end = NowNs();
  double ms = static_cast<double>(end - start - untimed_ns) / 1e6;
  if (traced) {
    stats->traced_ms.push_back(ms);
  } else {
    stats->reads_ms.push_back({end, ms});
  }
  ++stats->reads;
  if (!status.ok()) {
    NoteError(stats, read.text + ": " + status.message());
    return;
  }

  // The session's pinned catalog is the snapshot this statement ran on.
  const quotient::Catalog& catalog = engine.sessions[index]->catalog();
  auto [it, inserted] =
      stats->row_counts.emplace(RowCountKey(read, catalog, config.tables), result_rows);
  if (!inserted && it->second != result_rows) ++stats->row_count_mismatches;
  if (capture) {
    Capture sample{read, catalog, cursor.value().compile().lowered, cursor.value().schema(),
                   std::move(rows)};
    if (slot < stats->captures.size()) {
      stats->captures[slot] = std::move(sample);
    } else {
      stats->captures.push_back(std::move(sample));
    }
  }
  if (!traced) return;

  const quotient::CompileInfo& info = cursor.value().compile();
  quotient::ExecProfile profile = cursor.value().Profile();
  ReadRecord record;
  record.cache_hit = info.cache_hit;
  record.compiled = info.compiled;
  if (!info.cache_hit) {
    record.budget_exhausted = info.rewrite_budget_exhausted;
    record.search_candidates = info.search_candidates;
    record.memo_hits = info.memo_hits;
    for (const quotient::RewriteStep& step : info.rewrites) {
      // Budget markers are parenthesized and are not rules.
      if (!step.rule.empty() && step.rule[0] != '(') record.rewrites.push_back(step.rule);
    }
  }
  record.work_rows = profile.total_rows;
  record.result_rows = result_rows;
  record.max_dop = profile.max_dop;
  record.charged_bytes = profile.rows_charged_bytes;
  record.spill_bytes = profile.spill_bytes_written;
  record.recycler_hits = profile.recycler_hits;
  record.recycler_misses = profile.recycler_misses;
  stats->records.push_back(std::move(record));
  ReplayCompile(engine, read, info, catalog, config.tables, stmt_id, root, stats);
}

inline void DoWrite(Engine& engine, size_t index, SessionSource& source, const Write& write,
                    bool traced, uint64_t stmt_id, SessionStats* stats) {
  SpanLog& log = stats->log;
  log.set_enabled(traced);
  quotient::Session& session = *engine.sessions[index];
  bool acknowledged = true;
  int64_t start = NowNs();
  int64_t root = log.Open("stmt", stmt_id, -1);
  for (const std::string& sql : write.statements) {
    const char* name = sql == "BEGIN" ? "api.begin" : sql == "COMMIT" ? "api.commit" : "api.write";
    int64_t span = log.Open(name, stmt_id, root);
    quotient::Result<quotient::QueryResult> result = session.Execute(sql);
    log.Close(span);
    if (result.ok()) continue;
    acknowledged = false;
    // Losing first-committer-wins is an expected outcome, not a failure.
    if (result.status().code() != quotient::StatusCode::kConflict) {
      NoteError(stats, sql + ": " + result.error());
    }
    break;
  }
  log.Close(root);
  int64_t end = NowNs();
  double ms = static_cast<double>(end - start) / 1e6;
  if (traced) {
    stats->traced_ms.push_back(ms);
  } else {
    stats->writes_ms.push_back({end, ms});
  }
  ++stats->writes;
  if (session.in_transaction()) (void)session.Rollback();  // a unit cut short
  source.Acknowledge(write, acknowledged);
}

}  // namespace detail

/// One session thread: statements back to back until the deadline passes.
/// In traced runs a seeded coin traces about half of the statements; the
/// untraced half gives the latency the tracing overhead is measured against.
inline void RunSession(Engine& engine, size_t index, SessionSource& source,
                       const LoopConfig& config, SessionStats* stats) {
  std::mt19937_64 rng(config.seed * 1000003 + index);
  uint64_t sequence = 0;
  while (NowNs() < config.deadline_ns) {
    Action action = source.Next(rng);
    bool traced = config.trace && (rng() & 1) != 0;
    uint64_t stmt_id = (static_cast<uint64_t>(index) << 40) | sequence++;
    try {
      if (action.is_read) {
        detail::DoRead(engine, index, action.read, config, traced, stmt_id, rng, stats);
      } else {
        detail::DoWrite(engine, index, source, action.write, traced, stmt_id, stats);
      }
    } catch (const std::exception& e) {
      // The API reports errors as Status; anything thrown (here or from the
      // compile replay's layer calls) is a defect, recorded as a failure.
      detail::NoteError(stats, std::string("exception: ") + e.what());
    }
    config.completed->fetch_add(1, std::memory_order_relaxed);
  }
}

struct VerifyResult {
  size_t checked = 0;
  size_t mismatches = 0;
  std::vector<std::string> errors;
};

/// The reference answer for a captured read on the catalog it ran on: the
/// SQL oracle interpreter (sql::ExecuteQueryOracle) when `sql_oracle` is set
/// or the statement fell back, else the reference algebra (plan::Evaluate)
/// on the lowered plan. The interpreter evaluates correlated subqueries
/// tuple at a time, which takes minutes on the larger workloads' tables.
inline quotient::Result<quotient::Relation> Oracle(const Capture& capture, bool sql_oracle) {
  using ParsedQuery = quotient::Result<std::shared_ptr<quotient::sql::SqlQuery>>;
  try {
    if (!sql_oracle && capture.lowered != nullptr) {
      return quotient::Evaluate(
          capture.read.params.empty()
              ? capture.lowered
              : quotient::BindPlanParameters(capture.lowered, capture.read.params),
          capture.catalog);
    }
    quotient::Result<std::vector<quotient::sql::Token>> tokens =
        quotient::sql::Tokenize(capture.read.text);
    if (!tokens.ok()) return quotient::Result<quotient::Relation>::Error(tokens.error());
    ParsedQuery ast = quotient::sql::ParseTokens(std::move(tokens).value());
    if (!ast.ok()) return quotient::Result<quotient::Relation>::Error(ast.error());
    if (!capture.read.params.empty()) {
      ast = quotient::sql::BindParameters(*ast.value(), capture.read.params);
      if (!ast.ok()) return quotient::Result<quotient::Relation>::Error(ast.error());
    }
    return quotient::sql::ExecuteQueryOracle(*ast.value(), capture.catalog);
  } catch (const std::exception& e) {
    return quotient::Result<quotient::Relation>::Error(e.what());
  }
}

/// Checks a seeded sample of `count` captured reads against the oracle:
/// the rows the timed execution returned must equal the oracle's result
/// exactly, with no duplicate rows. With `perturb`, the first nonempty
/// expected result loses a row, so a working check must fail.
inline VerifyResult VerifySample(std::vector<Capture> pool, size_t count, uint64_t seed,
                                 bool sql_oracle, bool perturb) {
  VerifyResult out;
  std::mt19937_64 rng(seed ^ 0x5eed5eedULL);
  std::shuffle(pool.begin(), pool.end(), rng);
  if (pool.size() > count) pool.resize(count);
  bool perturbed = false;
  for (const Capture& capture : pool) {
    ++out.checked;
    quotient::Result<quotient::Relation> expected = Oracle(capture, sql_oracle);
    std::string problem;
    if (!expected.ok()) {
      problem = "oracle failed: " + expected.error();
    } else {
      quotient::Relation want = std::move(expected).value();
      if (perturb && !perturbed && !want.empty()) {
        std::vector<quotient::Tuple> tuples = want.tuples();
        tuples.pop_back();
        want = quotient::Relation(want.schema(), std::move(tuples));
        perturbed = true;
      }
      try {
        quotient::Relation got(capture.schema, capture.rows);
        if (got.size() != capture.rows.size()) {
          problem = "duplicate rows in the engine's result";
        } else if (got != want) {
          problem = "engine returned " + std::to_string(got.size()) + " rows, oracle " +
                    std::to_string(want.size());
        }
      } catch (const std::exception& e) {
        problem = std::string("engine rows do not form a relation: ") + e.what();
      }
    }
    if (!problem.empty()) {
      ++out.mismatches;
      if (out.errors.size() < 5) out.errors.push_back(capture.read.text + ": " + problem);
    }
  }
  if (perturb && !perturbed) {
    ++out.mismatches;
    out.errors.push_back("perturbation found no nonempty result to perturb");
  }
  return out;
}

}  // namespace e2e
