#pragma once

// The four workloads. Each one generates its tables from the seed (harness
// work, never timed), names the statement templates set-up prepares and
// warms, and hands every session a closed-loop statement source.
//
// All four query one suppliers-and-parts schema:
//   supplies(s#, p#)      which supplier supplies which part
//   parts(p#, color)      eight colors, p# a declared key, supplies.p# a
//                         declared foreign key
// Each supplier covers every part of a color with a small probability, so
// small and great divides have nonempty quotients.

#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algebra/relation.hpp"
#include "api/session.hpp"

namespace e2e {

enum class Scale { kFull, kSmoke };

struct Read {
  int prepared = -1;  // index into the session's prepared statements; -1 = ad hoc
  std::string text;   // the statement, or the prepared template
  std::vector<quotient::Value> params;
};

/// One write unit: its statements run back to back through Session::Execute.
/// A kTxn unit is BEGIN; INSERT; INSERT; COMMIT.
struct Write {
  enum class Kind { kInsert, kDelete, kTxn };
  Kind kind = Kind::kInsert;
  std::vector<std::string> statements;
  std::vector<quotient::Tuple> inserted;  // rows the unit adds once acknowledged
};

struct Action {
  bool is_read = true;
  Read read;
  Write write;
};

/// The statements of one session. The loop is closed: Next is called only
/// after the previous statement completed.
class SessionSource {
 public:
  virtual ~SessionSource() = default;
  virtual Action Next(std::mt19937_64& rng) = 0;
  /// Outcome of the write unit Next just returned: acknowledged when every
  /// statement of the unit returned OK.
  virtual void Acknowledge(const Write& write, bool acknowledged) {
    (void)write;
    (void)acknowledged;
  }
};

struct Dataset {
  std::vector<std::pair<std::string, quotient::Relation>> tables;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Concurrent sessions the workload is defined with (capped at nproc).
  virtual size_t sessions() const = 0;
  /// Sampled statements replayed against the oracle after the window.
  virtual size_t verify_samples() const { return 32; }
  /// Check the sample against the SQL oracle interpreter, which also
  /// covers the lowering; otherwise against the reference algebra on the
  /// lowered plan (see Oracle in e2e/runner.hpp).
  virtual bool sql_oracle() const { return false; }
  /// Generates the tables from the seed (harness work, never timed).
  virtual Dataset Generate(uint64_t seed) = 0;
  /// Templates every session prepares in set-up.
  virtual std::vector<std::string> prepared() const { return {}; }
  /// One read per statement template; set-up runs each once.
  virtual std::vector<Read> WarmPass() const = 0;
  /// A fresh statement source for session `index`.
  virtual std::unique_ptr<SessionSource> NewSource(size_t index) = 0;
  /// Sizes recorded with the result.
  virtual std::vector<std::pair<std::string, double>> sizes() const = 0;
  /// Checks the final database state after the window; "" when it holds.
  /// `sources` are the sessions' sources, in session order.
  virtual std::string CheckFinalState(quotient::Session& session,
                                      const std::vector<SessionSource*>& sources) {
    (void)session;
    (void)sources;
    return "";
  }
};

namespace detail {

inline const char* const kColors[] = {"blue",  "red",    "green",  "white",
                                      "black", "yellow", "orange", "purple"};
constexpr int64_t kNumColors = 8;

inline std::string ColorOf(int64_t part) { return kColors[(part - 1) % kNumColors]; }

inline quotient::Tuple Supply(int64_t s, int64_t p) {
  return {quotient::Value::Int(s), quotient::Value::Int(p)};
}

/// supplies(s#, p#) over `supplier_ids` x parts 1..`parts`: each pair with
/// probability `density`, plus each color fully covered by a supplier with
/// probability `cover`. parts(p#, color) cycles through the eight colors.
inline Dataset SuppliersParts(const std::vector<int64_t>& supplier_ids, int64_t parts,
                              double density, double cover, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0, 1);
  std::vector<quotient::Tuple> supplies;
  for (int64_t s : supplier_ids) {
    bool covered[kNumColors];
    for (bool& c : covered) c = unit(rng) < cover;
    for (int64_t p = 1; p <= parts; ++p) {
      if (covered[(p - 1) % kNumColors] || unit(rng) < density) supplies.push_back(Supply(s, p));
    }
  }
  std::vector<quotient::Tuple> part_rows;
  for (int64_t p = 1; p <= parts; ++p) {
    part_rows.push_back({quotient::Value::Int(p), quotient::Value::Str(ColorOf(p))});
  }
  Dataset data;
  data.tables.emplace_back(
      "supplies",
      quotient::Relation(quotient::Schema::Parse("s#:int, p#:int"), std::move(supplies)));
  data.tables.emplace_back(
      "parts", quotient::Relation(quotient::Schema::Parse("p#:int, color:string"),
                                  std::move(part_rows)));
  return data;
}

inline std::vector<int64_t> Sequential(int64_t n) {
  std::vector<int64_t> ids;
  for (int64_t s = 1; s <= n; ++s) ids.push_back(s);
  return ids;
}

inline int64_t Uniform(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

inline Read AdHoc(std::string text) {
  Read read;
  read.text = std::move(text);
  return read;
}

/// Fixed read texts in the style of a dashboard: divides, semi-joins,
/// grouping and joins over supplies/parts. `suppliers` scales the s#
/// thresholds so selectivities stay the same at every size.
inline std::vector<std::string> FleetTexts(int64_t suppliers, size_t count) {
  auto s = [&](double share) {
    return std::to_string(static_cast<int64_t>(share * static_cast<double>(suppliers)));
  };
  std::vector<std::string> texts = {
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#",
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
      "AS p ON s.p# = p.p#",
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'green'",
      "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
      "color = 'black')",
      "SELECT s#, COUNT(p#) AS n FROM supplies GROUP BY s# HAVING COUNT(p#) >= 20",
      "SELECT DISTINCT s# FROM supplies WHERE p# NOT IN (SELECT p# FROM parts WHERE "
      "color = 'red')",
      // The filter sits in a derived table: written as one more conjunct of
      // the join condition it would turn the hash join into a nested loop.
      "SELECT s.s#, p.color FROM (SELECT s#, p# FROM supplies WHERE s# <= " + s(0.0125) +
          ") AS s, parts AS p WHERE s.p# = p.p#",
      "SELECT COUNT(*) AS n, MIN(p#) AS lo, MAX(p#) AS hi FROM supplies",
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'red') "
      "AS p ON s.p# = p.p#",
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# WHERE s# <= " +
          s(0.25),
      "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'white') "
      "AS p ON s.p# = p.p# WHERE s# > " + s(0.5),
      "SELECT p#, COUNT(s#) AS n FROM supplies GROUP BY p#",
      "SELECT color, COUNT(p#) AS n FROM parts GROUP BY color HAVING COUNT(p#) >= 2",
      "SELECT DISTINCT s1.s# FROM supplies AS s1 WHERE EXISTS (SELECT * FROM supplies AS s2 "
      "WHERE s2.p# = s1.p# AND s2.s# > " + s(0.99) + ")",
      "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
      "color = 'yellow') AND s# > " + s(0.75),
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'orange' AND s# > " + s(0.5),
  };
  texts.resize(std::min(count, texts.size()));
  return texts;
}

inline std::vector<Read> AdHocReads(const std::vector<std::string>& texts) {
  std::vector<Read> reads;
  for (const std::string& text : texts) reads.push_back(AdHoc(text));
  return reads;
}

// ----------------------------------------------------------- divide_olap ----
// One session alternates a prepared small divide and a prepared great
// divide, both over a seeded s# window. Execution dominates: every
// statement is a plan-cache hit, and the divisions over the window do the
// work.

class DivideOlap : public Workload {
 public:
  explicit DivideOlap(Scale scale)
      : suppliers_(scale == Scale::kFull ? 4000 : 400),
        parts_(scale == Scale::kFull ? 128 : 32),
        window_(suppliers_ / 4) {}

  size_t sessions() const override { return 1; }
  size_t verify_samples() const override { return 16; }

  Dataset Generate(uint64_t seed) override {
    std::mt19937_64 rng(seed);
    Dataset data = SuppliersParts(Sequential(suppliers_), parts_, 0.3, 0.05, rng);
    rows_ = static_cast<double>(data.tables[0].second.size());
    return data;
  }

  std::vector<std::string> prepared() const override {
    return {"SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = ?) "
            "AS p ON s.p# = p.p# WHERE s# >= ? AND s# < ?",
            "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
            "WHERE s# >= ? AND s# < ?"};
  }

  std::vector<Read> WarmPass() const override {
    std::mt19937_64 rng(0);
    return {Small(rng), Great(rng)};
  }

  std::unique_ptr<SessionSource> NewSource(size_t) override {
    return std::make_unique<Source>(this);
  }

  std::vector<std::pair<std::string, double>> sizes() const override {
    return {{"suppliers", static_cast<double>(suppliers_)},
            {"parts", static_cast<double>(parts_)},
            {"supply_rows", rows_},
            {"window_suppliers", static_cast<double>(window_)}};
  }

 private:
  struct Source : SessionSource {
    explicit Source(const DivideOlap* w) : workload(w) {}
    Action Next(std::mt19937_64& rng) override {
      Action action;
      action.read = (next_small = !next_small) ? workload->Small(rng) : workload->Great(rng);
      return action;
    }
    const DivideOlap* workload;
    bool next_small = false;
  };

  Read Window(std::mt19937_64& rng, int prepared_index) const {
    Read read;
    read.prepared = prepared_index;
    read.text = prepared()[static_cast<size_t>(prepared_index)];
    int64_t lo = Uniform(rng, 1, suppliers_ - window_ + 1);
    read.params = {quotient::Value::Int(lo), quotient::Value::Int(lo + window_)};
    return read;
  }
  Read Small(std::mt19937_64& rng) const {
    Read read = Window(rng, 0);
    read.params.insert(read.params.begin(),
                       quotient::Value::Str(kColors[Uniform(rng, 0, kNumColors - 1)]));
    return read;
  }
  Read Great(std::mt19937_64& rng) const { return Window(rng, 1); }

  int64_t suppliers_;
  int64_t parts_;
  int64_t window_;
  double rows_ = 0;
};

// --------------------------------------------------------- compile_storm ----
// One session sends ad-hoc statements of the law-rich shapes the session
// differential suite covers, with literals from a space of 10^6 values, so
// nearly every text is new to the 64-entry plan cache. Tables are tiny:
// parse, lowering, the rewrite search and physical planning dominate.

class CompileStorm : public Workload {
 public:
  static constexpr int64_t kLiteralSpace = 1000000;
  static constexpr int64_t kSuppliers = 96;

  explicit CompileStorm(Scale) {}

  size_t sessions() const override { return 1; }
  bool sql_oracle() const override { return true; }  // tiny tables, varied shapes

  Dataset Generate(uint64_t seed) override {
    std::mt19937_64 rng(seed);
    // One supplier id per equal stratum of the literal space, seeded within
    // it: s# comparisons with a random literal keep a varying share of the
    // rows, and that share is distributed alike for every seed.
    std::vector<int64_t> ids;
    const int64_t stratum = kLiteralSpace / kSuppliers;
    for (int64_t i = 0; i < kSuppliers; ++i) {
      ids.push_back(i * stratum + Uniform(rng, 1, stratum - 1));
    }
    Dataset data = SuppliersParts(ids, 32, 0.3, 0.1, rng);
    rows_ = static_cast<double>(data.tables[0].second.size());
    return data;
  }

  std::vector<Read> WarmPass() const override {
    std::vector<Read> reads;
    std::mt19937_64 rng(0);
    for (int shape = 0; shape < kShapes; ++shape) reads.push_back(AdHoc(Text(shape, rng)));
    return reads;
  }

  std::unique_ptr<SessionSource> NewSource(size_t) override {
    return std::make_unique<Source>();
  }

  std::vector<std::pair<std::string, double>> sizes() const override {
    return {{"suppliers", kSuppliers}, {"parts", 32}, {"supply_rows", rows_},
            {"literal_space", static_cast<double>(kLiteralSpace)}};
  }

 private:
  static constexpr int kShapes = 8;  // the last one is the computed-item shape

  struct Source : SessionSource {
    Action Next(std::mt19937_64& rng) override {
      // ~5% computed select items (oracle fallback), the rest spread over
      // the seven compiled shapes.
      int shape = Uniform(rng, 0, 99) < 5 ? kShapes - 1
                                          : static_cast<int>(Uniform(rng, 0, kShapes - 2));
      Action action;
      action.read = AdHoc(Text(shape, rng));
      return action;
    }
  };

  static std::string Text(int shape, std::mt19937_64& rng) {
    std::string lit = std::to_string(Uniform(rng, 0, kLiteralSpace - 1));
    std::string color = kColors[Uniform(rng, 0, kNumColors - 1)];
    std::string small = std::to_string(Uniform(rng, 1, 24));
    switch (shape) {
      case 0:
        return "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = '" +
               color + "') AS p ON s.p# = p.p# WHERE s# > " + lit;
      case 1:
        return "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
               "WHERE color = '" + color + "' AND s# < " + lit;
      case 2:
        return "SELECT s#, color FROM supplies AS s DIVIDE BY (SELECT p#, color FROM parts "
               "WHERE p# <= " + small + ") AS p ON s.p# = p.p# WHERE s# >= " + lit;
      case 3:
        return "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE "
               "color = '" + color + "') AND s# < " + lit;
      case 4:
        return "SELECT DISTINCT s1.s# FROM supplies AS s1 WHERE EXISTS (SELECT * FROM "
               "supplies AS s2 WHERE s2.p# = s1.p# AND s2.s# > " + lit + ")";
      case 5:
        return "SELECT s#, COUNT(p#) AS n FROM supplies WHERE s# > " + lit +
               " GROUP BY s# HAVING COUNT(p#) >= " + small;
      case 6:
        return "SELECT DISTINCT s# FROM supplies WHERE p# NOT IN (SELECT p# FROM parts WHERE "
               "color = '" + color + "') AND s# > " + lit;
      default:
        return "SELECT s# + " + lit + " AS t FROM supplies WHERE p# = " + small;
    }
  }

  double rows_ = 0;
};

// ---------------------------------------------------------- fleet_cached ----
// Four sessions share one Database and repeat sixteen fixed texts: every
// statement hits the plan cache and adopts warm recycler artifacts, so the
// shared caches and the worker pool carry the load.

class FleetCached : public Workload {
 public:
  explicit FleetCached(Scale scale)
      : suppliers_(scale == Scale::kFull ? 4000 : 200),
        parts_(scale == Scale::kFull ? 64 : 16),
        texts_(FleetTexts(suppliers_, 16)) {}

  size_t sessions() const override { return 4; }

  Dataset Generate(uint64_t seed) override {
    std::mt19937_64 rng(seed);
    Dataset data = SuppliersParts(Sequential(suppliers_), parts_, 0.3, 0.05, rng);
    rows_ = static_cast<double>(data.tables[0].second.size());
    return data;
  }

  std::vector<Read> WarmPass() const override { return AdHocReads(texts_); }

  std::unique_ptr<SessionSource> NewSource(size_t) override {
    return std::make_unique<Source>(&texts_);
  }

  std::vector<std::pair<std::string, double>> sizes() const override {
    return {{"suppliers", static_cast<double>(suppliers_)},
            {"parts", static_cast<double>(parts_)},
            {"supply_rows", rows_},
            {"texts", static_cast<double>(texts_.size())}};
  }

 private:
  struct Source : SessionSource {
    explicit Source(const std::vector<std::string>* t) : texts(t) {}
    Action Next(std::mt19937_64& rng) override {
      Action action;
      action.read = AdHoc((*texts)[static_cast<size_t>(
          Uniform(rng, 0, static_cast<int64_t>(texts->size()) - 1))]);
      return action;
    }
    const std::vector<std::string>* texts;
  };

  int64_t suppliers_;
  int64_t parts_;
  std::vector<std::string> texts_;
  double rows_ = 0;
};

// ------------------------------------------------------------ txn_churn ----
// Four sessions: 80% fleet-style reads, 20% writes into supplies. Writes are
// 50% autocommit INSERT of 1-4 rows in the session's own s# range, 25%
// autocommit DELETE of the session's oldest surviving insert, and 25%
// BEGIN; INSERT; INSERT; COMMIT. Every commit republishes supplies, which
// invalidates plans, recycler artifacts, statistics and encodings.

class TxnChurn : public Workload {
 public:
  explicit TxnChurn(Scale scale)
      : suppliers_(scale == Scale::kFull ? 2000 : 100),
        parts_(scale == Scale::kFull ? 32 : 16),
        texts_(FleetTexts(suppliers_, 8)) {}

  size_t sessions() const override { return 4; }

  Dataset Generate(uint64_t seed) override {
    std::mt19937_64 rng(seed);
    Dataset data = SuppliersParts(Sequential(suppliers_), parts_, 0.3, 0.05, rng);
    base_ = data.tables[0].second;
    return data;
  }

  std::vector<Read> WarmPass() const override { return AdHocReads(texts_); }

  std::unique_ptr<SessionSource> NewSource(size_t index) override {
    return std::make_unique<Source>(this, index);
  }

  std::vector<std::pair<std::string, double>> sizes() const override {
    return {{"suppliers", static_cast<double>(suppliers_)},
            {"parts", static_cast<double>(parts_)},
            {"supply_rows", static_cast<double>(base_.size())},
            {"read_texts", static_cast<double>(texts_.size())}};
  }

  /// supplies must hold the base rows plus every session's surviving
  /// acknowledged inserts, rebuilt from each session's write log.
  std::string CheckFinalState(quotient::Session& session,
                              const std::vector<SessionSource*>& sources) override {
    std::vector<quotient::Tuple> expected = base_.tuples();
    for (SessionSource* source : sources) {
      const auto& log = static_cast<Source*>(source)->surviving;
      expected.insert(expected.end(), log.begin(), log.end());
    }
    quotient::Relation want(base_.schema(), std::move(expected));
    quotient::Result<quotient::ResultCursor> cursor = session.Query("SELECT s#, p# FROM supplies");
    if (!cursor.ok()) return "final-state read failed: " + cursor.error();
    std::vector<quotient::Tuple> rows;
    quotient::Tuple row;
    while (const quotient::Batch* batch = cursor.value().NextBatch()) {
      for (size_t i = 0; i < batch->ActiveRows(); ++i) {
        batch->ToTuple(batch->RowAt(i), &row);
        rows.push_back(row);
      }
    }
    if (!cursor.value().status().ok()) {
      return "final-state read failed: " + cursor.value().status().message();
    }
    quotient::Relation got(base_.schema(), std::move(rows));
    if (got != want) {
      return "final supplies has " + std::to_string(got.size()) + " rows, the write logs give " +
             std::to_string(want.size());
    }
    return "";
  }

 private:
  struct Source : SessionSource {
    Source(const TxnChurn* w, size_t index)
        : workload(w), first_s(w->suppliers_ + 1 + static_cast<int64_t>(index) * 1000000) {}

    Action Next(std::mt19937_64& rng) override {
      Action action;
      int64_t roll = Uniform(rng, 0, 99);
      if (roll < 80) {
        action.read = AdHoc(workload->texts_[static_cast<size_t>(
            Uniform(rng, 0, static_cast<int64_t>(workload->texts_.size()) - 1))]);
        return action;
      }
      action.is_read = false;
      Write& write = action.write;
      if (roll < 85 && !surviving.empty()) {
        const quotient::Tuple& oldest = surviving.front();
        write.kind = Write::Kind::kDelete;
        write.statements = {"DELETE FROM supplies WHERE s# = " +
                            std::to_string(oldest[0].as_int()) +
                            " AND p# = " + std::to_string(oldest[1].as_int())};
      } else if (roll < 90) {
        write.kind = Write::Kind::kTxn;
        write.inserted = {Fresh(), Fresh()};
        write.statements = {"BEGIN", Insert({write.inserted[0]}), Insert({write.inserted[1]}),
                            "COMMIT"};
      } else {
        write.kind = Write::Kind::kInsert;
        int64_t n = Uniform(rng, 1, 4);
        for (int64_t i = 0; i < n; ++i) write.inserted.push_back(Fresh());
        write.statements = {Insert(write.inserted)};
      }
      return action;
    }

    void Acknowledge(const Write& write, bool acknowledged) override {
      if (!acknowledged) return;
      if (write.kind == Write::Kind::kDelete) {
        surviving.pop_front();
      } else {
        surviving.insert(surviving.end(), write.inserted.begin(), write.inserted.end());
      }
    }

    /// The next row of this session's own range: new suppliers, each
    /// filled part by part, so they gradually enter the quotients.
    quotient::Tuple Fresh() {
      int64_t n = next++;
      return Supply(first_s + n / workload->parts_, n % workload->parts_ + 1);
    }

    static std::string Insert(const std::vector<quotient::Tuple>& rows) {
      std::string sql = "INSERT INTO supplies VALUES ";
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(rows[i][0].as_int()) + ", " +
               std::to_string(rows[i][1].as_int()) + ")";
      }
      return sql;
    }

    const TxnChurn* workload;
    int64_t first_s;
    int64_t next = 0;
    std::deque<quotient::Tuple> surviving;  // acknowledged inserts not yet deleted
  };

  int64_t suppliers_;
  int64_t parts_;
  std::vector<std::string> texts_;
  quotient::Relation base_;
};

}  // namespace detail

/// The named workload, or null for an unknown name.
inline std::unique_ptr<Workload> MakeWorkload(const std::string& name, Scale scale) {
  if (name == "divide_olap") return std::make_unique<detail::DivideOlap>(scale);
  if (name == "compile_storm") return std::make_unique<detail::CompileStorm>(scale);
  if (name == "fleet_cached") return std::make_unique<detail::FleetCached>(scale);
  if (name == "txn_churn") return std::make_unique<detail::TxnChurn>(scale);
  return nullptr;
}

}  // namespace e2e
