#include "opt/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

namespace quotient {

void FingerprintValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull: *out += 'n'; return;
    case ValueType::kInt:
      *out += 'i';
      *out += std::to_string(v.as_int());
      return;
    case ValueType::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "r%.17g", v.as_real());
      *out += buf;
      return;
    }
    case ValueType::kString:
      *out += 's';
      *out += std::to_string(v.as_str().size());
      *out += ':';
      *out += v.as_str();
      return;
    case ValueType::kSet: {
      *out += "{";
      for (const Value& e : v.as_set()) {
        FingerprintValue(e, out);
        *out += ',';
      }
      *out += '}';
      return;
    }
  }
  *out += '?';
}

bool FingerprintExpr(const ExprPtr& e, std::string* out) {
  if (e == nullptr) {
    *out += '_';
    return true;
  }
  switch (e->kind()) {
    case Expr::Kind::kColumn:
      *out += 'c';
      *out += std::to_string(e->column_name().size());
      *out += ':';
      *out += e->column_name();
      return true;
    case Expr::Kind::kLiteral:
      FingerprintValue(e->literal(), out);
      return true;
    case Expr::Kind::kParam: return false;
    case Expr::Kind::kCompare:
      *out += '(';
      if (!FingerprintExpr(e->left(), out)) return false;
      *out += CmpOpName(e->cmp_op());
      if (!FingerprintExpr(e->right(), out)) return false;
      *out += ')';
      return true;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
    case Expr::Kind::kNot:
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul:
    case Expr::Kind::kDiv: {
      *out += '(';
      *out += std::to_string(static_cast<int>(e->kind()));
      *out += ':';
      if (!FingerprintExpr(e->left(), out)) return false;
      if (e->right() != nullptr) {
        *out += ',';
        if (!FingerprintExpr(e->right(), out)) return false;
      }
      *out += ')';
      return true;
    }
  }
  return false;
}

void FingerprintNames(const std::vector<std::string>& names, std::string* out) {
  for (const std::string& name : names) {
    *out += std::to_string(name.size());
    *out += ':';
    *out += name;
    *out += ',';
  }
}

bool FingerprintPlan(const PlanPtr& plan, std::string* out) {
  const LogicalOp& op = *plan;
  switch (op.kind()) {
    case LogicalOp::Kind::kScan:
      *out += "scan[";
      *out += op.table();
      *out += ']';
      return true;
    case LogicalOp::Kind::kValues: return false;
    default: break;
  }
  *out += std::to_string(static_cast<int>(op.kind()));
  *out += '[';
  if (op.predicate() != nullptr && !FingerprintExpr(op.predicate(), out)) return false;
  switch (op.kind()) {
    case LogicalOp::Kind::kProject: FingerprintNames(op.columns(), out); break;
    case LogicalOp::Kind::kRename:
      for (const auto& [from, to] : op.renames()) {
        FingerprintNames({from, to}, out);
        *out += ';';
      }
      break;
    case LogicalOp::Kind::kGroupBy:
      FingerprintNames(op.group_names(), out);
      *out += '/';
      for (const AggSpec& agg : op.aggs()) {
        *out += std::to_string(static_cast<int>(agg.fn));
        *out += ':';
        FingerprintNames({agg.arg, agg.out}, out);
        *out += ';';
      }
      break;
    default: break;
  }
  for (const PlanPtr& child : op.children()) {
    *out += '(';
    if (!FingerprintPlan(child, out)) return false;
    *out += ')';
  }
  *out += ']';
  return true;
}

std::string VersionedFingerprint(const PlanPtr& plan, const Catalog& catalog,
                                 std::vector<std::string>* tables, std::string* shape) {
  std::string fp;
  if (!FingerprintPlan(plan, &fp)) return "";
  *shape = fp;
  std::set<std::string> scans;
  CollectScanTables(plan, &scans);
  for (const std::string& t : scans) {
    fp += '|';
    fp += t;
    fp += '=';
    fp += std::to_string(catalog.DataVersion(t));
    if (std::find(tables->begin(), tables->end(), t) == tables->end()) tables->push_back(t);
  }
  return fp;
}

uint64_t FingerprintHash(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace quotient
