#include "util/csv.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

namespace quotient {

namespace {

bool NeedsQuoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteCell(const std::string& cell) {
  if (!NeedsQuoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Splits one CSV record honoring quotes; returns false on malformed input.
bool SplitRecord(const std::string& line, std::vector<std::string>* cells) {
  cells->clear();
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells->push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_quotes) return false;
  cells->push_back(std::move(current));
  return true;
}

}  // namespace

std::string RelationToCsv(const Relation& relation) {
  std::ostringstream out;
  const Schema& schema = relation.schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out << ',';
    out << schema.attribute(i).name << ':' << ValueTypeName(schema.attribute(i).type);
  }
  out << '\n';
  for (const Tuple& tuple : relation.tuples()) {
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) out << ',';
      out << QuoteCell(tuple[i].ToString());
    }
    out << '\n';
  }
  return out.str();
}

Result<Relation> RelationFromCsv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return Result<Relation>::Error("empty CSV input");

  Schema schema;
  try {
    schema = Schema::Parse(line);
  } catch (const SchemaError& error) {
    return Result<Relation>::Error(std::string("bad CSV header: ") + error.what());
  }
  for (const Attribute& a : schema.attributes()) {
    if (a.type == ValueType::kSet || a.type == ValueType::kNull) {
      return Result<Relation>::Error("CSV does not support set/null attributes");
    }
  }

  std::vector<Tuple> tuples;
  std::vector<std::string> cells;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (!SplitRecord(line, &cells)) {
      return Result<Relation>::Error("unterminated quote on line " +
                                     std::to_string(line_number));
    }
    if (cells.size() != schema.size()) {
      return Result<Relation>::Error("line " + std::to_string(line_number) + " has " +
                                     std::to_string(cells.size()) + " cells, expected " +
                                     std::to_string(schema.size()));
    }
    Tuple tuple;
    tuple.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      try {
        switch (schema.attribute(i).type) {
          case ValueType::kInt: tuple.push_back(Value::Int(std::stoll(cells[i]))); break;
          case ValueType::kReal: {
            double real = std::stod(cells[i]);
            // NaN compares equal to every number, so it has no place in the
            // canonical order that sorted storage and range scans rely on.
            if (std::isnan(real)) {
              return Result<Relation>::Error("line " + std::to_string(line_number) +
                                             ": NaN is not a supported real value");
            }
            tuple.push_back(Value::Real(real));
            break;
          }
          default: tuple.push_back(Value::Str(cells[i])); break;
        }
      } catch (const std::exception&) {
        return Result<Relation>::Error("line " + std::to_string(line_number) +
                                       ": cannot parse '" + cells[i] + "' as " +
                                       ValueTypeName(schema.attribute(i).type));
      }
    }
    tuples.push_back(std::move(tuple));
  }
  return Relation(std::move(schema), std::move(tuples));
}

Status WriteCsvFile(const Relation& relation, const std::string& path) {
  errno = 0;
  std::ofstream out(path);
  if (!out) {
    return Status::Error("cannot open '" + path + "' for writing: " + std::strerror(errno));
  }
  out << RelationToCsv(relation);
  return out.good() ? Status::Ok() : Status::Error("write to '" + path + "' failed");
}

Result<Relation> ReadCsvFile(const std::string& path) {
  errno = 0;
  std::ifstream in(path);
  if (!in) {
    // The failing path and the OS reason, so a bad data-load points at the
    // exact file instead of a bare "cannot open".
    return Result<Relation>::Error("cannot open '" + path + "': " + std::strerror(errno));
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return RelationFromCsv(buffer.str());
}

}  // namespace quotient
