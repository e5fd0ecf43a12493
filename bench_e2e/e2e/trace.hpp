#pragma once

// Outside-in spans: the benchmark times each public engine call it makes (and,
// in traced runs, the compile replay that follows each statement). Spans are
// kept in memory per session thread and written once the run has ended, so
// recording costs two clock reads and a vector append.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "e2e/common.hpp"

namespace e2e {

struct Span {
  const char* name = "";
  uint64_t stmt_id = 0;
  int64_t parent = -1;  // index of the parent span in the same log; -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The spans of one session thread. A disabled log records nothing and
/// hands out -1 ids, which Close ignores.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int64_t Open(const char* name, uint64_t stmt_id, int64_t parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, stmt_id, parent, NowNs(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Durations in microseconds of every span with the given name.
inline std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                           const std::string& name) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      if (name == span.name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

/// Share of `stmt` root-span time covered by its direct children. Children
/// of one statement never overlap (they are sequential calls on one thread).
inline double StmtCoverage(const std::vector<SpanLog>& logs) {
  double root_ns = 0;
  double child_ns = 0;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    for (const Span& span : spans) {
      if (span.parent < 0 && std::string("stmt") == span.name) {
        root_ns += static_cast<double>(span.end_ns - span.start_ns);
      } else if (span.parent >= 0 &&
                 std::string("stmt") == spans[static_cast<size_t>(span.parent)].name &&
                 span.start_ns <= spans[static_cast<size_t>(span.parent)].end_ns) {
        child_ns += static_cast<double>(span.end_ns - span.start_ns);
      }
    }
  }
  return Ratio(child_ns, root_ns);
}

/// Writes every span as one JSON object per line inside a JSON array:
/// {name, stmt_id, parent, start_ns, end_ns, thread}. `parent` is the
/// global index of the parent span in this file, -1 for roots.
inline bool WriteTrace(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  int64_t offset = 0;
  bool first = true;
  for (size_t thread = 0; thread < logs.size(); ++thread) {
    for (const Span& span : logs[thread].spans()) {
      out << (first ? "" : ",\n") << "{\"name\":" << JsonString(span.name)
          << ",\"stmt_id\":" << span.stmt_id
          << ",\"parent\":" << (span.parent < 0 ? -1 : span.parent + offset)
          << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
          << ",\"thread\":" << thread << "}";
      first = false;
    }
    offset += static_cast<int64_t>(logs[thread].spans().size());
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
