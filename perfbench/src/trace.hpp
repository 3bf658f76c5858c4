// In-memory span recorder for traced runs.
//
// A span is (name, start, end, parent, op id), opened and closed by the
// benchmark's own code around calls into one layer's public API. Spans nest
// through an explicit stack (everything runs on one thread), so a span's
// parent is whatever span was open when it began. Self time is a span's
// duration minus the time its direct children cover. Spans stay in memory
// for the whole run and are written out once, at the end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    int64_t start = 0;
    int64_t end = 0;
    uint64_t op = 0;
    int32_t parent = -1;
    uint32_t name = 0;
  };
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  /// Name table index for `name` (interned once per distinct name).
  uint32_t intern(const std::string& name);

  /// Recording switch; while off, begin() returns -1 and end() ignores it.
  void set_enabled(bool on) { enabled_ = on; }

  int32_t begin(uint32_t name, uint64_t op = 0) {
    if (!enabled_) return -1;
    const auto idx = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{wall_ns(), 0, op, open_, name});
    open_ = idx;
    return idx;
  }
  void end(int32_t idx) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end = wall_ns();
    open_ = s.parent;
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, uint32_t name, uint64_t op = 0)
        : tracer_(t), idx_(t.begin(name, op)) {}
    ~Scope() { tracer_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t idx_;
  };

  /// Per-name count, total and self time over every closed span.
  [[nodiscard]] std::vector<Totals> totals() const;
  [[nodiscard]] Totals totals_of(const std::string& name) const;
  /// Sum of the durations of root spans (spans with no parent).
  [[nodiscard]] int64_t root_ns() const;

  /// Write the span log: a header line naming the columns and the name
  /// table, then one tab-separated line per span
  /// (name, start_ns, end_ns, parent_index, op).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  int32_t open_ = -1;
  bool enabled_ = false;
};

}  // namespace perfbench
