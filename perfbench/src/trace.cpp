#include "trace.hpp"

#include <cstdio>

namespace perfbench {

uint32_t Tracer::intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::vector<Tracer::Totals> Tracer::totals() const {
  std::vector<Totals> out(names_.size());
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += s.end - s.start;
    t.self_ns += s.end - s.start - child_ns[i];
  }
  return out;
}

Tracer::Totals Tracer::totals_of(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals()[i];
  }
  return {};
}

int64_t Tracer::root_ns() const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += s.end - s.start;
  }
  return ns;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# name\tstart_ns\tend_ns\tparent\top\tnames=");
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",", names_[i].c_str());
  }
  std::fprintf(f, "\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%llu\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 s.parent, static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
