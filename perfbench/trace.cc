#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

size_t Tracer::Open(const char* name) {
  if (!enabled_) return kNone;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.op = op_;
  span.name = name;
  span.start_ns = Now();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Close(size_t index) {
  if (index == kNone) return;
  spans_[index].end_ns = Now();
  // Spans close innermost first; tolerate a caller closing out of order.
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
}

void Tracer::AddDerived(size_t parent, const char* name, double seconds) {
  if (parent == kNone || seconds <= 0) return;
  const Span& p = spans_[parent];
  // Lay derived children back to back, ending at the parent's end.
  int64_t cursor = p.end_ns;
  for (size_t i = parent + 1; i < spans_.size(); ++i) {
    if (spans_[i].derived && spans_[i].parent == p.id) {
      cursor = std::min(cursor, spans_[i].start_ns);
    }
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = p.id;
  span.op = p.op;
  span.name = name;
  span.end_ns = cursor;
  span.start_ns =
      std::max(p.start_ns, cursor - static_cast<int64_t>(seconds * 1e9));
  span.derived = true;
  spans_.push_back(span);
}

namespace {

/// Self nanoseconds of every span: duration minus the union of its
/// children's intervals clipped to it.
std::vector<int64_t> SelfNanos(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index_of.find(s.parent);
    if (it != index_of.end()) {
      children[it->second].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = std::max<int64_t>(0, s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::string LayerOf(const char* name) {
  std::string n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

std::map<std::string, double> Tracer::LayerSelfSeconds(
    const std::string& root_prefix) const {
  std::unordered_map<uint64_t, bool> op_selected;
  for (const Span& s : spans_) {
    if (s.parent == 0) {
      op_selected[s.op] =
          std::string(s.name).compare(0, root_prefix.size(), root_prefix) == 0;
    }
  }
  std::vector<int64_t> self = SelfNanos(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!op_selected[spans_[i].op]) continue;
    out[LayerOf(spans_[i].name)] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfNanos(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld, \"derived\": %s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
