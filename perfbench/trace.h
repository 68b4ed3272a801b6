// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the engine's
// modules (sql, sketch, exec, imp, middleware, storage); nothing inside the
// engine is instrumented. A span's layer is its name up to the first '.'.
// Work the engine times itself (ImpSystemStats stage seconds read between
// single-client calls) is attached to the call's span as "derived" child
// spans, laid out back to back at the end of the parent: their durations
// are measured, their placement inside the parent is not.

#ifndef IMP_PERFBENCH_TRACE_H_
#define IMP_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root span of its operation
  uint64_t op = 0;      ///< operation the span belongs to
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool derived = false;
};

/// Not thread-safe.
class Tracer {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// `epoch` is the time origin of the recorded spans.
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }

  /// Start a new operation: spans opened until the next call share its id.
  void BeginOp() { ++op_; }

  /// Open a span under the innermost open span. kNone when disabled.
  size_t Open(const char* name);
  void Close(size_t index);

  /// Attach `seconds` of engine-timed work to the closed span `parent` as
  /// a derived child (no-op for kNone or seconds <= 0).
  void AddDerived(size_t parent, const char* name, double seconds);

  /// Self seconds (duration minus the union of its children's intervals)
  /// summed per layer, over the operations whose root span name starts
  /// with `root_prefix`.
  std::map<std::string, double> LayerSelfSeconds(
      const std::string& root_prefix) const;

  /// Seconds of every span called `name`.
  Samples Durations(const std::string& name) const;

  /// One JSON object per line: id, parent, op, name, start_ns, end_ns,
  /// self_ns, derived.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const;

  bool enabled_;
  Clock::time_point epoch_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indices of the currently open spans
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Open(name)) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Close early (idempotent); returns the span index for AddDerived.
  size_t Close() {
    if (!closed_) tracer_->Close(index_);
    closed_ = true;
    return index_;
  }

 private:
  Tracer* tracer_;
  size_t index_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // IMP_PERFBENCH_TRACE_H_
