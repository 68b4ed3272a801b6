// Shared declarations of the IMP end-to-end benchmark (see README.md).

#ifndef IMP_PERFBENCH_BENCH_H_
#define IMP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;    ///< timed-phase length (whole episodes, see README)
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  double scale = 1.0;     ///< multiplies table sizes and episode lengths
  std::string out_dir;    ///< result / span files go here ("" = none)
  long corrupt_query = -1;  ///< drop one row of this query's answer before
                            ///< the oracle sees it (oracle self-test)
};

/// Samples of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  /// Add every sample of `other`, multiplied by `factor`.
  void AppendScaled(const Samples& other, double factor) {
    for (double v : other.values_) values_.push_back(v * factor);
  }
  size_t size() const { return values_.size(); }
  /// q-quantile (0 <= q <= 1) by linear interpolation; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Median over consecutive blocks of `block` samples (the last block takes
  /// the remainder; one block when there are fewer) of each block's
  /// q-quantile. A slow spell of the host then moves one block, not the
  /// result.
  double BlockQuantile(double q, size_t block) const;

 private:
  std::vector<double> values_;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;     ///< e2e (untraced) or per-layer (traced)
  std::vector<std::string> notes;  ///< human-readable lines (sample counts,
                                   ///< ratio bases, failures)
  std::string inputs_digest;       ///< hash of every generated input
};

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Run one workload as described by `options`. Traced runs also write the
/// span file into options.out_dir (when set).
RunResult RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // IMP_PERFBENCH_BENCH_H_
