#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace imp {
namespace bench {

double Scale() {
  static double scale = [] {
    const char* env = std::getenv("IMP_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

size_t ScaledRows(size_t base) {
  double rows = static_cast<double>(base) * Scale();
  return rows < 1 ? 1 : static_cast<size_t>(rows);
}

int Reps() {
  static int reps = [] {
    const char* env = std::getenv("IMP_BENCH_REPS");
    if (env == nullptr) return 3;
    int v = std::atoi(env);
    return v > 0 ? v : 3;
  }();
  return reps;
}

double TimeSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void PrintFigureHeader(const std::string& figure, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("scale=%.3g (IMP_BENCH_SCALE), reps=%d (IMP_BENCH_REPS)\n",
              Scale(), Reps());
  std::printf("================================================================\n");
}

SeriesTable::SeriesTable(std::string label_header,
                         std::vector<std::string> columns)
    : label_header_(std::move(label_header)), columns_(std::move(columns)) {}

void SeriesTable::AddRow(const std::string& label,
                         const std::vector<double>& values) {
  std::vector<std::string> text;
  text.reserve(values.size());
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    text.emplace_back(buf);
  }
  rows_.emplace_back(label, std::move(text));
}

void SeriesTable::AddTextRow(const std::string& label,
                             const std::vector<std::string>& values) {
  rows_.emplace_back(label, values);
}

void SeriesTable::Print() const {
  size_t label_w = label_header_.size();
  for (const auto& [label, _] : rows_) label_w = std::max(label_w, label.size());
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& [_, vals] : rows_) {
      if (c < vals.size()) widths[c] = std::max(widths[c], vals[c].size());
    }
  }
  std::printf("%-*s", static_cast<int>(label_w + 2), label_header_.c_str());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%*s", static_cast<int>(widths[c] + 2), columns_[c].c_str());
  }
  std::printf("\n");
  for (const auto& [label, vals] : rows_) {
    std::printf("%-*s", static_cast<int>(label_w + 2), label.c_str());
    for (size_t c = 0; c < columns_.size(); ++c) {
      std::printf("%*s", static_cast<int>(widths[c] + 2),
                  c < vals.size() ? vals[c].c_str() : "-");
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

double TimeMaintain(Maintainer* maintainer,
                    const std::function<void()>& apply_update) {
  apply_update();
  return TimeSeconds([&] {
    auto result = maintainer->MaintainFromBackend();
    IMP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  });
}

namespace {

/// Median of Reps() invocations.
double MedianSeconds(const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < Reps(); ++i) times.push_back(TimeSeconds(fn));
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

double TimeFullMaintain(const Database& db, const PartitionCatalog& catalog,
                        const PlanPtr& plan) {
  CaptureEngine capture(&db, &catalog);
  return MedianSeconds([&] {
    auto sketch = capture.Capture(plan);
    IMP_CHECK_MSG(sketch.ok(), sketch.status().ToString().c_str());
  });
}

}  // namespace bench
}  // namespace imp
