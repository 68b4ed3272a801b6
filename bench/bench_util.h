// Shared benchmark harness: scaling knobs, timing, and paper-style series
// tables. Every figure bench prints the same series the paper reports.
//
// Environment knobs:
//   IMP_BENCH_SCALE  multiplies base row counts (default 1.0 = laptop scale;
//                    the paper's sizes correspond to roughly 100x).
//   IMP_BENCH_REPS   repetitions per measurement; the median is reported
//                    (default 3; the paper uses >= 10).

#ifndef IMP_BENCH_BENCH_UTIL_H_
#define IMP_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "imp/maintainer.h"
#include "middleware/imp_system.h"
#include "sketch/capture.h"
#include "workload/driver.h"
#include "workload/synthetic.h"

namespace imp {
namespace bench {

/// IMP_BENCH_SCALE (default 1.0).
double Scale();
/// Base row count scaled by IMP_BENCH_SCALE.
size_t ScaledRows(size_t base);
/// IMP_BENCH_REPS (default 3).
int Reps();

/// Wall-clock seconds of one invocation.
double TimeSeconds(const std::function<void()>& fn);

/// Pretty header for a figure bench.
void PrintFigureHeader(const std::string& figure, const std::string& title);

/// Fixed-width series table: one label column plus value columns.
class SeriesTable {
 public:
  SeriesTable(std::string label_header, std::vector<std::string> columns);
  void AddRow(const std::string& label, const std::vector<double>& values);
  void AddTextRow(const std::string& label,
                  const std::vector<std::string>& values);
  void Print() const;

 private:
  std::string label_header_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<std::string>>> rows_;
};

/// Measure incremental maintenance of `plan` for one update batch produced
/// by `apply_update` (which mutates the database), using a pre-initialized
/// maintainer. Returns seconds spent in MaintainFromBackend.
double TimeMaintain(Maintainer* maintainer,
                    const std::function<void()>& apply_update);

/// Measure full maintenance (capture-query re-run) on the current state.
double TimeFullMaintain(const Database& db, const PartitionCatalog& catalog,
                        const PlanPtr& plan);

}  // namespace bench
}  // namespace imp

#endif  // IMP_BENCH_BENCH_UTIL_H_
