// Sketch capture: runs the query under annotated semantics
// (Executor::ExecuteAnnotated) and returns the accurate provenance sketch.
// Re-running capture is also the full-maintenance (FM) baseline of the
// evaluation.

#ifndef IMP_SKETCH_CAPTURE_H_
#define IMP_SKETCH_CAPTURE_H_

#include "exec/executor.h"
#include "sketch/sketch.h"

namespace imp {

/// Executes capture queries Q^{R,F} against the backend.
class CaptureEngine {
 public:
  CaptureEngine(const Database* db, const PartitionCatalog* catalog)
      : db_(db), catalog_(catalog) {}

  /// Capture the accurate sketch for `plan` under the catalog's
  /// partitions. With `view`, the capture query reads the pinned snapshots
  /// and the sketch is valid at the view's watermark; without one it reads
  /// the currently published snapshots and anchors at the stable watermark.
  Result<ProvenanceSketch> Capture(const PlanPtr& plan,
                                   const ReadView* view = nullptr) const;

 private:
  const Database* db_;
  const PartitionCatalog* catalog_;
};

}  // namespace imp

#endif  // IMP_SKETCH_CAPTURE_H_
