#include "sketch/capture.h"

#include "common/failpoint.h"

namespace imp {

Result<ProvenanceSketch> CaptureEngine::Capture(const PlanPtr& plan,
                                                const ReadView* view) const {
  // Fires before the annotated run: a failed capture leaves no sketch and
  // no partial state — the caller falls back to plain execution.
  IMP_FAILPOINT(kFpCapture);
  IMP_ASSIGN_OR_RETURN(
      AnnotatedRelation result,
      Executor(db_, view).ExecuteAnnotated(
          plan,
          [this](const std::string& table, const Tuple& row, BitVector* out) {
            catalog_->AnnotateRow(table, row, out);
          }));
  ProvenanceSketch sketch;
  sketch.fragments = result.SketchUnion();
  sketch.fragments.Resize(catalog_->total_fragments());
  // The capture query read the pinned view (or published snapshots only);
  // anchor at its watermark so statements that writers have not yet
  // retired still count as pending.
  sketch.valid_version = view ? view->watermark() : db_->StableVersion();
  return sketch;
}

}  // namespace imp
