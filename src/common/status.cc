#include "common/status.h"

namespace imp {

namespace {
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kBindError:
      return "BindError";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kNeedsRecapture:
      return "NeedsRecapture";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace imp
