// Status / Result error model (RocksDB / Arrow style, no exceptions on the
// hot path).

#ifndef IMP_COMMON_STATUS_H_
#define IMP_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace imp {

/// Error categories used across IMP.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kParseError,
  kBindError,
  kNotImplemented,
  kInternal,
  kNeedsRecapture,  ///< Incremental state can no longer answer; recapture.
};

/// Lightweight status object; cheap to copy when OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NeedsRecapture(std::string msg) {
    return Status(StatusCode::kNeedsRecapture, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "ParseError: unexpected token".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> holds either a value or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : var_(std::move(status)) {    // NOLINT(runtime/explicit)
    IMP_CHECK_MSG(!std::get<Status>(var_).ok(),
                  "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(var_); }

  const T& value() const& {
    IMP_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(var_);
  }
  T& value() & {
    IMP_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(var_);
  }
  T&& value() && {
    IMP_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(std::move(var_));
  }

  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(var_);
  }

 private:
  std::variant<T, Status> var_;
};

// Propagate a non-OK status from an expression.
#define IMP_RETURN_NOT_OK(expr)             \
  do {                                      \
    ::imp::Status _st = (expr);             \
    if (!_st.ok()) return _st;              \
  } while (0)

// Assign the value of a Result expression or propagate its error.
#define IMP_CONCAT_INNER_(a, b) a##b
#define IMP_CONCAT_(a, b) IMP_CONCAT_INNER_(a, b)
#define IMP_ASSIGN_OR_RETURN_IMPL_(var, lhs, rexpr) \
  auto var = (rexpr);                               \
  if (!var.ok()) return var.status();               \
  lhs = std::move(var).value();
#define IMP_ASSIGN_OR_RETURN(lhs, rexpr) \
  IMP_ASSIGN_OR_RETURN_IMPL_(IMP_CONCAT_(_res_, __LINE__), lhs, rexpr)

}  // namespace imp

#endif  // IMP_COMMON_STATUS_H_
