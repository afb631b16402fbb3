#ifndef MAGICDB_COMMON_STATUS_H_
#define MAGICDB_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace magicdb {

/// Error categories used across the engine. Kept deliberately small; the
/// message carries the detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kParseError,
  kBindError,
  kTypeError,
  kCancelled,
  kDeadlineExceeded,
  kUnavailable,
  kFailedPrecondition,
  kResourceExhausted,
  /// Not an error in the usual sense: a pipeline breaker observed a
  /// cardinality far enough from its estimate that the driver should abort
  /// this execution attempt, fold the observation into a stats overlay, and
  /// re-plan the query (see DESIGN.md "Adaptive re-optimization").
  kReoptimizeRequested,
};

/// Returns a stable human-readable name for `code` ("OK", "InvalidArgument",
/// ...).
const char* StatusCodeName(StatusCode code);

/// Value-semantic error carrier. The engine does not use exceptions; every
/// fallible operation returns a Status (or StatusOr<T>). An OK status carries
/// no message and is cheap to copy.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status ReoptimizeRequested(std::string msg) {
    return Status(StatusCode::kReoptimizeRequested, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsReoptimizeRequested() const {
    return code_ == StatusCode::kReoptimizeRequested;
  }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace magicdb

/// Propagates a non-OK Status to the caller. Usable in any function that
/// returns Status. Variadic so the expression may contain unparenthesized
/// commas (e.g. a lambda argument with a brace initializer).
#define MAGICDB_RETURN_IF_ERROR(...)                  \
  do {                                                \
    ::magicdb::Status _status = (__VA_ARGS__);        \
    if (!_status.ok()) return _status;                \
  } while (0)

/// Evaluates a StatusOr expression; on error propagates the Status, otherwise
/// move-assigns the value into `lhs`. `lhs` may be a declaration.
#define MAGICDB_ASSIGN_OR_RETURN(lhs, expr)                       \
  MAGICDB_ASSIGN_OR_RETURN_IMPL_(                                 \
      MAGICDB_STATUS_CONCAT_(_status_or, __LINE__), lhs, expr)

#define MAGICDB_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value();

#define MAGICDB_STATUS_CONCAT_(a, b) MAGICDB_STATUS_CONCAT_IMPL_(a, b)
#define MAGICDB_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // MAGICDB_COMMON_STATUS_H_
