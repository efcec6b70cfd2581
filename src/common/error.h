// Typed error layer for recoverable failure modes. Instead of bare
// std::runtime_error (which callers cannot dispatch on) or a silent
// std::nullopt (which erases the reason), fallible operations return
// Expected<T>: either a value or a lumos::Error carrying a machine-readable
// code plus a human-readable message. Expected<T> intentionally mirrors the
// std::optional access surface (has_value / operator bool / * / ->) so
// optional-returning APIs can migrate without touching every call site.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace lumos {

enum class ErrorCode {
  kNotTrained,       ///< model queried before (successful) train()
  kDatasetTooSmall,  ///< not enough usable rows to fit anything
  kWindowUnusable,   ///< query window cannot produce any feature tier
  kInvalidArgument,  ///< bad configuration value
  kIoError,          ///< file open/read/write failure
  kParseError,       ///< malformed input data
  kBadMagic,         ///< model file does not start with the LUM5 magic
  kVersionMismatch,  ///< model file written by an incompatible format version
  kTruncated,        ///< model file shorter than its header declares
  kCorrupt,          ///< model file checksum mismatch (bit rot / tampering)
  kOverloaded,       ///< request shed: serving queue above its watermark
  kDeadlineExceeded, ///< request expired in the queue before being served
  kShuttingDown,     ///< server no longer admits requests
};

inline const char* to_string(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kNotTrained: return "not_trained";
    case ErrorCode::kDatasetTooSmall: return "dataset_too_small";
    case ErrorCode::kWindowUnusable: return "window_unusable";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kIoError: return "io_error";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kVersionMismatch: return "version_mismatch";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kCorrupt: return "corrupt";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kShuttingDown: return "shutting_down";
  }
  return "?";
}

struct [[nodiscard]] Error {
  ErrorCode code = ErrorCode::kInvalidArgument;
  std::string message;

  std::string describe() const {
    return std::string(to_string(code)) + ": " + message;
  }
};

/// Minimal expected-or-error holder (std::expected is C++23; we target
/// C++20). `value()` on an error throws std::logic_error so misuse is a
/// defined, diagnosable failure rather than UB.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : v_(std::move(value)) {}        // NOLINT(*-explicit-*)
  Expected(Error error) : v_(std::move(error)) {}    // NOLINT(*-explicit-*)

  bool has_value() const noexcept { return std::holds_alternative<T>(v_); }
  explicit operator bool() const noexcept { return has_value(); }

  T& value() {
    check();
    return std::get<T>(v_);
  }
  const T& value() const {
    check();
    return std::get<T>(v_);
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Only valid when !has_value().
  const Error& error() const { return std::get<Error>(v_); }

 private:
  void check() const {
    if (!has_value()) {
      throw std::logic_error("Expected<T>::value() on error — " +
                             std::get<Error>(v_).describe());
    }
  }

  std::variant<T, Error> v_;
};

/// void specialization: success carries no payload.
template <>
class [[nodiscard]] Expected<void> {
 public:
  Expected() = default;
  Expected(Error error) : err_(std::move(error)) {}  // NOLINT(*-explicit-*)

  bool has_value() const noexcept { return !err_.has_value(); }
  explicit operator bool() const noexcept { return has_value(); }

  const Error& error() const { return *err_; }

 private:
  std::optional<Error> err_;
};

}  // namespace lumos
