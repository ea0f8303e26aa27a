// Result<T>: a value-or-Status, the return type of every fallible HCS
// operation that produces a value. Modeled on absl::StatusOr / the proposed
// std::expected, implemented here so the tree has no external dependencies.

#ifndef HCS_SRC_COMMON_RESULT_H_
#define HCS_SRC_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/status.h"

namespace hcs {

// Holds either a T or a non-OK Status. A Result is never "OK but empty":
// constructing from an OK status is a programming error and is converted to
// an INTERNAL error to keep the invariant checkable in release builds.
template <typename T>
class HCS_NODISCARD Result {
 public:
  // Constructs from a value (implicit, so `return value;` works).
  Result(T value) : value_(std::move(value)) {}
  // Constructs from an error status (implicit, so `return NotFoundError(...)`
  // works).
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = InternalError("Result constructed from OK status");
    }
  }

  HCS_NODISCARD bool ok() const { return value_.has_value(); }

  // The status: OK when a value is held.
  const Status& status() const { return status_; }

  // Value accessors. Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the held value or `fallback` when in the error state.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

// Assigns the value of a Result expression to `lhs`, or propagates its error
// status out of the enclosing function.
//
//   HCS_ASSIGN_OR_RETURN(auto binding, hns.FindNsm(name, query_class));
#define HCS_ASSIGN_OR_RETURN(lhs, rexpr)                    \
  HCS_ASSIGN_OR_RETURN_IMPL_(                               \
      HCS_RESULT_CONCAT_(hcs_result_tmp_, __LINE__), lhs, rexpr)

#define HCS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) {                                  \
    return tmp.status();                            \
  }                                                 \
  lhs = std::move(tmp).value()

#define HCS_RESULT_CONCAT_INNER_(a, b) a##b
#define HCS_RESULT_CONCAT_(a, b) HCS_RESULT_CONCAT_INNER_(a, b)

}  // namespace hcs

#endif  // HCS_SRC_COMMON_RESULT_H_
