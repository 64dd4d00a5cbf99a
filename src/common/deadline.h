#ifndef MTDB_COMMON_DEADLINE_H_
#define MTDB_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace mtdb::deadline {

/// A statement deadline: an absolute steady-clock instant past which the
/// statement should stop doing work and return kDeadlineExceeded. The
/// default-constructed Deadline is inactive (no limit).
struct Deadline {
  std::chrono::steady_clock::time_point at{};
  bool active = false;

  static Deadline None() { return Deadline{}; }
  static Deadline At(std::chrono::steady_clock::time_point tp) {
    return Deadline{tp, true};
  }
  template <typename Rep, typename Period>
  static Deadline After(std::chrono::duration<Rep, Period> d) {
    return Deadline{std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(d),
                    true};
  }
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  bool Expired() const {
    return active && std::chrono::steady_clock::now() >= at;
  }
};

namespace internal {
/// The deadline of the statement in flight on this thread. Inactive
/// almost always — the fast path of every hook below is a thread-local
/// load plus branch, mirroring trace::internal::tls_tracer.
extern thread_local Deadline tls_deadline;
}  // namespace internal

/// The ambient deadline for the current thread (inactive when none).
inline Deadline Current() { return internal::tls_deadline; }

inline bool Active() { return internal::tls_deadline.active; }

/// True when a deadline is installed and already past. Storage layers
/// use this to skip simulated stalls for doomed statements.
inline bool Expired() { return internal::tls_deadline.Expired(); }

/// Cooperative cancellation point: OK while no deadline is installed or
/// time remains; kDeadlineExceeded once the installed deadline is past.
inline Status Check() {
  if (!internal::tls_deadline.active) return Status::OK();
  if (std::chrono::steady_clock::now() >= internal::tls_deadline.at) {
    return Status::DeadlineExceeded("statement deadline exceeded");
  }
  return Status::OK();
}

/// Installs a deadline on the current thread for one statement's
/// execution (the session front doors hold one across the statement so
/// the executor, B-tree, buffer pool and page store can all observe it).
/// Restores the previous deadline on destruction. Installing an inactive
/// Deadline SUPPRESSES any ambient one — a batch's revert, ROLLBACK and
/// engine housekeeping (checkpoints, recovery) use that so undo work is
/// never itself cancelled mid-flight.
class Scope {
 public:
  explicit Scope(Deadline d) : prev_(internal::tls_deadline) {
    internal::tls_deadline = d;
  }
  ~Scope() { internal::tls_deadline = prev_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Deadline prev_;
};

}  // namespace mtdb::deadline

#endif  // MTDB_COMMON_DEADLINE_H_
