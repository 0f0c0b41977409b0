// The one failure type that retry policies re-attempt.
//
// Transience is decided where a failure happens, by type and errno, never by
// reading its message afterwards: json::parse_file throws this for an open
// that failed with a retryable errno, and runtime::BatchRunner retries only
// this type. A parse or compile error fails the same way every time, so it
// is never a TransientError.
#pragma once

#include <cerrno>
#include <stdexcept>
#include <string>

namespace pim {

class TransientError : public std::runtime_error {
 public:
  explicit TransientError(const std::string& what, int err = 0)
      : std::runtime_error(what), errno_(err) {}

  /// The errno behind the failure; 0 when it did not come from a system call.
  int error_code() const { return errno_; }

 private:
  int errno_;
};

/// True for the errno values a later attempt can outlive: a file that
/// vanished mid-rename (ENOENT), a network filesystem blip (ESTALE, EIO), an
/// interrupted or would-block call (EINTR, EAGAIN), a full descriptor table
/// (EMFILE, ENFILE).
inline bool retryable_errno(int err) {
  return err == ENOENT || err == ESTALE || err == EIO || err == EINTR || err == EAGAIN ||
         err == EMFILE || err == ENFILE;
}

}  // namespace pim
