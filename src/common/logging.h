// Assertion and check macros shared by all IMP modules.
//
// IMP follows a status-based error model for recoverable errors (parse
// failures, unknown tables, ...) and hard checks for programming errors
// (index out of bounds, broken invariants). IMP_CHECK stays enabled in
// release builds; IMP_DCHECK compiles out in NDEBUG builds.

#ifndef IMP_COMMON_LOGGING_H_
#define IMP_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace imp::logging_internal {
/// IMP_CHECK_MSG's message as a C string, whether given as one or as a
/// std::string (a temporary lives until the end of the check's fprintf).
inline const char* CStr(const char* msg) { return msg; }
inline const char* CStr(const std::string& msg) { return msg.c_str(); }
}  // namespace imp::logging_internal

#define IMP_CHECK(cond)                                                      \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "IMP_CHECK failed: %s at %s:%d\n", #cond,         \
                   __FILE__, __LINE__);                                      \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define IMP_CHECK_MSG(cond, msg)                                             \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "IMP_CHECK failed: %s (%s) at %s:%d\n", #cond,    \
                   ::imp::logging_internal::CStr(msg), __FILE__, __LINE__);  \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#ifdef NDEBUG
#define IMP_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define IMP_DCHECK(cond) IMP_CHECK(cond)
#endif

#endif  // IMP_COMMON_LOGGING_H_
