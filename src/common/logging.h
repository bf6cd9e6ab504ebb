#ifndef LEARNEDSQLGEN_COMMON_LOGGING_H_
#define LEARNEDSQLGEN_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace lsg {

/// Log severities in increasing order. The process-wide minimum severity is
/// controlled with SetLogLevel(); messages below it are discarded.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Sets the process-wide minimum severity that will be printed.
///
/// Logging is thread-safe: the level is an atomic (lock-free check on every
/// suppressed LSG_LOG), and the sink pointer plus each line emission are
/// guarded by one mutex, so concurrent workers never interleave partial
/// lines and never race a sink swap against an in-flight write.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Redirects log output to `sink` (e.g. a log file owned by the caller;
/// nullptr restores the default, stderr). The caller keeps ownership and
/// must keep the stream open until the sink is reset.
void SetLogSink(std::FILE* sink);

namespace internal {

/// Stream-style log line; emits on destruction. kFatal aborts the process.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is below threshold.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define LSG_LOG(level)                                         \
  if (::lsg::LogLevel::k##level < ::lsg::GetLogLevel()) {      \
  } else                                                       \
    ::lsg::internal::LogMessage(::lsg::LogLevel::k##level, __FILE__, __LINE__)

/// CHECK-style invariants: always on, abort with a message on violation.
#define LSG_CHECK(cond)                                                    \
  if (cond) {                                                              \
  } else                                                                   \
    ::lsg::internal::LogMessage(::lsg::LogLevel::kFatal, __FILE__,         \
                                __LINE__)                                  \
        << "Check failed: " #cond " "

#define LSG_CHECK_OK(expr)                                                \
  do {                                                                    \
    ::lsg::Status _st = (expr);                                           \
    if (!_st.ok()) {                                                      \
      ::lsg::internal::LogMessage(::lsg::LogLevel::kFatal, __FILE__,      \
                                  __LINE__)                               \
          << "Status not OK: " << _st.ToString();                         \
    }                                                                     \
  } while (0)

/// Debug invariants: LSG_CHECK in every build except Release, where the
/// condition still compiles but is never evaluated. src/CMakeLists.txt
/// defines LSG_DCHECK_OFF for Release only, so RelWithDebInfo (the
/// default), Debug and the sanitizer builds keep every DCHECK live.
#ifdef LSG_DCHECK_OFF
#define LSG_DCHECK(cond) \
  if (true) {            \
  } else                 \
    LSG_CHECK(cond)
#else
#define LSG_DCHECK(cond) LSG_CHECK(cond)
#endif

}  // namespace lsg

#endif  // LEARNEDSQLGEN_COMMON_LOGGING_H_
