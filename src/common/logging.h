#ifndef ATNN_COMMON_LOGGING_H_
#define ATNN_COMMON_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace atnn {

/// Messages below kInfo are dropped.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

/// One log statement; flushes to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace atnn

#define ATNN_LOG(level)                                      \
  ::atnn::internal_logging::LogMessage(                      \
      ::atnn::LogLevel::k##level, __FILE__, __LINE__)

#endif  // ATNN_COMMON_LOGGING_H_
