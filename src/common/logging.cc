#include "common/logging.h"

#include <cstring>

namespace atnn {

namespace {
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}
}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= kMinLevel) {
  if (enabled_) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) std::cerr << stream_.str() << std::endl;
}

}  // namespace internal_logging
}  // namespace atnn
