#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/macros.h"

namespace atnn {

FlagParser::FlagParser(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagParser::AddString(const std::string& name,
                           std::string default_value,
                           const std::string& help) {
  Flag flag;
  flag.kind = Kind::kString;
  flag.help = help;
  flag.string_value = std::move(default_value);
  ATNN_CHECK(flags_.emplace(name, std::move(flag)).second)
      << "duplicate flag --" << name;
}

void FlagParser::AddInt64(const std::string& name, int64_t default_value,
                          const std::string& help) {
  Flag flag;
  flag.kind = Kind::kInt64;
  flag.help = help;
  flag.int_value = default_value;
  ATNN_CHECK(flags_.emplace(name, std::move(flag)).second)
      << "duplicate flag --" << name;
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  Flag flag;
  flag.kind = Kind::kDouble;
  flag.help = help;
  flag.double_value = default_value;
  ATNN_CHECK(flags_.emplace(name, std::move(flag)).second)
      << "duplicate flag --" << name;
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  Flag flag;
  flag.kind = Kind::kBool;
  flag.help = help;
  flag.bool_value = default_value;
  ATNN_CHECK(flags_.emplace(name, std::move(flag)).second)
      << "duplicate flag --" << name;
}

Status FlagParser::SetValue(const std::string& name,
                            const std::string& text) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& flag = it->second;
  errno = 0;
  char* end = nullptr;
  switch (flag.kind) {
    case Kind::kString:
      flag.string_value = text;
      break;
    case Kind::kInt64: {
      const long long value = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name +
                                       " expects an integer, got '" + text +
                                       "'");
      }
      flag.int_value = value;
      break;
    }
    case Kind::kDouble: {
      const double value = std::strtod(text.c_str(), &end);
      // ERANGE covers underflow as well as overflow: "--rate=1e-310" is a
      // usable subnormal, not a typo. Accept it; overflow parses to
      // ±HUGE_VAL and fails the finiteness check below.
      if (end == text.c_str() || *end != '\0' ||
          (errno != 0 && errno != ERANGE)) {
        return Status::InvalidArgument("--" + name +
                                       " expects a number, got '" + text +
                                       "'");
      }
      // strtod happily parses "inf"/"nan"; a non-finite flag value (say
      // atnn_serve --tenant_qps=nan) would silently poison the quota's
      // token math downstream, so reject it at the parse boundary.
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("--" + name +
                                       " expects a finite number, got '" +
                                       text + "'");
      }
      flag.double_value = value;
      break;
    }
    case Kind::kBool:
      if (text == "true" || text == "1") {
        flag.bool_value = true;
      } else if (text == "false" || text == "0") {
        flag.bool_value = false;
      } else {
        return Status::InvalidArgument("--" + name +
                                       " expects true/false, got '" + text +
                                       "'");
      }
      break;
  }
  flag.set = true;
  return Status::OK();
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  ATNN_CHECK(!parsed_) << "Parse called twice";
  parsed_ = true;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    const size_t equals = name.find('=');
    if (equals != std::string::npos) {
      const std::string value = name.substr(equals + 1);
      name = name.substr(0, equals);
      ATNN_RETURN_IF_ERROR(SetValue(name, value));
      continue;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (it->second.kind == Kind::kBool) {
      // Bare --flag means true.
      it->second.bool_value = true;
      it->second.set = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("--" + name + " expects a value");
    }
    ATNN_RETURN_IF_ERROR(SetValue(name, argv[++i]));
  }
  return Status::OK();
}

const FlagParser::Flag& FlagParser::Get(const std::string& name,
                                        Kind kind) const {
  const auto it = flags_.find(name);
  ATNN_CHECK(it != flags_.end()) << "undeclared flag --" << name;
  ATNN_CHECK(it->second.kind == kind) << "wrong type for flag --" << name;
  return it->second;
}

const std::string& FlagParser::GetString(const std::string& name) const {
  return Get(name, Kind::kString).string_value;
}
int64_t FlagParser::GetInt64(const std::string& name) const {
  return Get(name, Kind::kInt64).int_value;
}
double FlagParser::GetDouble(const std::string& name) const {
  return Get(name, Kind::kDouble).double_value;
}
bool FlagParser::GetBool(const std::string& name) const {
  return Get(name, Kind::kBool).bool_value;
}

bool FlagParser::IsSet(const std::string& name) const {
  const auto it = flags_.find(name);
  ATNN_CHECK(it != flags_.end()) << "undeclared flag --" << name;
  return it->second.set;
}

std::string FlagParser::Usage() const {
  std::ostringstream out;
  out << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    switch (flag.kind) {
      case Kind::kString:
        out << " (string, default \"" << flag.string_value << "\")";
        break;
      case Kind::kInt64:
        out << " (int, default " << flag.int_value << ")";
        break;
      case Kind::kDouble:
        out << " (number, default " << flag.double_value << ")";
        break;
      case Kind::kBool:
        out << " (bool, default " << (flag.bool_value ? "true" : "false")
            << ")";
        break;
    }
    out << "\n      " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace atnn
