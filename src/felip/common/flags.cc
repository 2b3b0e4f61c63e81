#include "felip/common/flags.h"

#include <cstdio>
#include <cstdlib>

namespace felip {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    std::string name;
    std::string value;
    if (eq == std::string::npos) {
      if (body.rfind("no-", 0) == 0) {
        name = body.substr(3);
        value = "false";
      } else {
        name = body;
        value = "true";
      }
    } else {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    }
    flags_[name] = value;
    repeated_[name].push_back(std::move(value));
  }
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) {
  consumed_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

double FlagParser::GetDouble(const std::string& name, double default_value) {
  consumed_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return (end == nullptr || *end != '\0') ? default_value : value;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t default_value) {
  consumed_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  return (end == nullptr || *end != '\0') ? default_value
                                          : static_cast<int64_t>(value);
}

uint64_t FlagParser::GetUint(const std::string& name,
                             uint64_t default_value) {
  consumed_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(it->second.c_str(), &end, 10);
  return (end == nullptr || *end != '\0') ? default_value
                                          : static_cast<uint64_t>(value);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) {
  consumed_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> FlagParser::GetStringList(const std::string& name) {
  consumed_.insert(name);
  const auto it = repeated_.find(name);
  return it == repeated_.end() ? std::vector<std::string>{} : it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::vector<std::string> FlagParser::UnconsumedFlags() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : flags_) {
    if (consumed_.count(name) == 0) unread.push_back(name);
  }
  return unread;
}

bool FlagParser::CheckAllConsumed() const {
  bool ok = true;
  for (const std::string& unknown : UnconsumedFlags()) {
    std::fprintf(stderr, "error: unknown flag: --%s\n", unknown.c_str());
    ok = false;
  }
  for (const std::string& positional : positional_) {
    std::fprintf(stderr, "error: unexpected argument: %s\n",
                 positional.c_str());
    ok = false;
  }
  return ok;
}

std::vector<std::string> FlagParser::SplitList(const std::string& list) {
  std::vector<std::string> items;
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t comma = list.find(',', begin);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) items.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return items;
}

}  // namespace felip
