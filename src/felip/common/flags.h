// Tiny --key=value command-line parser for the CLI tools.
//
// Supports `--name=value`, bare `--name` (boolean true), and `--no-name`
// (boolean false). Unknown-flag detection is the caller's job via
// UnconsumedFlags(), so tools can fail fast on typos.

#ifndef FELIP_COMMON_FLAGS_H_
#define FELIP_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace felip {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  // Typed accessors; the flag is marked consumed. Malformed numeric values
  // fall back to the default.
  std::string GetString(const std::string& name,
                        const std::string& default_value);
  double GetDouble(const std::string& name, double default_value);
  int64_t GetInt(const std::string& name, int64_t default_value);
  uint64_t GetUint(const std::string& name, uint64_t default_value);
  bool GetBool(const std::string& name, bool default_value);

  // Every value passed for a repeated flag, in command-line order (the
  // scalar accessors return only the last). Empty when the flag was never
  // passed; a bare `--name` contributes "true". Marks the flag consumed.
  std::vector<std::string> GetStringList(const std::string& name);

  bool Has(const std::string& name) const;

  // Flags that were passed but never read — almost always typos.
  std::vector<std::string> UnconsumedFlags() const;

  // Prints "error: ..." to stderr for every unread flag and positional
  // argument (a single-dash `-metrics` lands there); true when there was
  // none. Call after the last accessor.
  bool CheckAllConsumed() const;

  // Splits a comma-separated value, dropping empty items.
  static std::vector<std::string> SplitList(const std::string& list);

  // Arguments that did not start with "--", in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  // Every occurrence in command-line order, for GetStringList.
  std::map<std::string, std::vector<std::string>> repeated_;
  std::set<std::string> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace felip

#endif  // FELIP_COMMON_FLAGS_H_
