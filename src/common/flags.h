// Minimal command-line flag parsing for benchmark harnesses and
// examples: `--name=value` or `--name value`, with typed getters and
// defaults. Not a general-purpose flags library.

#ifndef ORPHEUS_COMMON_FLAGS_H_
#define ORPHEUS_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace orpheus {

class Flags {
 public:
  // Consumes `--k=v` / `--k v` pairs; bare `--k` becomes "true".
  // Non-flag arguments are collected as positional.
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // The first given flag (in name order) that is not in `known`, or ""
  // when every flag is known. Callers reject it so a misspelled flag
  // fails instead of silently meaning its default.
  std::string FirstUnknown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace orpheus

#endif  // ORPHEUS_COMMON_FLAGS_H_
