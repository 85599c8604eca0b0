#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace orpheus {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      std::string_view body = arg.substr(2);
      size_t eq = body.find('=');
      if (eq != std::string_view::npos) {
        values_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_[std::string(body)] = argv[++i];
      } else {
        values_[std::string(body)] = "true";
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

std::string Flags::FirstUnknown(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) return name;
  }
  return "";
}

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

}  // namespace orpheus
