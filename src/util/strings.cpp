#include "util/strings.hpp"

#include <cstdio>

namespace mdo {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(const std::string& text) {
  std::size_t b = text.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = text.find_last_not_of(" \t\r\n");
  return text.substr(b, e - b + 1);
}

std::string human_bytes(std::uint64_t bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  if (u == 0)
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  else
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  return buf;
}

}  // namespace mdo
