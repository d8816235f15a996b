#include "util/strings.hpp"

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

}  // namespace mdo
