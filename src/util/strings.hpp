#pragma once
// Small string helpers shared by the harnesses.

#include <string>
#include <vector>

namespace mdo {

std::vector<std::string> split(const std::string& text, char sep);

}  // namespace mdo
