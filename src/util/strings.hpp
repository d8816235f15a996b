#pragma once
// Small string helpers shared by the harnesses.

#include <cstdint>
#include <string>
#include <vector>

namespace mdo {

std::vector<std::string> split(const std::string& text, char sep);
std::string join(const std::vector<std::string>& parts, const std::string& sep);
std::string trim(const std::string& text);

/// Human-readable byte count ("1.5 MiB").
std::string human_bytes(std::uint64_t bytes);

}  // namespace mdo
