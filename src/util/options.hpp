#pragma once
// Tiny declarative CLI option parser for the examples and bench drivers.
// Supports --name=value, --name value, and --flag forms plus --help text.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mdo {

class Options {
 public:
  explicit Options(std::string program_description);

  Options& add_int(const std::string& name, std::int64_t* target,
                   const std::string& help);
  Options& add_double(const std::string& name, double* target,
                      const std::string& help);
  Options& add_string(const std::string& name, std::string* target,
                      const std::string& help);
  /// Comma-separated lists, e.g. --latencies=1,2,4. Every field is parsed
  /// as strictly as add_int/add_double parse one value, so an empty field
  /// or trailing junk makes the whole option malformed.
  Options& add_int_list(const std::string& name,
                        std::vector<std::int64_t>* target,
                        const std::string& help);
  Options& add_double_list(const std::string& name, std::vector<double>* target,
                           const std::string& help);
  Options& add_flag(const std::string& name, bool* target,
                    const std::string& help);

  /// Parse argv. On --help prints usage and returns false (caller exits 0).
  /// On a malformed or unknown option prints a diagnostic and returns
  /// false after setting error(). Positional arguments are collected.
  bool parse(int argc, char** argv);

  const std::vector<std::string>& positional() const { return positional_; }
  bool error() const { return error_; }
  std::string usage() const;

 private:
  struct Spec {
    std::string name;
    std::string help;
    std::string kind;
    std::function<bool(const std::string&)> apply;  // value form
    bool* flag = nullptr;                           // flag form
  };

  const Spec* find(const std::string& name) const;

  std::string description_;
  std::vector<Spec> specs_;
  std::vector<std::string> positional_;
  bool error_ = false;
};

}  // namespace mdo
