#include "util/options.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/strings.hpp"

namespace mdo {
namespace {

bool parse_int(const std::string& text, std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

template <class T>
bool parse_list(const std::string& text, std::vector<T>* out,
                bool (*parse_one)(const std::string&, T*)) {
  std::vector<T> values;
  for (const std::string& field : split(text, ',')) {
    T value{};
    if (!parse_one(field, &value)) return false;
    values.push_back(value);
  }
  *out = std::move(values);
  return true;
}

}  // namespace

Options::Options(std::string program_description)
    : description_(std::move(program_description)) {}

Options& Options::add_int(const std::string& name, std::int64_t* target,
                          const std::string& help) {
  specs_.push_back({name, help, "int",
                    [target](const std::string& v) { return parse_int(v, target); },
                    nullptr});
  return *this;
}

Options& Options::add_double(const std::string& name, double* target,
                             const std::string& help) {
  specs_.push_back({name, help, "float",
                    [target](const std::string& v) { return parse_double(v, target); },
                    nullptr});
  return *this;
}

Options& Options::add_string(const std::string& name, std::string* target,
                             const std::string& help) {
  specs_.push_back({name, help, "string",
                    [target](const std::string& v) { *target = v; return true; },
                    nullptr});
  return *this;
}

Options& Options::add_int_list(const std::string& name,
                               std::vector<std::int64_t>* target,
                               const std::string& help) {
  specs_.push_back({name, help, "int list",
                    [target](const std::string& v) {
                      return parse_list(v, target, parse_int);
                    },
                    nullptr});
  return *this;
}

Options& Options::add_double_list(const std::string& name,
                                  std::vector<double>* target,
                                  const std::string& help) {
  specs_.push_back({name, help, "float list",
                    [target](const std::string& v) {
                      return parse_list(v, target, parse_double);
                    },
                    nullptr});
  return *this;
}

Options& Options::add_flag(const std::string& name, bool* target,
                           const std::string& help) {
  Spec s{name, help, "flag", nullptr, target};
  specs_.push_back(std::move(s));
  return *this;
}

const Options::Spec* Options::find(const std::string& name) const {
  for (const auto& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

std::string Options::usage() const {
  std::ostringstream out;
  out << description_ << "\n\nOptions:\n";
  for (const auto& s : specs_) {
    out << "  --" << s.name;
    if (s.kind != "flag") out << "=<" << s.kind << ">";
    out << "\n      " << s.help << "\n";
  }
  out << "  --help\n      Show this message.\n";
  return out.str();
}

bool Options::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    const Spec* spec = find(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown option --%s\n%s", name.c_str(), usage().c_str());
      error_ = true;
      return false;
    }
    if (spec->flag != nullptr) {
      if (have_value) {
        std::fprintf(stderr, "--%s takes no value\n", name.c_str());
        error_ = true;
        return false;
      }
      *spec->flag = true;
      continue;
    }
    if (!have_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--%s requires a value\n", name.c_str());
        error_ = true;
        return false;
      }
      value = argv[++i];
    }
    if (!spec->apply(value)) {
      std::fprintf(stderr, "bad value for --%s: '%s' (expected %s)\n",
                   name.c_str(), value.c_str(), spec->kind.c_str());
      error_ = true;
      return false;
    }
  }
  return true;
}

}  // namespace mdo
