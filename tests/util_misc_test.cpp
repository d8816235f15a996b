// TextTable, string helpers, Options parser.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/options.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using mdo::fmt_double;
using mdo::fmt_ns_as_ms;
using mdo::fmt_ns_as_s;
using mdo::Options;
using mdo::TextTable;

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "long_header"});
  t.add_row({"xxxxxx", "1"});
  std::string out = t.render();
  EXPECT_NE(out.find("| a      | long_header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxxx | 1           |"), std::string::npos);
}

TEST(TextTable, CsvQuotesSpecials) {
  TextTable t({"k", "v"});
  t.add_row({"has,comma", "has\"quote"});
  std::string csv = t.render_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TextTable, RejectsMisshapenRow) {
  TextTable t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt_double(3.14159, 3), "3.142");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_ns_as_ms(85774000), "85.774");
  EXPECT_EQ(fmt_ns_as_s(3924000000LL), "3.924");
}

TEST(Strings, Split) {
  EXPECT_EQ(mdo::split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(OptionsTest, ParsesAllForms) {
  std::int64_t n = 0;
  double x = 0;
  std::string s;
  bool flag = false;
  Options opts("test");
  opts.add_int("n", &n, "count")
      .add_double("x", &x, "ratio")
      .add_string("name", &s, "label")
      .add_flag("verbose", &flag, "chatty");

  const char* argv[] = {"prog", "--n=5", "--x", "2.5", "--name=abc",
                        "--verbose", "positional"};
  ASSERT_TRUE(opts.parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(n, 5);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "abc");
  EXPECT_TRUE(flag);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "positional");
}

TEST(OptionsTest, RejectsUnknownOption) {
  std::int64_t n = 0;
  Options opts("test");
  opts.add_int("n", &n, "count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(opts.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(opts.error());
}

TEST(OptionsTest, RejectsBadInt) {
  std::int64_t n = 0;
  Options opts("test");
  opts.add_int("n", &n, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(opts.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(opts.error());
}

TEST(OptionsTest, ParsesLists) {
  std::vector<std::int64_t> counts = {1};
  std::vector<double> rates = {1.0};
  Options opts("test");
  opts.add_int_list("counts", &counts, "counts")
      .add_double_list("rates", &rates, "rates");
  const char* argv[] = {"prog", "--counts=2,4,8", "--rates", "0,0.5,1e1"};
  ASSERT_TRUE(opts.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(counts, (std::vector<std::int64_t>{2, 4, 8}));
  EXPECT_EQ(rates, (std::vector<double>{0.0, 0.5, 10.0}));
}

TEST(OptionsTest, RejectsMalformedListFields) {
  // A bad field rejects the whole option and leaves the default alone:
  // no field is skipped, truncated or read as a prefix.
  for (const char* bad : {"abc", "", "1,,2", "1,", ",1", "1.5abc", "2,4x"}) {
    std::vector<double> rates = {7.0};
    Options opts("test");
    opts.add_double_list("losses", &rates, "rates");
    const std::string arg = std::string("--losses=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_FALSE(opts.parse(2, const_cast<char**>(argv))) << bad;
    EXPECT_TRUE(opts.error()) << bad;
    EXPECT_EQ(rates, std::vector<double>{7.0}) << bad;
  }
  for (const char* bad : {"abc", "", "2,,8", "2,4x", "1.5"}) {
    std::vector<std::int64_t> counts = {7};
    Options opts("test");
    opts.add_int_list("clusters", &counts, "counts");
    const std::string arg = std::string("--clusters=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_FALSE(opts.parse(2, const_cast<char**>(argv))) << bad;
    EXPECT_TRUE(opts.error()) << bad;
    EXPECT_EQ(counts, std::vector<std::int64_t>{7}) << bad;
  }
}

}  // namespace
