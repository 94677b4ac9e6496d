/**
 * @file
 * Tests for the command-line parser used by the tools, and for the
 * warnOnce() helper the tools report ignored options through.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/argparse.hpp"
#include "common/log.hpp"

namespace cgct {
namespace {

TEST(ArgParse, DefaultsSurviveEmptyArgv)
{
    std::uint64_t n = 42;
    bool flag = false;
    ArgParser p("prog");
    p.addU64("n", &n, "a number");
    p.addFlag("flag", &flag, "a flag");
    const char *argv[] = {"prog"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_EQ(n, 42u);
    EXPECT_FALSE(flag);
}

TEST(ArgParse, ParsesSeparateAndEqualsValues)
{
    std::uint64_t n = 0;
    std::string s;
    double d = 0;
    ArgParser p("prog");
    p.addU64("n", &n, "");
    p.addString("s", &s, "");
    p.addDouble("d", &d, "");
    const char *argv[] = {"prog", "--n", "17", "--s=hello", "--d", "2.5"};
    EXPECT_TRUE(p.parse(6, argv));
    EXPECT_EQ(n, 17u);
    EXPECT_EQ(s, "hello");
    EXPECT_DOUBLE_EQ(d, 2.5);
}

TEST(ArgParse, GivenTellsSetFromDefault)
{
    std::uint64_t n = 4;
    std::uint64_t m = 4;
    bool flag = false;
    ArgParser p("prog");
    p.addU64("n", &n, "");
    p.addU64("m", &m, "");
    p.addFlag("flag", &flag, "");
    // Passing the default value explicitly still counts as given.
    const char *argv[] = {"prog", "--n=4", "--flag"};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_TRUE(p.given("n"));
    EXPECT_TRUE(p.given("flag"));
    EXPECT_FALSE(p.given("m"));
    EXPECT_FALSE(p.given("no-such-option"));
}

TEST(ArgParse, FlagsTakeNoValue)
{
    bool flag = false;
    ArgParser p("prog");
    p.addFlag("on", &flag, "");
    const char *ok[] = {"prog", "--on"};
    EXPECT_TRUE(p.parse(2, ok));
    EXPECT_TRUE(flag);

    ArgParser p2("prog");
    p2.addFlag("on", &flag, "");
    std::string err;
    const char *bad[] = {"prog", "--on=1"};
    EXPECT_FALSE(p2.parse(2, bad, &err));
    EXPECT_NE(err.find("takes no value"), std::string::npos);
}

TEST(ArgParse, Positionals)
{
    std::string first = "default", second;
    ArgParser p("prog");
    p.addPositional("first", &first, "");
    p.addPositional("second", &second, "");
    const char *argv[] = {"prog", "alpha", "beta"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_EQ(first, "alpha");
    EXPECT_EQ(second, "beta");
}

TEST(ArgParse, OptionalPositionalKeepsDefault)
{
    std::string value = "fallback";
    ArgParser p("prog");
    p.addPositional("value", &value, "");
    const char *argv[] = {"prog"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_EQ(value, "fallback");
}

TEST(ArgParse, RequiredPositionalMissing)
{
    std::string value;
    ArgParser p("prog");
    p.addPositional("value", &value, "", /*required=*/true);
    std::string err;
    const char *argv[] = {"prog"};
    EXPECT_FALSE(p.parse(1, argv, &err));
    EXPECT_NE(err.find("missing required"), std::string::npos);
}

TEST(ArgParse, Errors)
{
    std::uint64_t n = 0;
    ArgParser p("prog");
    p.addU64("n", &n, "");
    std::string err;

    const char *unknown[] = {"prog", "--zap"};
    EXPECT_FALSE(p.parse(2, unknown, &err));
    EXPECT_NE(err.find("unknown option"), std::string::npos);

    const char *missing[] = {"prog", "--n"};
    EXPECT_FALSE(p.parse(2, missing, &err));
    EXPECT_NE(err.find("needs a value"), std::string::npos);

    const char *bad[] = {"prog", "--n", "xyz"};
    EXPECT_FALSE(p.parse(3, bad, &err));
    EXPECT_NE(err.find("bad value"), std::string::npos);

    const char *extra[] = {"prog", "positional"};
    EXPECT_FALSE(p.parse(2, extra, &err));
    EXPECT_NE(err.find("unexpected argument"), std::string::npos);
}

TEST(ArgParse, HelpRequested)
{
    ArgParser p("prog", "does things");
    std::uint64_t n = 3;
    p.addU64("n", &n, "the n");
    const char *argv[] = {"prog", "--help"};
    EXPECT_TRUE(p.parse(2, argv));
    EXPECT_TRUE(p.helpRequested());
    std::ostringstream os;
    p.printHelp(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("usage: prog"), std::string::npos);
    EXPECT_NE(out.find("does things"), std::string::npos);
    EXPECT_NE(out.find("--n"), std::string::npos);
    EXPECT_NE(out.find("default: 3"), std::string::npos);
}

TEST(ArgParse, HexValuesAccepted)
{
    std::uint64_t n = 0;
    ArgParser p("prog");
    p.addU64("addr", &n, "");
    const char *argv[] = {"prog", "--addr", "0x1000"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_EQ(n, 0x1000u);
}

TEST(ArgParse, UnknownOptionNamedInTheError)
{
    std::uint64_t n = 0;
    ArgParser p("prog");
    p.addU64("n", &n, "");
    std::string err;
    const char *argv[] = {"prog", "--n", "3", "--no-such-option", "4"};
    EXPECT_FALSE(p.parse(5, argv, &err));
    EXPECT_NE(err.find("unknown option --no-such-option"), std::string::npos)
        << err;
}

TEST(ArgParse, OptionNamesMatchExactlyNotByPrefix)
{
    std::uint64_t n = 0;
    ArgParser p("prog");
    p.addU64("n", &n, "");
    std::string err;
    const char *longer[] = {"prog", "--nodes", "16"};
    EXPECT_FALSE(p.parse(3, longer, &err));
    EXPECT_NE(err.find("unknown option --nodes"), std::string::npos)
        << err;

    std::uint64_t nodes = 0;
    ArgParser q("prog");
    q.addU64("nodes", &nodes, "");
    const char *shorter[] = {"prog", "--node", "16"};
    EXPECT_FALSE(q.parse(3, shorter, &err));
    EXPECT_EQ(nodes, 0u);
}

class WarnOnceReset : public ::testing::Test
{
  protected:
    void SetUp() override { resetWarnOnceForTest(); }
    void TearDown() override { resetWarnOnceForTest(); }
};

TEST_F(WarnOnceReset, WarnOnceDeduplicatesByKey)
{
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(warnOnceFired(), 0u);
    EXPECT_TRUE(warnOnce("key-a", "test", "first %d", 1));
    EXPECT_FALSE(warnOnce("key-a", "test", "suppressed %d", 2));
    EXPECT_FALSE(warnOnce("key-a", "test", "suppressed %d", 3));
    EXPECT_TRUE(warnOnce("key-b", "test", "other"));
    EXPECT_EQ(warnOnceFired(), 2u);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("first 1"), std::string::npos);
    EXPECT_EQ(err.find("suppressed"), std::string::npos);
}

} // namespace
} // namespace cgct
