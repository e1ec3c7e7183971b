// Strict env-knob parsing: well-formed values parse exactly, malformed
// values (the classic 1O-for-10 typo) abort with a message naming the
// variable instead of silently truncating to a numeric prefix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "exp/env.hpp"

namespace icc::exp {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv("ICC_ENV_TEST"); }
};

TEST_F(EnvTest, UnsetAndEmptyFallBack) {
  ::unsetenv("ICC_ENV_TEST");
  EXPECT_EQ(env_int("ICC_ENV_TEST", 7), 7);
  EXPECT_DOUBLE_EQ(env_double("ICC_ENV_TEST", 2.5), 2.5);
  EXPECT_EQ(env_string("ICC_ENV_TEST", "x"), "x");
  ::setenv("ICC_ENV_TEST", "", 1);
  EXPECT_EQ(env_int("ICC_ENV_TEST", 7), 7);
}

TEST_F(EnvTest, IfSetKeepsEmptyValue) {
  ::unsetenv("ICC_ENV_TEST");
  EXPECT_EQ(env_string_if_set("ICC_ENV_TEST", "1,2"), "1,2");
  ::setenv("ICC_ENV_TEST", "", 1);
  EXPECT_EQ(env_string_if_set("ICC_ENV_TEST", "1,2"), "");
  EXPECT_EQ(env_string("ICC_ENV_TEST", "1,2"), "1,2");
  ::setenv("ICC_ENV_TEST", "4", 1);
  EXPECT_EQ(env_string_if_set("ICC_ENV_TEST", "1,2"), "4");
}

TEST_F(EnvTest, WellFormedValuesParse) {
  ::setenv("ICC_ENV_TEST", "42", 1);
  EXPECT_EQ(env_int("ICC_ENV_TEST", 0), 42);
  ::setenv("ICC_ENV_TEST", "-3", 1);
  EXPECT_EQ(env_int("ICC_ENV_TEST", 0), -3);
  ::setenv("ICC_ENV_TEST", "2.5e2", 1);
  EXPECT_DOUBLE_EQ(env_double("ICC_ENV_TEST", 0.0), 250.0);
}

TEST_F(EnvTest, MalformedIntegerAborts) {
  ::setenv("ICC_ENV_TEST", "1O", 1);  // letter O, the classic typo
  EXPECT_DEATH((void)env_int("ICC_ENV_TEST", 1),
               "ICC_ENV_TEST='1O' is not a valid integer");
}

TEST_F(EnvTest, TrailingGarbageAborts) {
  ::setenv("ICC_ENV_TEST", "10 ", 1);
  EXPECT_DEATH((void)env_int("ICC_ENV_TEST", 1), "not a valid integer");
  ::setenv("ICC_ENV_TEST", "3OO.0", 1);
  EXPECT_DEATH((void)env_double("ICC_ENV_TEST", 1.0), "not a valid number");
}

TEST_F(EnvTest, OutOfRangeAborts) {
  ::setenv("ICC_ENV_TEST", "99999999999999999999", 1);
  EXPECT_DEATH((void)env_int("ICC_ENV_TEST", 1), "not a valid integer");
}

TEST_F(EnvTest, FlagIsOffUnlessExactlyOne) {
  ::unsetenv("ICC_ENV_TEST");
  EXPECT_FALSE(env_flag("ICC_ENV_TEST"));
  ::setenv("ICC_ENV_TEST", "", 1);
  EXPECT_FALSE(env_flag("ICC_ENV_TEST"));
  ::setenv("ICC_ENV_TEST", "0", 1);
  EXPECT_FALSE(env_flag("ICC_ENV_TEST"));
  ::setenv("ICC_ENV_TEST", "1", 1);
  EXPECT_TRUE(env_flag("ICC_ENV_TEST"));
}

TEST_F(EnvTest, FlagOtherThanZeroOrOneAborts) {
  // None of these may arm what the knob names, nor silently read as off.
  for (const char* bad : {"false", "yes", "on", "2", "01", " 1"}) {
    ::setenv("ICC_ENV_TEST", bad, 1);
    EXPECT_DEATH((void)env_flag("ICC_ENV_TEST"), "is not a valid on/off flag \\(0 or 1\\)")
        << bad;
  }
}

TEST_F(EnvTest, IntListParsesAndSkipsEmptyItems) {
  ::unsetenv("ICC_ENV_TEST");
  EXPECT_EQ(env_int_list("ICC_ENV_TEST", "100,1000"), (std::vector<int>{100, 1000}));
  ::setenv("ICC_ENV_TEST", "", 1);
  EXPECT_EQ(env_int_list("ICC_ENV_TEST", "5"), (std::vector<int>{5}));
  ::setenv("ICC_ENV_TEST", "3,,-2,", 1);
  EXPECT_EQ(env_int_list("ICC_ENV_TEST", "5"), (std::vector<int>{3, -2}));
}

TEST_F(EnvTest, IntListItemWithGarbageAborts) {
  // Neither may run with its numeric prefix (N=1, L=2).
  ::setenv("ICC_ENV_TEST", "100,1x00", 1);
  EXPECT_DEATH((void)env_int_list("ICC_ENV_TEST", "1"),
               "ICC_ENV_TEST='100,1x00' is not a valid comma-separated integer list");
  ::setenv("ICC_ENV_TEST", "2x", 1);
  EXPECT_DEATH((void)env_int_list("ICC_ENV_TEST", "1"), "ICC_ENV_TEST='2x'");
  ::setenv("ICC_ENV_TEST", "1,99999999999", 1);
  EXPECT_DEATH((void)env_int_list("ICC_ENV_TEST", "1"), "integer list");
}

}  // namespace
}  // namespace icc::exp
