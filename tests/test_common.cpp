#include <gtest/gtest.h>

#include <cstdlib>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"

namespace roadfusion {
namespace {

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(ROADFUSION_CHECK(1 + 1 == 2, "never shown"));
}

TEST(Check, FailureThrowsWithContext) {
  try {
    ROADFUSION_CHECK(false, "value was " << 42);
    FAIL() << "expected Error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("value was 42"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, FailMacroAlwaysThrows) {
  EXPECT_THROW(ROADFUSION_FAIL("unreachable " << "state"), Error);
}

TEST(Check, ConditionEvaluatedOnce) {
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return true;
  };
  ROADFUSION_CHECK(count(), "");
  EXPECT_EQ(evaluations, 1);
}

TEST(Env, StringFallbacks) {
  ::unsetenv("ROADFUSION_TEST_VAR");
  EXPECT_EQ(env_string("ROADFUSION_TEST_VAR", "fallback"), "fallback");
  ::setenv("ROADFUSION_TEST_VAR", "value", 1);
  EXPECT_EQ(env_string("ROADFUSION_TEST_VAR", "fallback"), "value");
  ::setenv("ROADFUSION_TEST_VAR", "", 1);
  EXPECT_EQ(env_string("ROADFUSION_TEST_VAR", "fallback"), "fallback");
  ::unsetenv("ROADFUSION_TEST_VAR");
}

TEST(Env, IntParsingAndFallbacks) {
  ::unsetenv("ROADFUSION_TEST_INT");
  EXPECT_EQ(env_int("ROADFUSION_TEST_INT", 7), 7);
  ::setenv("ROADFUSION_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("ROADFUSION_TEST_INT", 7), 42);
  ::setenv("ROADFUSION_TEST_INT", "-3", 1);
  EXPECT_EQ(env_int("ROADFUSION_TEST_INT", 7), -3);
  ::setenv("ROADFUSION_TEST_INT", "not_a_number", 1);
  EXPECT_EQ(env_int("ROADFUSION_TEST_INT", 7), 7);
  ::setenv("ROADFUSION_TEST_INT", "12abc", 1);
  EXPECT_EQ(env_int("ROADFUSION_TEST_INT", 7), 7);
  ::unsetenv("ROADFUSION_TEST_INT");
}

TEST(Env, FlagTruthiness) {
  ::unsetenv("ROADFUSION_TEST_FLAG");
  EXPECT_FALSE(env_flag("ROADFUSION_TEST_FLAG"));
  EXPECT_TRUE(env_flag("ROADFUSION_TEST_FLAG", true));
  for (const char* truthy : {"1", "true", "TRUE", "on", "Yes"}) {
    ::setenv("ROADFUSION_TEST_FLAG", truthy, 1);
    EXPECT_TRUE(env_flag("ROADFUSION_TEST_FLAG")) << truthy;
  }
  for (const char* falsy : {"0", "false", "off", "no", "banana"}) {
    ::setenv("ROADFUSION_TEST_FLAG", falsy, 1);
    EXPECT_FALSE(env_flag("ROADFUSION_TEST_FLAG")) << falsy;
  }
  ::unsetenv("ROADFUSION_TEST_FLAG");
}

TEST(Logging, LevelRoundTrip) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kQuiet);
  EXPECT_EQ(log_level(), LogLevel::kQuiet);
  set_log_level(original);
}

TEST(Logging, SuppressedLevelsDoNotFormat) {
  // Arguments are still evaluated (log is a plain function), but emission
  // must respect the level; we can at least assert no crash across all
  // combinations.
  const LogLevel original = log_level();
  for (LogLevel level : {LogLevel::kQuiet, LogLevel::kInfo,
                         LogLevel::kVerbose, LogLevel::kDebug}) {
    set_log_level(level);
    EXPECT_NO_THROW(log_info("info ", 1));
    EXPECT_NO_THROW(log_verbose("verbose ", 2.5));
    EXPECT_NO_THROW(log_debug("debug ", "x"));
  }
  set_log_level(original);
}

}  // namespace
}  // namespace roadfusion
