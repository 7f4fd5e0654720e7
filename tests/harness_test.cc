#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/prim.h"
#include "data/datasets.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/table.h"

namespace metricprox {
namespace {

// ---- TablePrinter ----

TEST(TablePrinterTest, RendersAlignedColumns) {
  TablePrinter table({"name", "count"});
  table.NewRow().AddCell("alpha").AddUint(12);
  table.NewRow().AddCell("b").AddUint(34567);
  const std::string out = table.ToString("Title");
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("34567"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinterTest, NumericFormatting) {
  TablePrinter table({"d", "pct", "i"});
  table.NewRow().AddDouble(3.14159, 3).AddPercent(0.4213).AddInt(-5);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("3.142"), std::string::npos);
  EXPECT_NE(out.find("42.13"), std::string::npos);
  EXPECT_NE(out.find("-5"), std::string::npos);
}

TEST(TablePrinterTest, CsvEscapesSpecialCells) {
  TablePrinter table({"name", "note"});
  table.NewRow().AddCell("plain").AddCell("a,b");
  table.NewRow().AddCell("q\"q").AddUint(7);
  const std::string csv = table.ToCsv();
  EXPECT_EQ(csv, "name,note\nplain,\"a,b\"\n\"q\"\"q\",7\n");
}

TEST(TablePrinterTest, OverflowingRowDies) {
  TablePrinter table({"only"});
  table.NewRow().AddCell("x");
  EXPECT_DEATH(table.AddCell("y"), "overflow");
}

// ---- Flags ----

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--n=128", "--scheme=tri", "--verbose",
                        "--rate=0.5"};
  auto flags = Flags::Parse(5, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("n", 0), 128);
  EXPECT_EQ(flags->GetString("scheme", ""), "tri");
  EXPECT_TRUE(flags->GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags->GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(flags->GetInt("missing", 7), 7);
  EXPECT_TRUE(flags->FailOnUnused().ok());
}

TEST(FlagsTest, RejectsMalformedTokens) {
  const char* argv[] = {"prog", "nodashes"};
  EXPECT_FALSE(Flags::Parse(2, argv).ok());
}

TEST(FlagsTest, FailOnUnusedCatchesTypos) {
  const char* argv[] = {"prog", "--typo=1"};
  auto flags = Flags::Parse(2, argv);
  ASSERT_TRUE(flags.ok());
  const Status status = flags->FailOnUnused();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("typo"), std::string::npos);
}

/// FailOnUnused's error for a flag set that holds exactly one bad value.
std::string BadValueMessage(std::vector<const char*> argv,
                            const std::function<void(const Flags&)>& read) {
  argv.insert(argv.begin(), "prog");
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.ok());
  read(*flags);
  const Status status = flags->FailOnUnused();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  return std::string(status.message());
}

TEST(FlagsTest, IntsMustParseWholeAndFitInt64) {
  const char* argv[] = {"prog", "--a=-5", "--b=9223372036854775807"};
  auto flags = Flags::Parse(3, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("a", 0), -5);
  EXPECT_EQ(flags->GetInt("b", 0), INT64_MAX);
  EXPECT_TRUE(flags->FailOnUnused().ok());

  for (const char* bad : {"--k=3x", "--k=abc", "--k=", "--k= 3", "--k=+3",
                          "--k=1.5", "--k=9223372036854775808"}) {
    int64_t got = 0;
    const std::string message = BadValueMessage(
        {bad}, [&](const Flags& f) { got = f.GetInt("k", 7); });
    EXPECT_EQ(got, 7) << bad;  // the default, never a parsed prefix
    EXPECT_NE(message.find("--k"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("'") + (bad + 4) + "'"),
              std::string::npos)
        << message;
  }
}

TEST(FlagsTest, DoublesMustParseWhole) {
  const char* argv[] = {"prog", "--a=1e-3", "--b=nan", "--c=-inf"};
  auto flags = Flags::Parse(4, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("a", 0.0), 1e-3);
  // nan and inf parse; callers reject them where they mean nothing.
  EXPECT_TRUE(std::isnan(flags->GetDouble("b", 0.0)));
  EXPECT_EQ(flags->GetDouble("c", 0.0), -INFINITY);
  EXPECT_TRUE(flags->FailOnUnused().ok());

  for (const char* bad : {"--rate=0.5x", "--rate=", "--rate=x0.5",
                          "--rate=1e999"}) {
    double got = 0.0;
    const std::string message = BadValueMessage(
        {bad}, [&](const Flags& f) { got = f.GetDouble("rate", 0.25); });
    EXPECT_EQ(got, 0.25) << bad;
    EXPECT_NE(message.find("--rate"), std::string::npos) << message;
  }
}

TEST(FlagsTest, BoolsAcceptOnlyKnownWords) {
  const char* argv[] = {"prog",      "--a=true", "--b=1", "--c=yes",
                        "--d",       "--e=false", "--f=0", "--g=no"};
  auto flags = Flags::Parse(8, argv);
  ASSERT_TRUE(flags.ok());
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(flags->GetBool(key, false)) << key;
  }
  for (const char* key : {"e", "f", "g"}) {
    EXPECT_FALSE(flags->GetBool(key, true)) << key;
  }
  EXPECT_TRUE(flags->FailOnUnused().ok());

  for (const char* bad : {"--audit=yes-please", "--audit=on", "--audit="}) {
    bool got = false;
    const std::string message = BadValueMessage(
        {bad}, [&](const Flags& f) { got = f.GetBool("audit", true); });
    EXPECT_TRUE(got) << bad;
    EXPECT_NE(message.find("--audit"), std::string::npos) << message;
  }
}

TEST(FlagsTest, FirstBadValueIsReportedBeforeUnknownFlags) {
  const char* argv[] = {"prog", "--aaa=1", "--n=2x", "--k=3y"};
  auto flags = Flags::Parse(4, argv);
  ASSERT_TRUE(flags.ok());
  flags->GetInt("n", 0);
  flags->GetInt("k", 0);
  const Status status = flags->FailOnUnused();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "invalid value for --n: '2x' (expected a "
                              "64-bit integer)");
}

// ---- RunWorkload ----

TEST(RunWorkloadTest, CountsAndChecksumsAreConsistent) {
  Dataset dataset = MakeRandomMetric(24, 3);
  WorkloadConfig config;
  config.scheme = SchemeKind::kNone;
  const Workload workload = [](BoundedResolver* resolver) {
    return PrimMst(resolver).total_weight;
  };
  const WorkloadResult result = RunWorkload(dataset.oracle.get(), config, workload);
  EXPECT_EQ(result.total_calls, 24u * 23u / 2u);  // without plug: all pairs
  EXPECT_EQ(result.construction_calls, 0u);
  EXPECT_GT(result.value, 0.0);
  EXPECT_GE(result.completion_seconds, result.wall_seconds);
}

TEST(RunWorkloadTest, SimulatedLatencyAccumulates) {
  Dataset dataset = MakeRandomMetric(12, 4);
  WorkloadConfig config;
  config.scheme = SchemeKind::kNone;
  config.oracle_cost_seconds = 0.25;
  const WorkloadResult result = RunWorkload(
      dataset.oracle.get(), config,
      [](BoundedResolver* r) { return PrimMst(r).total_weight; });
  EXPECT_DOUBLE_EQ(result.stats.simulated_oracle_seconds,
                   0.25 * static_cast<double>(result.total_calls));
  EXPECT_NEAR(result.completion_seconds - result.wall_seconds,
              result.stats.simulated_oracle_seconds, 1e-9);
}

TEST(RunWorkloadTest, SchemesAgreeOnChecksumAndTriSavesOnStructuredData) {
  Dataset dataset = MakeSfPoiLike(48, 5);
  const Workload workload = [](BoundedResolver* resolver) {
    return PrimMst(resolver).total_weight;
  };
  WorkloadConfig vanilla;
  vanilla.scheme = SchemeKind::kNone;
  const WorkloadResult base = RunWorkload(dataset.oracle.get(), vanilla, workload);

  WorkloadConfig tri;
  tri.scheme = SchemeKind::kTri;
  tri.bootstrap = true;
  const WorkloadResult plugged = RunWorkload(dataset.oracle.get(), tri, workload);

  EXPECT_NEAR(base.value, plugged.value, 1e-9);
  EXPECT_GT(plugged.construction_calls, 0u);
  EXPECT_LT(plugged.total_calls, base.total_calls);
}

TEST(SaveFractionTest, HandlesEdgeCases) {
  EXPECT_DOUBLE_EQ(SaveFraction(50, 100), 0.5);
  EXPECT_DOUBLE_EQ(SaveFraction(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(SaveFraction(150, 100), -0.5);
  EXPECT_DOUBLE_EQ(SaveFraction(10, 0), 0.0);
}

}  // namespace
}  // namespace metricprox
