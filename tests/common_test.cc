// Unit tests for src/common: Status/StatusOr, Rng, units, TablePrinter,
// the shared CLI flags.

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"

namespace mrtheta {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad arg");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value(), 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = *std::move(r);
  EXPECT_EQ(*v, 5);
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto fails = []() { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    MRTHETA_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) differences += a.Next() != b.Next();
  EXPECT_GT(differences, 12);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(17);
  std::map<uint64_t, int> hist;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hist[rng.Zipf(100, 0.0)]++;
  EXPECT_EQ(hist.size(), 100u);
  for (const auto& [k, c] : hist) {
    EXPECT_NEAR(c, n / 100, n / 100);  // within 100% of expectation
  }
}

TEST(RngTest, ZipfRanksAreBounded) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Zipf(50, 1.2), 50u);
  }
}

TEST(RngTest, ZipfHeadMassMatchesTheory) {
  // For s=1 over n=1000, P(rank 0) = 1/H(1000) ≈ 0.133.
  Rng rng(23);
  const int n = 100000;
  int rank0 = 0;
  for (int i = 0; i < n; ++i) rank0 += rng.Zipf(1000, 1.0) == 0;
  double h = 0;
  for (int k = 1; k <= 1000; ++k) h += 1.0 / k;
  EXPECT_NEAR(static_cast<double>(rank0) / n, 1.0 / h, 0.01);
}

TEST(RngTest, ZipfIsMonotoneDecreasingInRank) {
  Rng rng(29);
  std::map<uint64_t, int> hist;
  for (int i = 0; i < 200000; ++i) hist[rng.Zipf(100, 0.8)]++;
  EXPECT_GT(hist[0], hist[9]);
  EXPECT_GT(hist[9], hist[49]);
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(31);
  EXPECT_EQ(rng.Zipf(1, 1.0), 0u);
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(MiB(2.0), 2 * kMiB);
  EXPECT_EQ(GiB(1.0), kGiB);
  EXPECT_EQ(ToSeconds(FromSeconds(1.5)), 1.5);
  EXPECT_EQ(FromSeconds(2.0), 2 * kMicrosPerSecond);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.00 MB");
  EXPECT_EQ(FormatBytes(5 * kGiB), "5.00 GB");
}

TEST(UnitsTest, FormatSimTime) {
  EXPECT_EQ(FormatSimTime(FromSeconds(1.5)), "1.500 s");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, NumAndIntFormatting) {
  EXPECT_EQ(TablePrinter::Num(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::Int(42), "42");
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("| x |"), std::string::npos);
}

// Parses `args` as a binary's command line (argv[0] is the binary name).
StatusOr<CommonFlags> ParseArgs(std::vector<std::string> args,
                                bool allow_runtime_flags = true) {
  args.insert(args.begin(), "binary");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseCommonFlags(static_cast<int>(argv.size()), argv.data(),
                          allow_runtime_flags);
}

TEST(FlagsTest, SuffixedSizesParse) {
  const std::pair<const char*, int64_t> sizes[] = {
      {"4096", 4096},
      {"256K", int64_t{256} << 10},
      {"64m", int64_t{64} << 20},
      {"2G", int64_t{2} << 30},
  };
  for (const auto& [text, bytes] : sizes) {
    const StatusOr<CommonFlags> flags = ParseArgs({"--mem-budget", text});
    ASSERT_TRUE(flags.ok()) << text << ": " << flags.status().ToString();
    EXPECT_EQ(flags->mem_budget_bytes, bytes) << text;
  }
  const StatusOr<CommonFlags> all = ParseArgs(
      {"--threads", "4", "--trace-out=t.json", "--metrics-out=m.json",
       "--mem-budget", "1M", "out.json"});
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->num_threads, 4);
  EXPECT_EQ(all->trace_out, "t.json");
  EXPECT_EQ(all->metrics_out, "m.json");
  EXPECT_EQ(all->mem_budget_bytes, int64_t{1} << 20);
  EXPECT_EQ(all->output_path, "out.json");
  EXPECT_FALSE(ParseArgs({"--mem-budget", "64Q"}).ok());
  EXPECT_FALSE(ParseArgs({"--mem-budget"}).ok());
}

TEST(FlagsTest, BenchModeRejectsThreadsAndMemBudget) {
  EXPECT_FALSE(ParseArgs({"--threads", "2"}, false).ok());
  EXPECT_FALSE(ParseArgs({"--mem-budget", "64M"}, false).ok());
  const StatusOr<CommonFlags> flags =
      ParseArgs({"--trace-out=t.json", "BENCH.json"}, false);
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->trace_out, "t.json");
  EXPECT_EQ(flags->output_path, "BENCH.json");
}

TEST(FlagsTest, UnknownFlagFails) {
  for (const bool runtime_flags : {true, false}) {
    const StatusOr<CommonFlags> flags =
        ParseArgs({"--no-prune"}, runtime_flags);
    ASSERT_FALSE(flags.ok());
    EXPECT_EQ(flags.status().message(), "unknown flag: --no-prune");
  }
}

TEST(FlagsTest, SecondPositionalFails) {
  const StatusOr<CommonFlags> flags = ParseArgs({"a.json", "b.json"});
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().message(), "unexpected extra argument: b.json");
}

}  // namespace
}  // namespace mrtheta
