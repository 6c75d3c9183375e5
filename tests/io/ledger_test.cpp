// RunLedger on its own: record identity, strict manifest headers, collation
// and the atomic writer underneath — the bookkeeping rpsweep and rpevolve
// resume through.
#include "io/ledger.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/container.hpp"

namespace rp::io {
namespace {

constexpr LedgerFormat kFormat{
    .tool = "rptest",
    .study = "study",
    .unit = "item",
    .block = "text",
    .record_digits = 3,
    .schema = 2,
    .start_hint = "`rptest plan`",
    .finish_hint = "`rptest resume`",
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

class LedgerTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("rpledger_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(ledger().records_dir());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RunLedger ledger() const { return RunLedger(kFormat, dir_); }

  std::filesystem::path dir_;
};

TEST_F(LedgerTest, PathsFollowTheFormat) {
  EXPECT_EQ(ledger().records_dir(), dir_ / "items");
  EXPECT_EQ(ledger().record(7), dir_ / "items" / "item-007.rec");
  EXPECT_EQ(ledger().manifest(), dir_ / "manifest.txt");
}

TEST_F(LedgerTest, RecordsCountOnlyForTheirOwnDigestAndIndex) {
  const RunLedger l = ledger();
  l.write_record("00000000000000aa", 0, "0,x", "{\"i\":0}");
  EXPECT_EQ(read_file(l.record(0)),
            "rptest-record v1 00000000000000aa 0\n0,x\n{\"i\":0}\n");
  const auto record = l.read_record("00000000000000aa", 0);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->csv, "0,x");
  EXPECT_EQ(record->json, "{\"i\":0}");
  EXPECT_FALSE(l.read_record("00000000000000bb", 0).has_value());
  // A record copied to another index is stale there.
  std::filesystem::copy_file(l.record(0), l.record(1));
  EXPECT_FALSE(l.read_record("00000000000000aa", 1).has_value());
  EXPECT_EQ(l.completed("00000000000000aa", 3), 1u);
  // A record cut short reads as missing, not as an empty row.
  std::ofstream(l.record(2), std::ios::trunc)
      << "rptest-record v1 00000000000000aa 2\n2,x\n";
  EXPECT_FALSE(l.read_record("00000000000000aa", 2).has_value());
}

TEST_F(LedgerTest, ManifestRoundTripsAndChecksItsIdentity) {
  const RunLedger l = ledger();
  l.write_manifest("00000000000000aa", 3, "line one\nline two\n");
  EXPECT_EQ(read_file(l.manifest()),
            "rptest-manifest v1\ndigest 00000000000000aa\nitems 3\ntext\n"
            "line one\nline two\n");
  const LedgerManifest manifest = l.read_manifest();
  EXPECT_EQ(manifest.digest, "00000000000000aa");
  EXPECT_EQ(manifest.count, 3u);
  EXPECT_EQ(manifest.block, "line one\nline two\n");
  EXPECT_NO_THROW(l.check_manifest(manifest, "00000000000000aa", 3));
  EXPECT_THROW(l.check_manifest(manifest, "00000000000000bb", 3),
               std::runtime_error);
  EXPECT_THROW(l.check_manifest(manifest, "00000000000000aa", 4),
               std::runtime_error);
}

TEST_F(LedgerTest, ManifestCountMustBeAllDigits) {
  for (const char* count : {"3x", "", " 3", "3 ", "-3", "0x3", "+3",
                            "99999999999999999999999"}) {
    std::ofstream(ledger().manifest(), std::ios::trunc)
        << "rptest-manifest v1\ndigest 00000000000000aa\nitems " << count
        << "\ntext\nbody\n";
    EXPECT_THROW(ledger().read_manifest(), std::runtime_error)
        << "count '" << count << "'";
  }
}

TEST_F(LedgerTest, ManifestHeadersAreStrict) {
  EXPECT_THROW(ledger().read_manifest(), std::runtime_error);  // Missing.
  for (const char* text :
       {"rpother-manifest v1\ndigest d\nitems 1\ntext\n",
        "rptest-manifest v1\nitems 1\ntext\n",
        "rptest-manifest v1\ndigest d\nruns 1\ntext\n",
        "rptest-manifest v1\ndigest d\nitems 1\nspec\n"}) {
    std::ofstream(ledger().manifest(), std::ios::trunc) << text;
    EXPECT_THROW(ledger().read_manifest(), std::runtime_error) << text;
  }
}

TEST_F(LedgerTest, CollateEscapesTheNameAndNamesTheFirstMissingItem) {
  const RunLedger l = ledger();
  l.write_record("00000000000000aa", 0, "0,x", "{\"i\":0}");
  try {
    l.collate("00000000000000aa", 2, "n", "i,v");
    FAIL() << "collated an incomplete study";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("item 1"), std::string::npos)
        << error.what();
  }
  l.write_record("00000000000000aa", 1, "1,y", "{\"i\":1}");
  EXPECT_EQ(l.collate("00000000000000aa", 2, "a\x01\"b", "i,v"), 2u);
  EXPECT_EQ(read_file(l.results_csv()),
            "#rptest-results v2 name=a\x01\"b text=00000000000000aa items=2\n"
            "i,v\n0,x\n1,y\n");
  EXPECT_EQ(read_file(l.results_json()),
            "{\"schema\":\"rptest-results-v2\",\"name\":\"a\\u0001\\\"b\","
            "\"text\":\"00000000000000aa\",\"rows\":[{\"i\":0},{\"i\":1}]}\n");
}

// One column list renders all three forms: the CSV header and row stay flat,
// the JSON object nests an object's columns, and only the JSON escapes text.
TEST(LedgerRow, RendersHeaderCsvAndJsonFromOneColumnList) {
  LedgerRow row;
  row.count("run", 7)
      .begin_object("axes")
      .text("econ.b", "0.4")
      .text("a\"b", "x\x01")
      .end_object()
      .begin_object("none")
      .end_object()
      .number("bps", 1.5e10)
      .flag("viable", true)
      .flag("other", false);
  EXPECT_EQ(row.header(), "run,econ.b,a\"b,bps,viable,other");
  EXPECT_EQ(row.csv(), "7,0.4,x\x01,1.5e+10,1,0");
  EXPECT_EQ(row.json(),
            "{\"run\":7,\"axes\":{\"econ.b\":\"0.4\",\"a\\\"b\":\"x\\u0001\"},"
            "\"none\":{},\"bps\":1.5e+10,\"viable\":true,\"other\":false}");
}

TEST_F(LedgerTest, AtomicWriteReplacesWholeFilesAndLeavesNoTemp) {
  const std::filesystem::path path = dir_ / "file.txt";
  write_file_atomic("first", path);
  write_file_atomic("second", path);
  EXPECT_EQ(read_file(path), "second");
  EXPECT_FALSE(std::filesystem::exists(dir_ / "file.txt.tmp"));
  // A target in a missing directory fails cleanly, leaving nothing behind.
  EXPECT_THROW(write_file_atomic("x", dir_ / "absent" / "file.txt"),
               SnapshotError);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "absent"));
}

}  // namespace
}  // namespace rp::io
