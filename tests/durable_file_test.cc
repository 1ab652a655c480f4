// The durable-file layer both stores share (engine/durable_file.h):
// numbered file names, the 24-byte header, the frame reader's
// classification, the POSIX listing contract, the rename fault and the
// owner-only permission check the fsck tools report.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/durable_file.h"

namespace blowfish {
namespace {

constexpr char kTestMagic[8] = {'B', 'F', 'T', 'E', 'S', 'T', '0', '1'};
constexpr NumberedName kTestName{"seg", "bft"};

std::string MakeTempDir() {
  char tmpl[] = "/tmp/bfdurable.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void Touch(const std::string& path, mode_t mode) {
  { std::ofstream out(path); }
  ASSERT_EQ(::chmod(path.c_str(), mode), 0) << path;
}

TEST(DurableFileTest, NumberedNamesRoundTripAndSortNumerically) {
  EXPECT_EQ(kTestName.Format(0x2a), "seg-000000000000002a.bft");
  uint64_t n = 0;
  ASSERT_TRUE(kTestName.Parse(kTestName.Format(0xfedcba9876543210ull), &n));
  EXPECT_EQ(n, 0xfedcba9876543210ull);
  EXPECT_LT(kTestName.Format(9), kTestName.Format(10));

  EXPECT_FALSE(kTestName.Parse("seg-000000000000002A.bft"));   // upper hex
  EXPECT_FALSE(kTestName.Parse("seg-00000000000002a.bft"));    // 15 digits
  EXPECT_FALSE(kTestName.Parse("sag-000000000000002a.bft"));   // prefix
  EXPECT_FALSE(kTestName.Parse("seg-000000000000002a.bfs"));   // extension
  EXPECT_FALSE(kTestName.Parse("seg_000000000000002a.bft"));   // separator
  EXPECT_FALSE(kTestName.Parse("seg-000000000000002a.bft.tmp"));
}

TEST(DurableFileTest, HeaderRoundTripsAndNamesEachDefect) {
  std::string h;
  AppendFileHeader(kTestMagic, 3, 77, &h);
  ASSERT_EQ(h.size(), kFileHeaderBytes);
  uint64_t seq = 0;
  EXPECT_EQ(CheckFileHeader(h.data(), h.size(), kTestMagic, 3, &seq), "");
  EXPECT_EQ(seq, 77u);

  const auto defect = [](const std::string& bytes, uint32_t version) {
    uint64_t unused = 0;
    return CheckFileHeader(bytes.data(), bytes.size(), kTestMagic, version,
                           &unused);
  };
  EXPECT_NE(defect(h.substr(0, 23), 3).find("shorter"), std::string::npos);
  EXPECT_NE(defect(h, 4).find("version 3"), std::string::npos);
  std::string bad_magic = h;
  bad_magic[0] = 'X';
  EXPECT_NE(defect(bad_magic, 3).find("magic"), std::string::npos);
  std::string bad_seq = h;
  bad_seq[12] ^= 1;  // seq byte: the CRC no longer matches
  EXPECT_NE(defect(bad_seq, 3).find("CRC"), std::string::npos);
}

TEST(DurableFileTest, FrameReaderClassifiesWithoutDeciding) {
  std::string data;
  AppendFrame("hello", &data);
  AppendFrame("", &data);
  std::string_view payload;
  ASSERT_EQ(ReadFrame(data.data(), data.size(), 0, 64, &payload),
            FrameCheck::kOk);
  EXPECT_EQ(payload, "hello");
  ASSERT_EQ(ReadFrame(data.data(), data.size(), kFrameOverhead + 5, 64,
                      &payload),
            FrameCheck::kOk);
  EXPECT_EQ(payload, "");

  // Cut inside the length prefix, then inside the payload.
  EXPECT_EQ(ReadFrame(data.data(), 3, 0, 64, &payload),
            FrameCheck::kIncomplete);
  EXPECT_EQ(ReadFrame(data.data(), kFrameOverhead + 4, 0, 64, &payload),
            FrameCheck::kIncomplete);
  // A length over the ceiling is oversized even though the data ends
  // first: garbage, not a tear.
  EXPECT_EQ(ReadFrame(data.data(), data.size(), 0, 4, &payload),
            FrameCheck::kOversized);
  std::string flipped = data;
  flipped[kFrameOverhead] ^= 1;
  EXPECT_EQ(ReadFrame(flipped.data(), flipped.size(), 0, 64, &payload),
            FrameCheck::kBadCrc);
}

TEST(DurableFileTest, ListNumberedFiltersSortsAndReportsMissingDir) {
  const std::string dir = MakeTempDir();
  const std::vector<std::string> created = {
      kTestName.Format(10), kTestName.Format(2), kTestName.Format(3) + ".tmp",
      "unrelated.txt"};
  for (const std::string& name : created) Touch(dir + "/" + name, 0600);

  Result<std::vector<std::string>> names =
      ListNumbered(PosixFileIo(), dir, kTestName);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  const std::vector<std::string> sorted = {kTestName.Format(2),
                                          kTestName.Format(10)};
  EXPECT_EQ(names.ValueOrDie(), sorted);

  Result<std::vector<std::string>> missing =
      ListNumbered(PosixFileIo(), dir + "/absent", kTestName);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  for (const std::string& name : created) ::unlink((dir + "/" + name).c_str());
  ::rmdir(dir.c_str());
}

TEST(DurableFileTest, RenameFaultLeavesBothNamesAsTheyWere) {
  const std::string dir = MakeTempDir();
  const std::string from = dir + "/a";
  const std::string to = dir + "/b";
  Touch(from, 0600);
  FileFaultPlan plan;
  FaultInjectingFileIo io(PosixFileIo(), &plan);

  plan.fail_rename = true;
  EXPECT_EQ(io.Rename(from, to).code(), StatusCode::kIOError);
  EXPECT_EQ(::access(from.c_str(), F_OK), 0);
  EXPECT_NE(::access(to.c_str(), F_OK), 0);

  plan.fail_rename = false;
  EXPECT_TRUE(io.Rename(from, to).ok());
  EXPECT_NE(::access(from.c_str(), F_OK), 0);
  EXPECT_EQ(::access(to.c_str(), F_OK), 0);

  ::unlink(to.c_str());
  ::rmdir(dir.c_str());
}

// Journal and snapshot directories hold the stores' files; a listable
// directory leaks which tenants and generations exist, so it is
// created owner-only like the files, and fsck names a looser one.
TEST(DurableFileTest, CreateDirIsOwnerOnly) {
  const std::string dir = MakeTempDir();
  const std::string sub = dir + "/store";
  ASSERT_TRUE(PosixFileIo()->CreateDir(sub).ok());
  struct stat st;
  ASSERT_EQ(::stat(sub.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0700u);
  EXPECT_EQ(OwnerOnlyWarning(sub), "");

  ASSERT_EQ(::chmod(sub.c_str(), 0755), 0);
  const std::string warning = OwnerOnlyWarning(sub);
  EXPECT_NE(warning.find("0755"), std::string::npos) << warning;
  EXPECT_NE(warning.find("chmod 700"), std::string::npos) << warning;

  ::rmdir(sub.c_str());
  ::rmdir(dir.c_str());
}

TEST(DurableFileTest, OwnerOnlyWarningFlagsGroupAndOtherBits) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/f";

  // What OpenAppend creates is owner-only, whatever the umask.
  Result<std::unique_ptr<DurableFile>> file = PosixFileIo()->OpenAppend(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(OwnerOnlyWarning(path), "");

  for (mode_t mode : {0644, 0640, 0604, 0660}) {
    ASSERT_EQ(::chmod(path.c_str(), mode), 0);
    const std::string warning = OwnerOnlyWarning(path);
    char octal[8];
    std::snprintf(octal, sizeof(octal), "%04o", static_cast<unsigned>(mode));
    EXPECT_NE(warning.find(octal), std::string::npos) << warning;
    EXPECT_NE(warning.find(path), std::string::npos) << warning;
  }
  ASSERT_EQ(::chmod(path.c_str(), 0400), 0);
  EXPECT_EQ(OwnerOnlyWarning(path), "");
  EXPECT_EQ(OwnerOnlyWarning(dir + "/absent"), "");

  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace blowfish
