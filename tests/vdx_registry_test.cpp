#include "vdx/registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "vdx/factory.h"
#include "test_temp_dir.h"

namespace avoc::vdx {
namespace {

class RegistryFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("vdx_registry");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(RegistryFileTest, WriteAndReadSpecFile) {
  const Spec original = ExportSpec(core::AlgorithmId::kAvoc);
  ASSERT_TRUE(WriteSpecFile(Path("avoc.json"), original).ok());
  auto loaded = ReadSpecFile(Path("avoc.json"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->algorithm_name, "AVOC");
  EXPECT_EQ(loaded->history, HistoryKind::kHybrid);
  EXPECT_TRUE(loaded->bootstrapping);
}

TEST_F(RegistryFileTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadSpecFile(Path("nope.json")).ok());
}

TEST_F(RegistryFileTest, ReadMalformedFileNamesTheFile) {
  {
    std::ofstream out(Path("broken.json"));
    out << "{ not json";
  }
  auto result = ReadSpecFile(Path("broken.json"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("broken.json"), std::string::npos);
}

TEST_F(RegistryFileTest, LoadDirectoryRegistersByStem) {
  ASSERT_TRUE(
      WriteSpecFile(Path("alpha.json"), ExportSpec(core::AlgorithmId::kAvoc))
          .ok());
  ASSERT_TRUE(
      WriteSpecFile(Path("beta.vdx"), ExportSpec(core::AlgorithmId::kHybrid))
          .ok());
  {
    std::ofstream out(Path("ignored.txt"));
    out << "not a spec";
  }
  SpecRegistry registry;
  auto loaded = registry.LoadDirectory(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 2u);
  EXPECT_TRUE(registry.contains("alpha"));
  EXPECT_TRUE(registry.contains("beta"));
  EXPECT_FALSE(registry.contains("ignored"));
}

TEST_F(RegistryFileTest, LoadDirectoryFailsOnMalformedSpec) {
  {
    std::ofstream out(Path("bad.json"));
    out << "{}";
  }
  SpecRegistry registry;
  EXPECT_FALSE(registry.LoadDirectory(dir_.string()).ok());
}

TEST(RegistryTest, LoadMissingDirectoryFails) {
  SpecRegistry registry;
  EXPECT_FALSE(registry.LoadDirectory("/no/such/directory").ok());
}

TEST(RegistryTest, RegisterAndGet) {
  SpecRegistry registry;
  registry.Register("mine", ExportSpec(core::AlgorithmId::kStandard));
  EXPECT_TRUE(registry.contains("mine"));
  auto spec = registry.Get("mine");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->history, HistoryKind::kStandard);
  EXPECT_FALSE(registry.Get("other").ok());
}

TEST(RegistryTest, RegisterByAlgorithmNameLowercases) {
  SpecRegistry registry;
  registry.Register(ExportSpec(core::AlgorithmId::kAvoc));  // name "AVOC"
  EXPECT_TRUE(registry.contains("avoc"));
}

TEST(RegistryTest, RegisterReplaces) {
  SpecRegistry registry;
  registry.Register("x", ExportSpec(core::AlgorithmId::kStandard));
  registry.Register("x", ExportSpec(core::AlgorithmId::kHybrid));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Get("x")->history, HistoryKind::kHybrid);
}

TEST(RegistryTest, WithBuiltinsContainsAllPresets) {
  const SpecRegistry registry = SpecRegistry::WithBuiltins();
  EXPECT_EQ(registry.size(), 7u);
  for (const core::AlgorithmId id : core::AllAlgorithms()) {
    EXPECT_TRUE(registry.contains(core::AlgorithmName(id)))
        << core::AlgorithmName(id);
  }
  const auto names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RegistryTest, BuiltinSpecsBuildWorkingVoters) {
  const SpecRegistry registry = SpecRegistry::WithBuiltins();
  for (const std::string& name : registry.Names()) {
    auto spec = registry.Get(name);
    ASSERT_TRUE(spec.ok());
    auto voter = MakeVoter(*spec, 4);
    ASSERT_TRUE(voter.ok()) << name << ": " << voter.status().ToString();
    auto result = voter->CastVote(core::Round{5.0, 5.1, 4.9, 5.05});
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_NEAR(*result->value, 5.0, 0.2) << name;
  }
}

}  // namespace
}  // namespace avoc::vdx
