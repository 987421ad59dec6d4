// Scratch paths for tests that touch the filesystem.
//
// ctest runs every test case in its own process, and `ctest -j` runs
// those processes side by side: a fixed path under the temp directory
// would let one case delete or overwrite another's files.  The pid plus
// the running test's name keeps every process's paths apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>

namespace avoc {

/// temp_directory_path()/avoc_<tag>_<pid>_<suite>_<test>.
inline std::filesystem::path TestTempPath(std::string_view tag) {
  std::string leaf = "avoc_" + std::string(tag) + "_" +
                     std::to_string(::getpid());
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    leaf += "_";
    leaf += info->test_suite_name();
    leaf += "_";
    leaf += info->name();
  }
  // Parameterized names carry '/' separators.
  std::replace(leaf.begin(), leaf.end(), '/', '_');
  return std::filesystem::temp_directory_path() / leaf;
}

}  // namespace avoc
