#ifndef MTDB_TESTS_SCRATCH_DIR_H_
#define MTDB_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace mtdb {

/// An empty directory for one durable test, private to this process:
/// `::testing::TempDir()` + `name` + the process id, so two test runs at
/// once (two ctest invocations, or two build trees) never share one.
/// Anything already at the path is removed first, and every directory
/// handed out is removed when the test process exits.
inline std::string FreshScratchDir(const std::string& name) {
  struct Registry {
    std::vector<std::string> dirs;
    ~Registry() {
      for (const std::string& dir : dirs) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
    }
  };
  static Registry registry;
  std::string dir = ::testing::TempDir() + name + "." +
                    std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  registry.dirs.push_back(dir);
  return dir;
}

}  // namespace mtdb

#endif  // MTDB_TESTS_SCRATCH_DIR_H_
