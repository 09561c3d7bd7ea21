// A temporary directory for one test, removed with everything in it when the
// object goes out of scope.  The name carries the process id and a
// per-process counter, so concurrent test processes (ctest -j) and
// successive directories in one process never share a path.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace pg::test_support {

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("pg_test_" + std::to_string(static_cast<long>(::getpid())) +
             "_" + std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  std::string str() const { return path_.string(); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace pg::test_support
