// Cross-commit goldens: checked-in bytes under tests/golden/
// (PSLOCAL_GOLDEN_DIR) that a test produces again and compares.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace pslocal::golden {

/// The bytes of tests/golden/<name>.
inline std::string read(const std::string& name) {
  std::ifstream in(std::string(PSLOCAL_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fails unless `actual` equals tests/golden/<name>.  On a mismatch the
/// produced bytes go to <name>.actual in the working directory; after a
/// deliberate change, review that file and copy it over the golden.
inline void expect_matches(const std::string& name,
                           const std::string& actual) {
  if (actual == read(name)) return;
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from the golden; the produced bytes "
                << "are in " << name << ".actual";
}

}  // namespace pslocal::golden
