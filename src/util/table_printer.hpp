// ASCII table emission for the benchmark harness.
//
// Every bench binary prints the same rows/series as the paper's tables and
// figures; TablePrinter keeps the formatting consistent across them.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ibarb::util {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with fixed precision.
  static std::string num(double v, int precision = 3);
  static std::string pct(double fraction, int precision = 2);

  void print(std::ostream& os) const;  ///< Boxed ASCII table.

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ibarb::util
