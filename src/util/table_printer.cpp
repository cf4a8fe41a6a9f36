#include "util/table_printer.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace ibarb::util {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  assert(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TablePrinter::pct(double fraction, int precision) {
  return num(fraction * 100.0, precision) + "%";
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto rule = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  const auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c)
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << cells[c] << " |";
    os << '\n';
  };

  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

}  // namespace ibarb::util
