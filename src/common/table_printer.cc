#include "common/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/macros.h"

namespace atnn {

void TablePrinter::SetHeader(std::vector<std::string> header) {
  ATNN_CHECK(!header.empty());
  header_ = std::move(header);
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  ATNN_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Num(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string TablePrinter::ToString() const {
  ATNN_CHECK(!header_.empty()) << "SetHeader must be called before ToString";
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_separator = [&widths]() {
    std::string line = "+";
    for (size_t width : widths) {
      line += std::string(width + 2, '-');
      line += "+";
    }
    line += "\n";
    return line;
  };
  auto render_row = [&widths](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (size_t c = 0; c < cells.size(); ++c) {
      line += " " + cells[c] + std::string(widths[c] - cells[c].size(), ' ') +
              " |";
    }
    line += "\n";
    return line;
  };

  std::ostringstream out;
  if (!title_.empty()) out << title_ << "\n";
  out << render_separator() << render_row(header_) << render_separator();
  for (const auto& row : rows_) out << render_row(row);
  out << render_separator();
  return out.str();
}

void TablePrinter::Print() const { std::cout << ToString() << std::flush; }

}  // namespace atnn
