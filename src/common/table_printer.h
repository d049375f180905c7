#ifndef ATNN_COMMON_TABLE_PRINTER_H_
#define ATNN_COMMON_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace atnn {

/// Renders aligned ASCII tables for the benchmark harnesses so bench output
/// visually matches the rows the paper reports.
class TablePrinter {
 public:
  explicit TablePrinter(std::string title) : title_(std::move(title)) {}

  /// Sets the header row (defines the column count).
  void SetHeader(std::vector<std::string> header);

  /// Appends a data row; must match the header width.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string Num(double value, int precision = 4);

  /// Renders the table with box-drawing separators.
  std::string ToString() const;

  /// Prints ToString() to stdout.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace atnn

#endif  // ATNN_COMMON_TABLE_PRINTER_H_
