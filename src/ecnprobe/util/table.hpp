// Plain-text table and CSV rendering for the benchmark harness. Every
// table/figure reproduction prints a TextTable with the same rows the paper
// reports, plus a CSV dump for plotting.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace ecnprobe::util {

/// Column-aligned plain-text table.
class TextTable {
public:
  enum class Align { Left, Right };

  explicit TextTable(std::vector<std::string> headers,
                     std::vector<Align> aligns = {});

  /// Adds a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats each cell with to_string-like rules.
  void add_row_values(std::initializer_list<double> cells, int precision = 2);

  std::size_t rows() const { return rows_.size(); }
  std::string to_string() const;
  void print(std::ostream& os) const;

private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Minimal CSV writer with RFC 4180 quoting.
class CsvWriter {
public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& cells);

  /// One cell as write_row emits it: RFC 4180-quoted when it holds a comma,
  /// quote or line break, verbatim otherwise.
  static std::string escape(const std::string& cell);

private:
  std::ostream& os_;
};

}  // namespace ecnprobe::util
