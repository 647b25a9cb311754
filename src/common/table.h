// Plain-text table emission used by the bench harness to print the
// rows/series the paper's figures and tables report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace hypertune {

/// Column-aligned text table with optional markdown framing.
///
/// Cells are strings; numeric formatting is the caller's concern (see
/// FormatDouble below). Rows shorter than the header are padded with "".
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  std::size_t NumRows() const { return rows_.size(); }

  /// Renders as a GitHub-flavored markdown table.
  std::string ToMarkdown() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double formatting ("%.*f") without locale surprises.
std::string FormatDouble(double value, int precision = 4);

/// Writes `content` to `path` atomically (write to a sibling temp file,
/// then rename over the target), creating parent directories if needed. A
/// crash mid-write leaves either the old file or the new one, never a torn
/// half — results exports and telemetry dumps stay loadable. Returns false
/// (and leaves the destination untouched) on failure; bench binaries treat
/// output files as best-effort and still print to stdout.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace hypertune
