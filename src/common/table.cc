#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace hypertune {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  HT_CHECK(!header_.empty());
}

void TextTable::AddRow(std::vector<std::string> cells) {
  HT_CHECK_MSG(cells.size() <= header_.size(),
               "row has " << cells.size() << " cells, header has "
                          << header_.size());
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::ToMarkdown() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit_row = [&](std::ostringstream& os,
                      const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << " " << cells[c]
         << std::string(widths[c] - cells[c].size(), ' ') << " |";
    }
    os << "\n";
  };

  std::ostringstream os;
  emit_row(os, header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << std::string(widths[c] + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) emit_row(os, row);
  return os.str();
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
    if (ec) return false;
  }
  // Write-then-rename: the destination is only ever replaced by a fully
  // written file, so a crash mid-write can't leave a torn export behind.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace hypertune
