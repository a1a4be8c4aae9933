#include "support/csv.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace exareq {
namespace {

// Splits one logical CSV record (which may span physical lines inside
// quotes) starting at the current stream position. Returns false at EOF
// with no data consumed.
bool read_record(std::istream& is, std::vector<std::string>& fields,
                 std::size_t record_index) {
  fields.clear();
  std::string field;
  bool in_quotes = false;
  bool any = false;
  int ch;
  while ((ch = is.get()) != EOF) {
    any = true;
    const char c = static_cast<char>(ch);
    if (in_quotes) {
      if (c == '"') {
        if (is.peek() == '"') {
          field.push_back('"');
          is.get();
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      break;
    } else if (c == '\r') {
      if (is.peek() == '\n') is.get();
      break;
    } else {
      field.push_back(c);
    }
  }
  if (!any) return false;
  if (in_quotes) {
    throw InvalidArgument("CsvDocument::parse: unterminated quoted field in " +
                          (record_index == 0
                               ? std::string("the header")
                               : "row " + std::to_string(record_index)));
  }
  fields.push_back(std::move(field));
  return true;
}

}  // namespace

CsvDocument::CsvDocument(std::vector<std::string> header)
    : header_(std::move(header)) {
  require(!header_.empty(), "CsvDocument: header must not be empty");
  // Duplicate column names make column_index silently ambiguous — every
  // consumer would read whichever duplicate comes first. Headers are short
  // (tens of columns), so the quadratic scan is fine.
  for (std::size_t i = 0; i < header_.size(); ++i) {
    for (std::size_t j = i + 1; j < header_.size(); ++j) {
      if (header_[i] == header_[j]) {
        throw InvalidArgument("CsvDocument: duplicate column '" + header_[i] +
                              "' (columns " + std::to_string(i + 1) + " and " +
                              std::to_string(j + 1) + ")");
      }
    }
  }
}

std::size_t CsvDocument::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw InvalidArgument("CsvDocument: no column named '" + name + "'");
}

void CsvDocument::add_row(std::vector<std::string> cells) {
  require(cells.size() == header_.size(), "CsvDocument::add_row: width mismatch");
  rows_.push_back(std::move(cells));
}

double CsvDocument::number_at(std::size_t row, std::size_t column) const {
  require(row < rows_.size() && column < header_.size(),
          "CsvDocument::number_at: index out of range");
  const std::string& cell = rows_[row][column];
  const auto context = [&] {
    return "row " + std::to_string(row + 1) + ", column '" + header_[column] +
           "' (index " + std::to_string(column + 1) + ")";
  };
  double value = 0.0;
  const auto* begin = cell.data();
  const auto* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw InvalidArgument("CsvDocument::number_at: cell '" + cell + "' at " +
                          context() + " is not a number");
  }
  // from_chars accepts "nan" and "inf" spellings; a measurement file
  // carrying them is corrupt, and letting them through poisons every
  // downstream fit silently.
  if (!std::isfinite(value)) {
    throw InvalidArgument("CsvDocument::number_at: cell '" + cell + "' at " +
                          context() + " is not a finite number");
  }
  return value;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvDocument::write(std::ostream& os) const {
  const auto emit = [&os](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) os << ',';
      os << csv_escape(cells[i]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string CsvDocument::to_string() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

CsvDocument CsvDocument::parse(std::istream& is) {
  std::vector<std::string> fields;
  require(read_record(is, fields, 0), "CsvDocument::parse: empty input");
  CsvDocument doc(fields);
  for (std::size_t row = 1; read_record(is, fields, row); ++row) {
    if (fields.size() != doc.column_count()) {
      throw InvalidArgument("CsvDocument::parse: ragged row " +
                            std::to_string(row) + " (expected " +
                            std::to_string(doc.column_count()) +
                            " fields, got " + std::to_string(fields.size()) +
                            ")");
    }
    doc.add_row(fields);
  }
  return doc;
}

CsvDocument CsvDocument::parse_string(const std::string& text) {
  std::istringstream is(text);
  return parse(is);
}

}  // namespace exareq
