#include "online/ingest.hpp"

#include <cmath>
#include <string>

#include "pipeline/campaign.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"

namespace exareq::online {
namespace {

void require_positive_integer(const exareq::CsvDocument& doc, std::size_t row,
                              std::size_t column, const char* what) {
  const double value = doc.number_at(row, column);
  if (value < 1.0 || value != std::floor(value)) {
    throw exareq::InvalidArgument(
        std::string("ingest row ") + std::to_string(row + 1) + ": " + what +
        " must be a positive integer, got '" + doc.rows()[row][column] + "'");
  }
}

void require_non_negative(double value, std::size_t row, const char* what) {
  if (!(value >= 0.0)) {
    throw exareq::InvalidArgument(std::string("ingest row ") +
                                  std::to_string(row + 1) + ": " + what +
                                  " must be non-negative");
  }
}

}  // namespace

std::vector<pipeline::AppMeasurement> parse_ingest_payload(
    const std::string& payload) {
  std::string csv = payload;
  for (char& c : csv) {
    if (c == ';') c = '\n';
  }
  const exareq::CsvDocument doc = exareq::CsvDocument::parse_string(csv);
  exareq::require(!doc.rows().empty(),
                  "ingest payload has a header but no measurement rows");
  // from_csv truncates fractional p/n silently; the wire path re-checks
  // them first so a malformed batch is rejected, not quietly rounded.
  const std::size_t p_col = doc.column_index("p");
  const std::size_t n_col = doc.column_index("n");
  for (std::size_t row = 0; row < doc.rows().size(); ++row) {
    require_positive_integer(doc, row, p_col, "process count p");
    require_positive_integer(doc, row, n_col, "problem size n");
  }
  pipeline::CampaignData data = pipeline::CampaignData::from_csv(doc, "ingest");
  for (std::size_t row = 0; row < data.measurements.size(); ++row) {
    const pipeline::AppMeasurement& m = data.measurements[row];
    require_non_negative(m.bytes_used, row, "bytes_used");
    require_non_negative(m.flops, row, "flops");
    require_non_negative(m.loads_stores, row, "loads_stores");
    require_non_negative(m.bytes_sent_received, row, "bytes_sent_received");
    require_non_negative(m.stack_distance, row, "stack_distance");
    require_non_negative(m.io_bytes, row, "io_bytes");
    require_non_negative(m.energy_proxy, row, "energy_proxy");
    for (const auto& [name, channel] : m.channels) {
      require_non_negative(channel.bytes, row,
                           ("channel '" + name + "' bytes").c_str());
    }
  }
  return std::move(data.measurements);
}

}  // namespace exareq::online
