#include "gates.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "serve/query_engine.hpp"

namespace perfbench {

using namespace exareq;

namespace {

ModelShape shape_of(const model::Model& fitted) {
  ModelShape shape;
  shape.coefficients.push_back(fitted.constant());
  for (const model::Term& term : fitted.terms()) {
    if (!shape.terms.empty()) shape.terms += " + ";
    shape.terms += term.to_string(fitted.parameter_names());
    shape.coefficients.push_back(term.coefficient);
  }
  if (shape.terms.empty()) shape.terms = "constant";
  return shape;
}

std::string render_double(double value) {
  char text[64];
  const auto result = std::to_chars(text, text + sizeof text, value);
  return std::string(text, result.ptr);
}

std::vector<std::string> split(const std::string& line, char separator) {
  std::vector<std::string> fields;
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, separator)) fields.push_back(field);
  return fields;
}

}  // namespace

AppShapes describe_models(const pipeline::RequirementModels& models) {
  AppShapes shapes;
  const std::pair<const char*, pipeline::Metric> metrics[] = {
      {"bytes_used", pipeline::Metric::kBytesUsed},
      {"flops", pipeline::Metric::kFlops},
      {"bytes_sent_received", pipeline::Metric::kBytesSentReceived},
      {"loads_stores", pipeline::Metric::kLoadsStores},
      {"stack_distance", pipeline::Metric::kStackDistance},
      {"io_bytes", pipeline::Metric::kIoBytes},
      {"energy_proxy", pipeline::Metric::kEnergyProxy}};
  for (const auto& [name, metric] : metrics) {
    shapes[name] = shape_of(models.result(metric).model);
  }
  for (const pipeline::ChannelModel& channel : models.comm_channels) {
    shapes["chan:" + channel.name] = shape_of(channel.fit.model);
  }
  return shapes;
}

Reference Reference::load(const std::string& dir) {
  Reference reference;
  std::ifstream digests(dir + "/csv_digests.txt");
  std::string line;
  while (std::getline(digests, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split(line, ' ');
    if (fields.size() == 2) reference.csv_digests[fields[0]] = fields[1];
  }
  std::ifstream models(dir + "/models.txt");
  while (std::getline(models, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split(line, '\t');
    if (fields.size() != 4) continue;
    ModelShape shape;
    shape.terms = fields[2];
    for (const std::string& cell : split(fields[3], ' ')) {
      double value = 0.0;
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
      shape.coefficients.push_back(value);
    }
    reference.models[fields[0]][fields[1]] = shape;
  }
  return reference;
}

void Reference::save(const std::string& dir) const {
  make_dirs(dir);
  std::ofstream digests(dir + "/csv_digests.txt");
  digests << "# FNV-1a 64 of each app's campaign CSV on the paper's 5x5 grid\n";
  for (const auto& [app, digest] : csv_digests) {
    digests << app << ' ' << digest << '\n';
  }
  std::ofstream models_file(dir + "/models.txt");
  models_file << "# app\tmetric\tselected terms\tconstant and term "
                 "coefficients\n";
  for (const auto& [app, shapes] : models) {
    for (const auto& [metric, shape] : shapes) {
      models_file << app << '\t' << metric << '\t' << shape.terms << '\t';
      for (std::size_t i = 0; i < shape.coefficients.size(); ++i) {
        models_file << (i ? " " : "") << render_double(shape.coefficients[i]);
      }
      models_file << '\n';
    }
  }
}

std::string check_csv_digest(const Reference& reference, const std::string& app,
                             const std::string& csv_text) {
  const auto it = reference.csv_digests.find(app);
  if (it == reference.csv_digests.end()) {
    return app + ": no reference CSV digest";
  }
  const std::string digest = digest_hex(csv_text);
  if (digest != it->second) {
    return app + ": campaign CSV digest " + digest + " != reference " +
           it->second;
  }
  return "";
}

std::string check_models(const Reference& reference, const std::string& app,
                         const AppShapes& shapes, double relative_tolerance) {
  const auto it = reference.models.find(app);
  if (it == reference.models.end()) return app + ": no reference models";
  const AppShapes& expected = it->second;
  if (expected.size() != shapes.size()) {
    return app + ": " + std::to_string(shapes.size()) + " fitted metrics, " +
           std::to_string(expected.size()) + " in the reference";
  }
  for (const auto& [metric, want] : expected) {
    const auto got = shapes.find(metric);
    if (got == shapes.end()) return app + ": metric " + metric + " missing";
    if (got->second.terms != want.terms ||
        got->second.coefficients.size() != want.coefficients.size()) {
      return app + " " + metric + ": selected '" + got->second.terms +
             "', reference '" + want.terms + "'";
    }
    for (std::size_t i = 0; i < want.coefficients.size(); ++i) {
      const double a = got->second.coefficients[i];
      const double b = want.coefficients[i];
      if (std::abs(a - b) > relative_tolerance * std::max(std::abs(a), std::abs(b))) {
        return app + " " + metric + ": coefficient " + std::to_string(i) +
               " is " + render_double(a) + ", reference " + render_double(b);
      }
    }
  }
  return "";
}

std::string check_served_answer(serve::ModelRegistry& registry,
                                const serve::Request& request,
                                const std::string& response) {
  if (response.rfind("ok", 0) != 0) {
    return "serve: '" + serve::canonical_key(request) + "' answered '" +
           response + "'";
  }
  serve::QueryEngine fresh(registry);
  const std::string expected = fresh.answer(request);
  if (expected != response) {
    return "serve: '" + serve::canonical_key(request) + "' answered '" +
           response + "', a fresh engine '" + expected + "'";
  }
  return "";
}

}  // namespace perfbench
