#include "model/serialize.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace exareq::model {
namespace {

std::string full_precision(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

double parse_double(const std::string& token, const char* what) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw exareq::InvalidArgument(std::string("parse_model: bad number in ") +
                                  what + ": '" + token + "'");
  }
  return value;
}

std::size_t parse_index(const std::string& token, std::size_t limit,
                        const char* what) {
  const double value = parse_double(token, what);
  const auto index = static_cast<std::size_t>(value);
  if (static_cast<double>(index) != value || index >= limit) {
    throw exareq::InvalidArgument(
        std::string("parse_model: bad parameter index in ") + what);
  }
  return index;
}

SpecialFn special_from_name(const std::string& name) {
  if (name == "allreduce") return SpecialFn::kAllreduce;
  if (name == "bcast") return SpecialFn::kBcast;
  if (name == "alltoall") return SpecialFn::kAlltoall;
  throw exareq::InvalidArgument("parse_model: unknown special function '" +
                                name + "'");
}

std::string special_to_name(SpecialFn fn) {
  switch (fn) {
    case SpecialFn::kAllreduce:
      return "allreduce";
    case SpecialFn::kBcast:
      return "bcast";
    case SpecialFn::kAlltoall:
      return "alltoall";
    case SpecialFn::kNone:
      break;
  }
  throw exareq::InvalidArgument("serialize_model: kNone is not serializable");
}

}  // namespace

std::string serialize_model(const Model& m) {
  std::ostringstream os;
  os << "model v1\n";
  os << "params";
  for (const std::string& name : m.parameter_names()) os << ' ' << name;
  os << '\n';
  os << "constant " << full_precision(m.constant()) << '\n';
  for (const Term& term : m.terms()) {
    os << "term " << full_precision(term.coefficient);
    for (const Factor& factor : term.factors) {
      if (factor.special != SpecialFn::kNone) {
        os << " special " << factor.parameter << ' '
           << special_to_name(factor.special);
      } else {
        os << " pmnf " << factor.parameter << ' '
           << full_precision(factor.poly_exponent) << ' '
           << full_precision(factor.log_exponent);
      }
    }
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

Model parse_model(const std::string& text) {
  std::istringstream is(text);
  std::string line;

  const auto next_line = [&is, &line](const char* expectation) {
    while (std::getline(is, line)) {
      if (!line.empty() && line.find_first_not_of(" \t\r") != std::string::npos) {
        return;
      }
    }
    throw exareq::InvalidArgument(std::string("parse_model: missing ") +
                                  expectation);
  };

  next_line("header");
  exareq::require(line == "model v1",
                  "parse_model: expected 'model v1' header, got '" + line + "'");

  next_line("params line");
  std::istringstream params_line(line);
  std::string token;
  params_line >> token;
  exareq::require(token == "params", "parse_model: expected 'params' line");
  std::vector<std::string> names;
  while (params_line >> token) names.push_back(token);
  exareq::require(!names.empty(), "parse_model: no parameters");

  next_line("constant line");
  std::istringstream constant_line(line);
  constant_line >> token;
  exareq::require(token == "constant", "parse_model: expected 'constant' line");
  constant_line >> token;
  const double constant = parse_double(token, "constant");

  std::vector<Term> terms;
  for (;;) {
    next_line("'term' or 'end' line");
    std::istringstream term_line(line);
    term_line >> token;
    if (token == "end") break;
    exareq::require(token == "term", "parse_model: expected 'term' or 'end'");
    Term term;
    term_line >> token;
    term.coefficient = parse_double(token, "term coefficient");
    std::string kind;
    while (term_line >> kind) {
      if (kind == "pmnf") {
        std::string parameter, poly, log;
        exareq::require(static_cast<bool>(term_line >> parameter >> poly >> log),
                        "parse_model: truncated pmnf factor");
        term.factors.push_back(
            pmnf_factor(parse_index(parameter, names.size(), "pmnf factor"),
                        parse_double(poly, "poly exponent"),
                        parse_double(log, "log exponent")));
      } else if (kind == "special") {
        std::string parameter, name;
        exareq::require(static_cast<bool>(term_line >> parameter >> name),
                        "parse_model: truncated special factor");
        term.factors.push_back(special_factor(
            parse_index(parameter, names.size(), "special factor"),
            special_from_name(name)));
      } else {
        throw exareq::InvalidArgument("parse_model: unknown factor kind '" +
                                      kind + "'");
      }
    }
    terms.push_back(std::move(term));
  }
  return Model(std::move(names), constant, std::move(terms));
}

namespace {

const char* const kBundleHeaderPrefix = "exareq requirement models:";
const char* const kFormatPrefix = "format";

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

}  // namespace

std::string serialize_bundle(const ModelBundle& bundle) {
  std::ostringstream os;
  os << "# " << kBundleHeaderPrefix << ' ' << bundle.name << '\n';
  os << "# " << kFormatPrefix << ' ' << bundle.format_version << '\n';
  for (const auto& [label, m] : bundle.models) {
    os << "# " << label << '\n' << serialize_model(m);
  }
  return os.str();
}

ModelBundle parse_bundle(const std::string& text) {
  ModelBundle bundle;
  // Files written before the format field existed carry no `# format` line
  // and are the original layout — format 1, not whatever this build writes.
  bundle.format_version = 1;
  std::istringstream is(text);
  std::string line;
  std::string pending_label;
  while (std::getline(is, line)) {
    const std::string content = trim(line);
    if (content.empty()) continue;
    if (content[0] == '#') {
      const std::string comment = trim(content.substr(1));
      if (comment.rfind(kBundleHeaderPrefix, 0) == 0) {
        bundle.name = trim(comment.substr(std::string(kBundleHeaderPrefix).size()));
      } else if (comment.rfind(std::string(kFormatPrefix) + ' ', 0) == 0) {
        // `# format <k>` must be recognized before the label fallback, or a
        // future file's version marker would silently become a model label.
        const std::string number =
            trim(comment.substr(std::string(kFormatPrefix).size()));
        const double value = parse_double(number, "bundle format version");
        const int version = static_cast<int>(value);
        exareq::require(static_cast<double>(version) == value && version >= 1,
                        "parse_bundle: bad format version '" + number + "'");
        exareq::require(
            version <= ModelBundle::kCurrentFormatVersion,
            "parse_bundle: bundle format " + std::to_string(version) +
                " is newer than this build supports (max format " +
                std::to_string(ModelBundle::kCurrentFormatVersion) +
                "); regenerate the file or upgrade exareq");
        bundle.format_version = version;
      } else {
        pending_label = comment;
      }
      continue;
    }
    // A model block runs from its "model v1" line through "end".
    exareq::require(content == "model v1",
                    "parse_bundle: expected '# label' or 'model v1', got '" +
                        content + "'");
    std::string block = content + '\n';
    bool closed = false;
    while (std::getline(is, line)) {
      block += line + '\n';
      if (trim(line) == "end") {
        closed = true;
        break;
      }
    }
    exareq::require(closed, "parse_bundle: model block without 'end'");
    std::string label = pending_label.empty()
                            ? "model" + std::to_string(bundle.models.size())
                            : pending_label;
    pending_label.clear();
    bundle.models.emplace_back(std::move(label), parse_model(block));
  }
  exareq::require(!bundle.models.empty(), "parse_bundle: no models in bundle");
  return bundle;
}

}  // namespace exareq::model
