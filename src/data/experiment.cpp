#include "data/experiment.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/strings.hpp"

namespace rms::data {

using support::Status;

namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// A trimmed record line "<t> <value>" parsed in place. from_chars accepts a
/// subset of what strtod does and rounds the same way (correctly), so a line
/// it takes parses to the bits the general route would give; false sends
/// the line to that route, which decides whether it is malformed.
bool parse_record(std::string_view line, double& t, double& v) {
  const char* const end = line.data() + line.size();
  auto [p, ec] = std::from_chars(line.data(), end, t);
  if (ec != std::errc() || p == end || !is_space(*p)) return false;
  while (p != end && is_space(*p)) ++p;
  const auto second = std::from_chars(p, end, v);
  return second.ec == std::errc() && second.ptr == end;
}

}  // namespace

support::Expected<ExperimentData> parse_experiment(const std::string& text) {
  ExperimentData data;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string_view line = support::trim(
        std::string_view(text).substr(start, end - start));
    start = end + 1;
    ++line_number;
    if (line.empty()) {
      if (start > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      std::string_view body = support::trim(line.substr(1));
      if (support::starts_with(body, "name:")) {
        data.name = std::string(support::trim(body.substr(5)));
      } else if (support::starts_with(body, "property:")) {
        data.property = std::string(support::trim(body.substr(9)));
      }
      continue;
    }
    double t = 0.0;
    double v = 0.0;
    if (!parse_record(line, t, v)) {
      // Hexadecimal, a leading '+', out-of-range magnitudes and malformed
      // lines: split on whitespace and read each field with strtod.
      auto fields = support::split_whitespace(line);
      if (fields.size() != 2) {
        return support::parse_error(support::str_format(
            "experiment line %zu: expected '<t> <value>'", line_number));
      }
      if (!support::parse_double(fields[0], t) ||
          !support::parse_double(fields[1], v)) {
        return support::parse_error(support::str_format(
            "experiment line %zu: malformed number", line_number));
      }
    }
    // A NaN time would pass the ordering check below (every comparison
    // with NaN is false), and any non-finite number only fails later, as a
    // failed solve or a NaN cost.
    if (!std::isfinite(t) || !std::isfinite(v)) {
      return support::parse_error(support::str_format(
          "experiment line %zu: non-finite number", line_number));
    }
    if (!data.times.empty() && t <= data.times.back()) {
      return support::parse_error(support::str_format(
          "experiment line %zu: times must be strictly increasing",
          line_number));
    }
    data.times.push_back(t);
    data.values.push_back(v);
  }
  if (data.times.empty()) {
    return support::parse_error("experiment file contains no records");
  }
  return data;
}

support::Expected<ExperimentData> read_experiment_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return support::not_found("cannot open experiment file: " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_experiment(buffer.str());
}

std::string format_experiment(const ExperimentData& data) {
  std::string out = "# rms-experiment v1\n";
  if (!data.name.empty()) out += "# name: " + data.name + "\n";
  if (!data.property.empty()) out += "# property: " + data.property + "\n";
  for (std::size_t i = 0; i < data.times.size(); ++i) {
    out += support::str_format("%.9g %.9g\n", data.times[i], data.values[i]);
  }
  return out;
}

Status write_experiment_file(const std::string& path,
                             const ExperimentData& data) {
  std::ofstream out(path);
  if (!out) {
    return support::invalid_argument("cannot open for writing: " + path);
  }
  out << format_experiment(data);
  return out.good() ? Status::ok()
                    : support::internal_error("write failed: " + path);
}

}  // namespace rms::data
