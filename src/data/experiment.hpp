// Experimental data files.
//
// Each file holds the time evolution of one measured property for one rubber
// formulation — ">3000 records of the form <t_i, property value>" (paper
// §4.3). The on-disk format is line-oriented:
//
//   # rms-experiment v1
//   # name: formulation-03
//   # property: crosslink-concentration
//   0.000000 0.000000
//   0.120000 0.004513
//   ...
//
// Comment lines start with '#'; the "name:"/"property:" headers are
// optional metadata. Every record holds two finite numbers in strtod syntax,
// and times increase strictly.
#pragma once

#include <string>
#include <vector>

#include "support/status.hpp"

namespace rms::data {

struct ExperimentData {
  std::string name;
  std::string property;
  std::vector<double> times;   ///< strictly increasing
  std::vector<double> values;  ///< same length as times

  [[nodiscard]] std::size_t record_count() const { return times.size(); }
};

/// Parses the experiment file format from a string.
support::Expected<ExperimentData> parse_experiment(const std::string& text);

/// Reads an experiment file from disk.
support::Expected<ExperimentData> read_experiment_file(const std::string& path);

/// Serializes to the file format.
std::string format_experiment(const ExperimentData& data);

/// Writes to disk (overwrites).
support::Status write_experiment_file(const std::string& path,
                                      const ExperimentData& data);

}  // namespace rms::data
