// Tests for experiment file I/O and synthetic data generation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <utility>

#include "data/experiment.hpp"
#include "data/synthetic.hpp"

namespace rms::data {
namespace {

TEST(ExperimentFormat, RoundTrip) {
  ExperimentData data;
  data.name = "formulation-03";
  data.property = "crosslink-concentration";
  for (int i = 0; i < 100; ++i) {
    data.times.push_back(0.1 * i);
    data.values.push_back(std::sin(0.1 * i));
  }
  const std::string text = format_experiment(data);
  auto parsed = parse_experiment(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->name, "formulation-03");
  EXPECT_EQ(parsed->property, "crosslink-concentration");
  ASSERT_EQ(parsed->record_count(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(parsed->times[i], data.times[i], 1e-7);
    EXPECT_NEAR(parsed->values[i], data.values[i], 1e-7);
  }
}

TEST(ExperimentFormat, ParsesCommentsAndBlankLines) {
  auto parsed = parse_experiment(
      "# rms-experiment v1\n"
      "\n"
      "# free comment\n"
      "0.0 1.0\n"
      "1.0 2.0\n");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->record_count(), 2u);
}

TEST(ExperimentFormat, RejectsMalformedLines) {
  EXPECT_FALSE(parse_experiment("0.0\n").is_ok());
  EXPECT_FALSE(parse_experiment("0.0 1.0 2.0\n").is_ok());
  EXPECT_FALSE(parse_experiment("abc def\n").is_ok());
  EXPECT_FALSE(parse_experiment("").is_ok());
}

TEST(ExperimentFormat, RejectsNonIncreasingTimes) {
  EXPECT_FALSE(parse_experiment("0.0 1.0\n0.0 2.0\n").is_ok());
  EXPECT_FALSE(parse_experiment("1.0 1.0\n0.5 2.0\n").is_ok());
}

TEST(ExperimentFormat, RejectsNonFiniteRecords) {
  // A NaN time compares false with everything, so the ordering check alone
  // let both it and the next line through.
  const std::pair<const char*, const char*> cases[] = {
      {"0.0 1.0\nnan 2.0\n3.0 3.0\n", "line 2:"},
      {"0.0 1.0\n1.0 2.0\ninf 3.0\n", "line 3:"},
      {"0.0 1.0\n1.0 -inf\n2.0 3.0\n", "line 2:"},
      {"# header\n0.0 NaN\n2.0 3.0\n", "line 2:"},
      {"0.0 1.0\n1.0 1e999\n2.0 3.0\n", "line 2:"},
      {"-1e400 3.0\n0.0 1.0\n", "line 1:"},
      {"0x1p2 0x1p-3\n+nan 1.0\n", "line 2:"},
  };
  for (const auto& [text, line] : cases) {
    auto parsed = parse_experiment(text);
    ASSERT_FALSE(parsed.is_ok()) << text;
    EXPECT_EQ(parsed.status().code(), support::StatusCode::kParseError);
    EXPECT_NE(parsed.status().message().find(line), std::string::npos)
        << text << ": " << parsed.status().message();
  }
  // Finite extremes and the strtod-only syntaxes still parse.
  auto parsed = parse_experiment("-1e-400 4.9e-324\n0x1p2 +1.5\n1e308 -0.0\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->times, (std::vector<double>{-0.0, 4.0, 1e308}));
  EXPECT_EQ(parsed->values, (std::vector<double>{4.9e-324, 1.5, -0.0}));
}

TEST(ExperimentFile, WriteAndReadBack) {
  ExperimentData data;
  data.name = "disk-test";
  data.times = {0.0, 1.0, 2.0};
  data.values = {0.5, 0.6, 0.7};
  const std::string path = "/tmp/rms_experiment_test.txt";
  ASSERT_TRUE(write_experiment_file(path, data).is_ok());
  auto back = read_experiment_file(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->record_count(), 3u);
  EXPECT_EQ(back->name, "disk-test");
  std::remove(path.c_str());
}

TEST(ExperimentFile, MissingFileReported) {
  auto result = read_experiment_file("/nonexistent/path/xyz.txt");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), support::StatusCode::kNotFound);
}

TEST(Observable, MeasuresWeightedSum) {
  Observable obs;
  obs.weighted_species = {{0, 1.0}, {2, 2.0}};
  EXPECT_DOUBLE_EQ(obs.measure({3.0, 99.0, 0.5}), 4.0);
}

TEST(Synthetic, ExponentialDecayCurve) {
  solver::OdeSystem system{1, [](double, const double* y, double* ydot) {
                             ydot[0] = -2.0 * y[0];
                           }};
  Observable obs;
  obs.weighted_species = {{0, 1.0}};
  SyntheticOptions options;
  options.t_end = 1.0;
  options.record_count = 101;
  auto data = synthesize_experiment(system, {1.0}, obs, options, "decay");
  ASSERT_TRUE(data.is_ok()) << data.status().to_string();
  EXPECT_EQ(data->record_count(), 101u);
  EXPECT_EQ(data->name, "decay");
  // Values track the exact solution.
  for (std::size_t i = 0; i < data->record_count(); i += 10) {
    EXPECT_NEAR(data->values[i], std::exp(-2.0 * data->times[i]), 1e-4);
  }
}

TEST(Synthetic, NoiseIsReproducibleAndBounded) {
  solver::OdeSystem system{1, [](double, const double* y, double* ydot) {
                             ydot[0] = -y[0];
                           }};
  Observable obs;
  obs.weighted_species = {{0, 1.0}};
  SyntheticOptions options;
  options.record_count = 200;
  options.t_end = 2.0;
  options.noise_level = 0.01;
  options.noise_seed = 7;
  auto a = synthesize_experiment(system, {1.0}, obs, options);
  auto b = synthesize_experiment(system, {1.0}, obs, options);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  double max_diff_ab = 0.0;
  double max_noise = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    max_diff_ab = std::max(max_diff_ab, std::fabs(a->values[i] - b->values[i]));
    max_noise = std::max(
        max_noise, std::fabs(a->values[i] - std::exp(-a->times[i])));
  }
  EXPECT_EQ(max_diff_ab, 0.0);  // same seed, same noise
  EXPECT_GT(max_noise, 0.0);    // noise present
  EXPECT_LT(max_noise, 0.1);    // but small
}

TEST(Synthetic, PaperScaleRecordCount) {
  // The paper's files hold "more than 3000 records".
  solver::OdeSystem system{1, [](double, const double* y, double* ydot) {
                             ydot[0] = -y[0];
                           }};
  Observable obs;
  obs.weighted_species = {{0, 1.0}};
  SyntheticOptions options;  // default record_count = 3200
  auto data = synthesize_experiment(system, {1.0}, obs, options);
  ASSERT_TRUE(data.is_ok());
  EXPECT_GT(data->record_count(), 3000u);
}

TEST(Synthetic, RejectsTooFewRecords) {
  solver::OdeSystem system{1, [](double, const double*, double* ydot) {
                             ydot[0] = 0.0;
                           }};
  Observable obs;
  SyntheticOptions options;
  options.record_count = 1;
  EXPECT_FALSE(synthesize_experiment(system, {1.0}, obs, options).is_ok());
}

}  // namespace
}  // namespace rms::data
