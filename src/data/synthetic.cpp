#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "solver/adams_gear.hpp"
#include "support/rng.hpp"

namespace rms::data {

support::Expected<ExperimentData> synthesize_experiment(
    const solver::OdeSystem& system, const std::vector<double>& y0,
    const Observable& observable, const SyntheticOptions& options,
    std::string name) {
  if (options.record_count < 2) {
    return support::invalid_argument("record_count must be >= 2");
  }
  ExperimentData data;
  data.name = std::move(name);
  data.property = "crosslink-concentration";
  data.times.reserve(options.record_count);
  data.values.reserve(options.record_count);

  solver::AdamsGear integrator(system, options.integration);
  integrator.set_output(&observable);
  RMS_RETURN_IF_ERROR(integrator.initialize(options.t_begin, y0));

  const double dt = (options.t_end - options.t_begin) /
                    static_cast<double>(options.record_count - 1);
  for (std::size_t i = 0; i < options.record_count; ++i) {
    // The first record is t_begin itself: the stored measure(y0).
    const double t = options.t_begin + dt * static_cast<double>(i);
    double value = 0.0;
    RMS_RETURN_IF_ERROR(integrator.advance_to_observed(t, value));
    data.times.push_back(t);
    data.values.push_back(value);
  }

  if (options.noise_level > 0.0) {
    const auto [lo, hi] =
        std::minmax_element(data.values.begin(), data.values.end());
    const double range = std::max(*hi - *lo, 1e-12);
    support::Xoshiro256 rng(options.noise_seed);
    for (double& v : data.values) {
      v += options.noise_level * range * rng.normal();
    }
  }
  return data;
}

}  // namespace rms::data
