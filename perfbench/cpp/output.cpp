#include "output.h"

#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>

namespace perfbench {

void print_result(bool trace, bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& values) {
  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(std::string(defs[i].name));
    if (it == values.end() && !trace) {
      throw std::logic_error("end-to-end metric " + std::string(defs[i].name) + " not measured");
    }
    const double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      throw std::logic_error("metric " + std::string(defs[i].name) + " is not finite");
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    line += (i ? ", \"" : "\"") + std::string(defs[i].name) + "\": {\"value\": " + number +
            ", \"unit\": \"" + std::string(defs[i].unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
