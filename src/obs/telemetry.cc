#include "obs/telemetry.h"

#include <map>

namespace scanraw {
namespace obs {

std::string Telemetry::ToJson() const {
  std::string out = "{\"metrics\":" + metrics_.ToJson();
  out += ",\"resource_samples\":" + resources_.ToJson();
  out += "}\n";
  return out;
}

std::string Telemetry::ToText() const {
  std::string out = metrics_.ToText();
  std::map<std::string_view, size_t> advice_tally;  // sorted by name
  for (const ResourceSample& s : resources_.Snapshot()) {
    ++advice_tally[AdviceName(s.advice)];
  }
  for (const auto& [advice, n] : advice_tally) {
    out += "resource.advice_samples." + std::string(advice) + " " +
           std::to_string(n) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace scanraw
