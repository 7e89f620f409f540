#include "hdlsim/sim_counters.hpp"

#include <string>

#include "obs/registry.hpp"

namespace scflow::hdlsim {

void WorkerShardStats::record_into(scflow::obs::Registry& reg, std::string_view prefix) const {
  const std::string p = std::string(prefix) + ".";
  reg.set_counter(p + "evaluations", evaluations);
  reg.set_counter(p + "dirty_pushes", dirty_pushes);
  reg.set_counter(p + "level_sweeps", level_sweeps);
}

}  // namespace scflow::hdlsim
