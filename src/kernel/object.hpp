// Named-object hierarchy, the minisc analogue of sc_object.
#pragma once

#include <string>

namespace minisc {

class Simulation;

/// Base for everything that lives in the design hierarchy (modules, signals,
/// ports, processes, clocks).  Objects register with their Simulation so the
/// kernel can elaborate and report on the full design.
class Object {
 public:
  Object(Simulation& sim, Object* parent, std::string name);
  virtual ~Object();

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& full_name() const { return full_name_; }
  [[nodiscard]] Object* parent() const { return parent_; }
  [[nodiscard]] Simulation& sim() const { return *sim_; }

 private:
  Simulation* sim_;
  Object* parent_;
  std::string name_;
  // Computed once at construction: the hierarchy above an object never
  // changes, and kernel-owned objects (processes) can outlive their
  // caller-owned parent modules — walking parent_ later would be a
  // use-after-destruction.
  std::string full_name_;
};

}  // namespace minisc
