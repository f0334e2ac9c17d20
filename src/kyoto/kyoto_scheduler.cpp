#include "kyoto/kyoto_scheduler.hpp"

#include "kyoto/ks4linux.hpp"
#include "kyoto/ks4pisces.hpp"
#include "kyoto/ks4xen.hpp"

namespace kyoto::core {

const PollutionController* kyoto_controller(hv::Scheduler& scheduler) {
  if (auto* ks = dynamic_cast<Ks4Xen*>(&scheduler)) return &ks->kyoto();
  if (auto* ks = dynamic_cast<Ks4Linux*>(&scheduler)) return &ks->kyoto();
  if (auto* ks = dynamic_cast<Ks4Pisces*>(&scheduler)) return &ks->kyoto();
  return nullptr;
}

}  // namespace kyoto::core
