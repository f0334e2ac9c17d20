// KS4Xen: the Kyoto scheduler for Xen (§3.2) — the credit scheduler
// plus the pollution controller.  A punished VM is forced to
// "priority OVER" until its quota recovers; weights, caps, UNDER/OVER
// and work conservation are Xen's, unchanged.
#pragma once

#include "hv/credit_scheduler.hpp"
#include "kyoto/kyoto_scheduler.hpp"

namespace kyoto::core {

inline constexpr char kKs4XenName[] = "KS4Xen";
using Ks4Xen = KyotoScheduler<hv::CreditScheduler, kKs4XenName>;

}  // namespace kyoto::core
