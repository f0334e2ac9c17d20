// KS4Xen: the Kyoto scheduler for Xen (§3.2) — the credit scheduler
// plus the pollution controller.  A punished VM cannot use the
// processor at all until its quota recovers: its vCPUs leave both the
// UNDER and the OVER band, so its core idles rather than run it.
// Weights, caps and the UNDER/OVER order among unpunished vCPUs are
// Xen's, unchanged.
#pragma once

#include "hv/credit_scheduler.hpp"
#include "kyoto/kyoto_scheduler.hpp"

namespace kyoto::core {

inline constexpr char kKs4XenName[] = "KS4Xen";
using Ks4Xen = KyotoScheduler<hv::CreditScheduler, kKs4XenName>;

}  // namespace kyoto::core
