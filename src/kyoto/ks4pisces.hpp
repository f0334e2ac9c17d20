// KS4Pisces: the Kyoto controller for the Pisces co-kernel.  Enclaves
// own their cores, so a punished enclave's cores idle until its quota
// recovers.  Fig 8
// evaluates it: vanilla Pisces leaves ~24% LLC-contention degradation
// on the table, KS4Pisces closes it.
#pragma once

#include "hv/pisces.hpp"
#include "kyoto/kyoto_scheduler.hpp"

namespace kyoto::core {

inline constexpr char kKs4PiscesName[] = "KS4Pisces";
using Ks4Pisces = KyotoScheduler<hv::PiscesScheduler, kKs4PiscesName>;

}  // namespace kyoto::core
