// KS4Linux: the Kyoto scheduler for the Linux CFS (KVM vCPU threads).
// A punished VM's vCPU tasks are not eligible for pick() until their
// quota recovers, the way CFS bandwidth control throttles cgroups.
#pragma once

#include "hv/cfs_scheduler.hpp"
#include "kyoto/kyoto_scheduler.hpp"

namespace kyoto::core {

inline constexpr char kKs4LinuxName[] = "KS4Linux";
using Ks4Linux = KyotoScheduler<hv::CfsScheduler, kKs4LinuxName>;

}  // namespace kyoto::core
