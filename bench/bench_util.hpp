// Shared plumbing for bench_reproduce's figures and the engineering
// benches (bench_churn, bench_ablation_monitors).
//
// Every figure prints: a header identifying the paper artifact it
// regenerates and the expected shape, the reproduced rows/series as
// an ASCII table (plus bars where the paper uses bar charts), and a
// PASS/CHECK verdict line per acceptance criterion.
//
// Set KYOTO_BENCH_QUICK=1 to shrink measurement windows ~3x (CI mode).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "common/units.hpp"

namespace kyoto::bench {

inline bool quick_mode() {
  const char* env = std::getenv("KYOTO_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Window length adjusted for quick mode.
inline Tick ticks(Tick full) { return quick_mode() ? std::max<Tick>(full / 3, 9) : full; }

inline void header(const std::string& id, const std::string& title,
                   const std::string& expectation) {
  std::cout << "\n==================================================================\n"
            << id << " — " << title << '\n'
            << "Paper expectation: " << expectation << '\n'
            << "==================================================================\n\n";
}

/// Prints one acceptance-criterion verdict.
inline bool check(const std::string& what, bool ok) {
  std::cout << (ok ? "  [PASS] " : "  [CHECK FAILED] ") << what << '\n';
  return ok;
}

/// Common exit: 0 when all checks passed, 1 otherwise.
inline int verdict(bool all_ok) {
  std::cout << (all_ok ? "\nAll shape checks passed.\n" : "\nSome shape checks FAILED.\n");
  return all_ok ? 0 : 1;
}

}  // namespace kyoto::bench
