// bench_reproduce — regenerates the paper's figures, Table 1 and the
// §6 ablations.
//
//   bench_reproduce [id ...]   run the named artifacts (all, in paper
//                              order, when none is named)
//   bench_reproduce --list     print the ids
//
// Each artifact prints a header naming what it regenerates and the
// expected shape, its tables, and one [PASS]/[CHECK FAILED] line per
// acceptance criterion.  Exit status: 0 when every check passed, 1
// when any failed, 2 on a usage error.  KYOTO_BENCH_QUICK=1 shrinks
// the measurement windows about 3x.
#include <cstring>
#include <iostream>
#include <vector>

#include "plan.hpp"

namespace {

struct Artifact {
  const char* id;
  int (*run)();
};

constexpr Artifact kArtifacts[] = {
    {"fig1", kyoto::bench::fig1},
    {"fig2", kyoto::bench::fig2},
    {"fig3", kyoto::bench::fig3},
    {"fig4", kyoto::bench::fig4},
    {"fig5", kyoto::bench::fig5},
    {"fig6", kyoto::bench::fig6},
    {"fig8", kyoto::bench::fig8},
    {"fig9", kyoto::bench::fig9},
    {"fig10", kyoto::bench::fig10},
    {"fig11", kyoto::bench::fig11},
    {"fig12", kyoto::bench::fig12},
    {"table1", kyoto::bench::table1},
    {"ablation-baselines", kyoto::bench::ablation_baselines},
    {"ablation-memsys", kyoto::bench::ablation_memsys},
    {"ablation-replacement", kyoto::bench::ablation_replacement},
};

int usage(const char* bad) {
  std::cerr << "unknown artifact: " << bad << "\nusage: bench_reproduce [--list | id ...]\nids:";
  for (const Artifact& a : kArtifacts) std::cerr << ' ' << a.id;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Artifact*> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0 && argc == 2) {
      for (const Artifact& a : kArtifacts) std::cout << a.id << '\n';
      return 0;
    }
    const Artifact* found = nullptr;
    for (const Artifact& a : kArtifacts) {
      if (std::strcmp(argv[i], a.id) == 0) found = &a;
    }
    if (found == nullptr) return usage(argv[i]);
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const Artifact& a : kArtifacts) selected.push_back(&a);
  }
  int status = 0;
  for (const Artifact* a : selected) {
    if (a->run() != 0) status = 1;
  }
  return status;
}
