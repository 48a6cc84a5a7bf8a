// perfbench: the repository's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// prints human-readable lines, then one JSON result line. The same binary
// is re-executed as the fleet workloads' process under test ("engine"); that
// mode is internal.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/flags.h"
#include "fleet.h"
#include "paper_bench.h"
#include "util.h"

namespace {

int run(int argc, char** argv) {
  using namespace perfbench;
  std::string mode = "run";
  if (argc > 1 && argv[1][0] != '-') {
    mode = argv[1];
    --argc;
    ++argv;
  }
  const auto flags = rejuv::common::Flags::parse(argc, argv);
  const std::string name = flags.get("workload").value_or("");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  std::string dir = flags.get("dir").value_or("");
  if (seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  const FleetWorkload* fleet = find_fleet_workload(name);
  if (fleet == nullptr && name != kPaperWorkload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  if (mode == "engine" && fleet != nullptr) {
    exit_with_parent();
    return engine_main(*fleet, seconds, trace, dir);
  }
  if (mode != "run") {
    std::fprintf(stderr, "perfbench: unknown mode %s\n", mode.c_str());
    return 2;
  }
  if (dir.empty()) dir = "perfbench-run";
  dir += "/" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  const int rc = fleet != nullptr ? run_fleet(*fleet, seed, seconds, trace, dir)
                                  : run_paper(seed, seconds, trace);
  std::filesystem::remove_all(dir);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
