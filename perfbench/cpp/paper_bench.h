// The paper workload: Fig. 16 regenerated through the harness sweep.
#pragma once

#include <cstdint>
#include <string_view>

namespace perfbench {

inline constexpr std::string_view kPaperWorkload = "paper_fig16";

/// Runs paper_fig16 in this process and prints its result line.
int run_paper(std::uint64_t seed, double seconds, bool trace);

}  // namespace perfbench
