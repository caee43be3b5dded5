// The std::map/std::set implementation of analyze_hops that the flat one
// replaced, kept unchanged as the oracle of the differential test.
#pragma once

#include <vector>

#include "ecnprobe/analysis/hops.hpp"

namespace ecnprobe::analysis {

HopAnalysis analyze_hops_reference(
    const std::vector<measure::TracerouteObservation>& observations,
    const topology::IpToAsMap& ip2as);

}  // namespace ecnprobe::analysis
