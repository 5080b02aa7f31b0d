/** @file One completed memory access, as the PMU and observers see it. */
#ifndef ANVIL_MEM_ACCESS_INFO_HH
#define ANVIL_MEM_ACCESS_INFO_HH

#include "common/types.hh"

namespace anvil::mem {

/** Everything known about one completed memory access. */
struct AccessInfo {
    Pid pid = 0;
    Addr va = 0;
    Addr pa = 0;
    AccessType type = AccessType::kLoad;
    DataSource source = DataSource::kL1;
    Tick latency = 0;      ///< total, including DRAM if missed
    bool llc_miss = false;
    Tick complete_time = 0;
};

}  // namespace anvil::mem

#endif  // ANVIL_MEM_ACCESS_INFO_HH
