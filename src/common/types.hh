/**
 * @file
 * Fundamental types shared by every subsystem of the ANVIL simulator.
 */
#ifndef ANVIL_COMMON_TYPES_HH
#define ANVIL_COMMON_TYPES_HH

#include <cstdint>

namespace anvil {

/** A physical or virtual memory address (byte granularity). */
using Addr = std::uint64_t;

/** A CPU clock-cycle count. */
using Cycles = std::uint64_t;

/** Simulated time, in picoseconds (the simulator's base tick). */
using Tick = std::uint64_t;

/** Process identifier, used to resolve sampled virtual addresses. */
using Pid = std::uint32_t;

/** An invalid/unmapped address sentinel. */
inline constexpr Addr kInvalidAddr = ~static_cast<Addr>(0);

/** An absent-process sentinel (e.g. a detection no tenant owns). */
inline constexpr Pid kInvalidPid = ~static_cast<Pid>(0);

/** Kind of a memory operation issued to the memory system. */
enum class AccessType : std::uint8_t {
    kLoad,
    kStore,
};

/** Where a memory access was ultimately serviced from. */
enum class DataSource : std::uint8_t {
    kL1,
    kL2,
    kLlc,
    kDram,
};

}  // namespace anvil

#endif  // ANVIL_COMMON_TYPES_HH
