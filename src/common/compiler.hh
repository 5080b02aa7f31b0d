/**
 * @file
 * Code-placement attributes for the per-access path (DESIGN.md §6).
 *
 * ANVIL_FLATTEN marks the few entry points that carry every simulated
 * access (MemorySystem::access / clflush, DramSystem::access): the
 * compiler inlines every call in their bodies, transitively, so each
 * compiles to one body without call boundaries. Calls cross src/
 * libraries, so this relies on the default link-time-optimized build.
 *
 * ANVIL_COLD marks a path the live counts show is rare per access (table
 * growth, a bit flip, a PMI, a PEBS record). It stays out of line, so a
 * flattened body does not carry it, and is placed with the unlikely code.
 */
#ifndef ANVIL_COMMON_COMPILER_HH
#define ANVIL_COMMON_COMPILER_HH

#if defined(__GNUC__) || defined(__clang__)
#define ANVIL_FLATTEN __attribute__((flatten))
#define ANVIL_COLD __attribute__((noinline, cold))
#else
#define ANVIL_FLATTEN
#define ANVIL_COLD
#endif

#endif  // ANVIL_COMMON_COMPILER_HH
