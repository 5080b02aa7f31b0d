#include "runner/fault.hh"

#include <signal.h>

#include <optional>

#include "common/text.hh"

namespace anvil::runner {
namespace {

FaultKind
parse_kind(const std::string &text)
{
    if (text == "throw")
        return FaultKind::kThrow;
    if (text == "hang")
        return FaultKind::kHang;
    if (text == "stall")
        return FaultKind::kStall;
    throw Error("unknown fault kind (expected throw, hang, or stall)")
        .with("kind", text);
}

}  // namespace

FaultSpec
parse_fault(const std::string &text)
{
    const auto at = text.find('@');
    const auto colon = text.rfind(':');
    if (at == std::string::npos || colon == std::string::npos ||
        colon < at || colon + 1 >= text.size()) {
        throw Error("malformed fault spec (expected kind@scenario:trial)")
            .with("spec", text);
    }
    FaultSpec fault;
    fault.kind = parse_kind(text.substr(0, at));
    fault.scenario = text.substr(at + 1, colon - at - 1);
    const std::string trial = text.substr(colon + 1);
    const std::optional<std::uint64_t> index = parse_u64(trial);
    if (!index) {
        throw Error("malformed fault trial index")
            .with("spec", text)
            .with("trial", trial);
    }
    fault.trial = *index;
    return fault;
}

const FaultSpec *
FaultPlan::match(const TrialSpec &spec) const
{
    for (const FaultSpec &fault : faults_) {
        if (fault.trial == spec.trial && fault.scenario == spec.scenario)
            return &fault;
    }
    return nullptr;
}

void
FaultPlan::inject_before(const FaultSpec &fault, const TrialContext &ctx)
{
    switch (fault.kind) {
      case FaultKind::kThrow:
          throw Error("injected fault").with("kind", "throw");
      case FaultKind::kHang:
          if (!ctx.watchdog().armed()) {
              throw Error("injected hang would never terminate; set "
                          "--trial-timeout to bound it")
                  .with("kind", "hang");
          }
          // A runaway trial: consume simulated events until the watchdog
          // aborts the trial with TimeoutError.
          for (;;)
              ctx.watchdog().tick();
      case FaultKind::kStall:
          // Freezes every thread until a SIGCONT (the trial then runs
          // normally) or a kill.
          ::raise(SIGSTOP);
          break;
    }
}

}  // namespace anvil::runner
