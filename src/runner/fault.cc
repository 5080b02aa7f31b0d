#include "runner/fault.hh"

#include <algorithm>
#include <iterator>
#include <optional>

#include "common/text.hh"

namespace anvil::runner {
namespace {

/// Indexed by FaultKind.
constexpr const char *kKindNames[] = {"throw", "hang"};

FaultKind
parse_kind(const std::string &text)
{
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (text == kKindNames[k])
            return static_cast<FaultKind>(k);
    }
    throw Error("unknown fault kind (expected throw or hang)")
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
FaultPlan::check_planned(const std::vector<TrialSpec> &plan) const
{
    for (const FaultSpec &fault : faults_) {
        const auto aimed = [&](const TrialSpec &t) {
            return t.trial == fault.trial && t.scenario == fault.scenario;
        };
        if (std::any_of(plan.begin(), plan.end(), aimed))
            continue;
        // The plan runs each scenario's trials 0..n-1 in turn.
        std::vector<std::string> names;
        std::string planned;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (i + 1 < plan.size() &&
                plan[i + 1].scenario == plan[i].scenario)
                continue;
            names.push_back(plan[i].scenario);
            planned += (planned.empty() ? "" : "; ") + plan[i].scenario +
                       ":0.." + std::to_string(plan[i].trial);
        }
        const std::string spec =
            std::string(kKindNames[static_cast<std::size_t>(fault.kind)]) +
            "@" + fault.scenario + ":" + std::to_string(fault.trial);
        Error error("--inject-fault names no trial of this sweep");
        error.with("spec", spec)
            .with("planned", planned.empty() ? "nothing" : planned);
        if (const auto near = nearest_name(fault.scenario, names))
            error.with("did_you_mean", *near);
        throw error;
    }
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
    }
}

}  // namespace anvil::runner
