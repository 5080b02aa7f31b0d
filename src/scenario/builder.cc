#include "scenario/builder.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mitigations/registry.hh"
#include "runner/sweep.hh"
#include "scenario/scheduler.hh"
#include "scenario/validate.hh"
#include "workload/profile.hh"

namespace anvil::scenario {
namespace {

/// kPatternMeasure's hammer iterations before and during measurement.
constexpr std::uint64_t kPatternWarmupIterations = 8;
constexpr std::uint64_t kPatternIterations = 20000;

/** A trial's detections, counted by the tenant the detector blamed. */
struct DetectionTally {
    std::vector<std::uint64_t> per_tenant;  ///< in tenant order
    std::uint64_t unattributed = 0;         ///< no tenant owns the pid
};

/** Picks @p built's target and builds its hammer kernel. */
void
build_hammer(const AttackSpec &spec, mem::MemorySystem &machine,
             BuiltAttack &built)
{
    Attacker &attacker = *built.attacker;
    switch (spec.kind) {
      case AttackKind::kClflushSingleSided: {
          const auto target = weakest_single_sided(machine, attacker);
          if (!target)
              throw std::runtime_error("no single-sided target");
          built.flat_bank = target->flat_bank;
          built.victim_row = target->aggressor_row + 1;
          built.hammer = std::make_unique<attack::ClflushSingleSided>(
              machine, attacker.pid(), *target);
          break;
      }
      case AttackKind::kClflushDoubleSided: {
          const auto target = weakest_double_sided(machine, attacker);
          if (!target)
              throw std::runtime_error("no double-sided target");
          built.flat_bank = target->flat_bank;
          built.victim_row = target->victim_row;
          built.hammer = std::make_unique<attack::ClflushDoubleSided>(
              machine, attacker.pid(), *target);
          break;
      }
      case AttackKind::kClflushFreeDoubleSided: {
          const auto target = weakest_double_sided(
              machine, attacker, /*require_slice_compatible=*/true);
          if (!target)
              throw std::runtime_error("no slice-compatible target");
          built.flat_bank = target->flat_bank;
          built.victim_row = target->victim_row;
          built.hammer = std::make_unique<attack::ClflushFreeDoubleSided>(
              machine, attacker.pid(), *target, attacker.layout);
          break;
      }
      case AttackKind::kClflushHalfDouble: {
          const auto target = weakest_half_double(machine, attacker);
          if (!target)
              throw std::runtime_error("no half-double target");
          built.flat_bank = target->flat_bank;
          built.victim_row = target->victim_row;
          built.hammer = std::make_unique<attack::ClflushHalfDouble>(
              machine, attacker.pid(), *target);
          break;
      }
      case AttackKind::kTrackerThrash: {
          auto rows = attacker.layout.find_thrash_rows(4096);
          if (rows.empty())
              throw std::runtime_error("no thrash rows");
          // No single victim: the target of this attack is the tracker's
          // tables, not a DRAM row.
          built.flat_bank = 0;
          built.victim_row = 0;
          built.hammer = std::make_unique<attack::TrackerThrash>(
              machine, attacker.pid(), std::move(rows));
          break;
      }
    }
}

}  // namespace

std::size_t
Execution::tenant_index_of(Pid pid) const
{
    if (pid == kInvalidPid)
        return tenants_.size();
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (tenants_[i].pid == pid)
            return i;
    }
    return tenants_.size();
}

ScenarioBuilder::ScenarioBuilder(const ScenarioSpec &spec,
                                 const runner::TrialContext &ctx)
    : spec_(spec), ctx_(ctx)
{
}

Tick
ScenarioBuilder::draw(const PhaseJitter &jitter) const
{
    Tick t = jitter.base;
    if (jitter.jitter != 0)
        t += ctx_.seed_for(jitter.stream) % jitter.jitter;
    return t;
}

Execution &
ScenarioBuilder::build()
{
    validate(spec_);

    exec_ = std::make_unique<Execution>();
    Execution &e = *exec_;

    mem::SystemConfig config = spec_.system;
    if (spec_.seed_vm_from_trial)
        config.vm_seed = ctx_.seed_for("vm");
    // The disturbance model is a pure sink: skip it where no output or
    // stopping rule reads a flip.
    config.dram.model_disturbance = reads_flips(spec_);

    e.machine_ = std::make_unique<mem::MemorySystem>(config);

    // Attacker processes map and scan their buffers right after the
    // machine comes up, before any workload arena claims frames.
    for (const TenantSpec &t : spec_.tenants) {
        if (t.attack) {
            e.attacks_.emplace_back().attacker =
                std::make_unique<Attacker>(*e.machine_);
        }
    }

    if (ctx_.watchdog().armed()) {
        // Every completed memory access ticks the trial's event budget:
        // the watchdog fires at the same simulated event no matter how
        // trials are scheduled, so timeouts are deterministic.
        runner::Watchdog *wd = &ctx_.watchdog();
        e.machine().add_observer(
            [wd](const mem::AccessInfo &) { wd->tick(); });
    }

    if (!spec_.mitigation.empty()) {
        e.mitigation_ = mitigations::mitigation_registry()
                            .at(spec_.mitigation)
                            .make(e.machine().dram(),
                                  ctx_.seed_for("mitigation"));
    }

    if (!spec_.pre_detector.empty())
        e.machine().advance(draw(spec_.pre_detector));

    const auto build_workloads = [&] {
        for (const TenantSpec &t : spec_.tenants) {
            if (!t.workload)
                continue;
            const WorkloadSpec &ws = *t.workload;
            workload::SpecProfile profile =
                workload::spec_profile(ws.profile);
            if (!ws.seed_stream.empty())
                profile.seed = ctx_.seed_for(ws.seed_stream);
            if (ws.boost_thrash)
                e.boost_ *= boost_thrash_rate(profile);
            e.workloads_.push_back(
                std::make_unique<workload::Workload>(e.machine(),
                                                     profile));
        }
    };
    const auto build_detector = [&] {
        if (!spec_.detector)
            return;
        e.anvil_ = std::make_unique<detector::Anvil>(e.machine(), e.pmu(),
                                                     *spec_.detector);
        if (spec_.ground_truth == GroundTruth::kAttackLifetime) {
            // The oracle is scoped to the attack's actual lifetime: a
            // detection fired during the free-run window (before the
            // hammer starts) is labeled a false positive.
            Execution *exec = &e;
            e.anvil_->set_ground_truth(
                [exec] { return exec->attack_active_; });
        }
        // Starting the detector charges the first stage-1 check to the
        // simulated clock, so order relative to workload construction is
        // observable (spec.detector_before_workloads).
        e.anvil_->start();
    };
    if (spec_.detector_before_workloads) {
        build_detector();
        build_workloads();
    } else {
        build_workloads();
        build_detector();
    }

    if (!spec_.pre_attack.empty())
        e.machine().advance(draw(spec_.pre_attack));

    const std::vector<std::string> labels = tenant_labels(spec_);
    std::size_t attacker_index = 0;
    std::size_t workload_index = 0;
    for (std::size_t i = 0; i < spec_.tenants.size(); ++i) {
        const TenantSpec &t = spec_.tenants[i];
        BuiltTenant built;
        built.name = labels[i];
        if (t.attack) {
            built.is_attacker = true;
            built.payload = attacker_index;
            BuiltAttack &attack = e.attacks_[attacker_index];
            built.pid = attack.attacker->pid();
            build_hammer(*t.attack, e.machine(), attack);
            ++attacker_index;
        } else {
            built.payload = workload_index;
            built.pid = e.workloads_[workload_index]->pid();
            ++workload_index;
        }
        e.tenants_.push_back(std::move(built));
    }

    return e;
}

void
ScenarioBuilder::run()
{
    Execution &e = *exec_;
    e.run_start_ = e.machine().now();
    e.attack_active_ = !e.attacks_.empty();
    for (BuiltTenant &t : e.tenants_) {
        if (!t.is_attacker)
            t.run_start_ops = e.workloads_[t.payload]->ops();
    }

    const auto add_tenants = [&](TenantScheduler &sched) {
        for (std::size_t i = 0; i < e.tenants_.size(); ++i) {
            const BuiltTenant &t = e.tenants_[i];
            ScheduledTenant st;
            if (t.is_attacker)
                st.payload = e.attacks_[t.payload].hammer.get();
            else
                st.payload = e.workloads_[t.payload].get();
            st.quantum_accesses = spec_.tenants[i].quantum_accesses;
            sched.add(st);
        }
    };

    switch (spec_.run.mode) {
      case RunMode::kInterleaveFor: {
          TenantScheduler sched(e.machine());
          add_tenants(sched);
          sched.run_until(e.run_start_ + spec_.run.duration);
          break;
      }
      case RunMode::kWorkloadOps: {
          for (auto &load : e.workloads_)
              load->run_ops(spec_.run.ops);
          break;
      }
      case RunMode::kHammerToFirstFlip: {
          BuiltAttack &attack = e.attacks_.at(0);
          // Phase-align so the trial measures pure hammering time within
          // one clean refresh window of the victim.
          align_to_refresh(e.machine(), attack.victim_row);
          e.hammer_result_ = attack.hammer->run(
              spec_.system.dram.refresh_period + spec_.run.duration);
          break;
      }
      case RunMode::kHammerUntilFlipOrDeadline:
          e.hammer_result_ = e.attacks_.at(0).hammer->run(
              spec_.run.duration, spec_.run.step_gap);
          break;
      case RunMode::kInterleaveUntilOps: {
          // Fixed-work slowdown under live attack pressure: round-robin
          // everything until the FIRST workload finishes its quota, so
          // the measured run_ms scales with whatever latency the attack
          // (and any mitigation response it provokes) inflicts.
          TenantScheduler sched(e.machine());
          add_tenants(sched);
          sched.run_rounds(*e.workloads_.at(0), spec_.run.ops);
          break;
      }
      case RunMode::kPatternMeasure: {
          BuiltAttack &attack = e.attacks_.at(0);
          for (std::uint64_t i = 0; i < kPatternWarmupIterations; ++i)
              attack.hammer->step();  // reach steady state

          const auto llc_before = e.machine().hierarchy().llc_stats();
          const std::uint64_t acts_before =
              e.machine().dram().bank(attack.flat_bank).activations();
          const std::uint64_t dram_before =
              e.machine().dram().stats().accesses;
          const Tick t0 = e.machine().now();
          for (std::uint64_t i = 0; i < kPatternIterations; ++i)
              attack.hammer->step();
          const auto llc_after = e.machine().hierarchy().llc_stats();

          PatternStats &p = e.pattern_;
          p.misses_per_iteration =
              static_cast<double>(llc_after.misses - llc_before.misses) /
              static_cast<double>(kPatternIterations);
          p.accesses_per_iteration =
              static_cast<double>(llc_after.accesses -
                                  llc_before.accesses) /
              static_cast<double>(kPatternIterations);
          p.ns_per_iteration = to_ns(e.machine().now() - t0) /
                               static_cast<double>(kPatternIterations);
          p.cycles_per_iteration =
              p.ns_per_iteration * e.machine().core().freq_ghz();
          p.hammers_per_refresh = 64e6 / p.ns_per_iteration;
          const double aggressor_acts = static_cast<double>(
              e.machine().dram().bank(attack.flat_bank).activations() -
              acts_before);
          const double dram_accesses = static_cast<double>(
              e.machine().dram().stats().accesses - dram_before);
          p.aggressor_activation_share =
              dram_accesses > 0 ? aggressor_acts / dram_accesses : 0.0;
          break;
      }
    }

    e.attack_active_ = false;
    e.run_seconds_ = to_sec(e.machine().now() - e.run_start_);
}

runner::TrialResult
ScenarioBuilder::emit() const
{
    const Execution &e = *exec_;
    runner::TrialResult r;
    // Tallied on first use: the per-tenant outputs share one pass.
    std::optional<DetectionTally> tally;
    const auto detections_by_tenant = [&]() -> const DetectionTally & {
        if (!tally) {
            tally.emplace();
            tally->per_tenant.assign(e.tenants_.size(), 0);
            for (const detector::Detection &d : e.anvil_->detections()) {
                const std::size_t idx = e.tenant_index_of(d.offender_pid);
                if (idx < e.tenants_.size())
                    ++tally->per_tenant[idx];
                else
                    ++tally->unattributed;
            }
        }
        return *tally;
    };
    for (const Output output : spec_.outputs) {
        switch (output) {
          case Output::kFlips:
              r.set_counter("flips", e.machine_->dram().flips().size());
              break;
          case Output::kDetections:
              r.set_counter("detections", e.anvil_->stats().detections);
              break;
          case Output::kSelectiveRefreshes:
              r.set_counter("selective_refreshes",
                            e.anvil_->stats().selective_refreshes);
              break;
          case Output::kAttackMs:
              r.set_value("attack_ms",
                          to_ms(e.machine_->now() - e.run_start_));
              break;
          case Output::kDetectMs: {
              // A detection fired before the attack began (a test may
              // drive the machine between build() and run()) is no
              // detection of it.
              const auto &ds = e.anvil_->detections();
              const auto first = std::find_if(
                  ds.begin(), ds.end(), [&](const detector::Detection &d) {
                      return d.time >= e.run_start_;
                  });
              if (first != ds.end()) {
                  r.set_value("detect_ms",
                              to_ms(first->time - e.run_start_));
              }
              break;
          }
          case Output::kFpPerSec:
              r.set_value(
                  "fp_per_sec",
                  static_cast<double>(
                      e.anvil_->stats().false_positive_refreshes) /
                      e.run_seconds_ / e.boost_);
              break;
          case Output::kBoost:
              r.set_value("boost", e.boost_);
              break;
          case Output::kFalsePositiveRefreshes:
              r.set_counter("false_positive_refreshes",
                            e.anvil_->stats().false_positive_refreshes);
              break;
          case Output::kRunMs:
              r.set_value("run_ms",
                          to_ms(e.machine_->now() - e.run_start_));
              break;
          case Output::kOps:
              r.set_counter("ops", spec_.run.ops);
              break;
          case Output::kFlipped:
              r.set_counter("flipped", e.hammer_result_.flipped ? 1 : 0);
              break;
          case Output::kAggressorAccesses:
              r.set_counter("aggressor_accesses",
                            e.hammer_result_.aggressor_accesses);
              break;
          case Output::kFlipMs:
              r.set_value("flip_ms", to_ms(e.hammer_result_.duration));
              break;
          case Output::kMissesPerIter:
              r.set_value("misses_per_iter",
                          e.pattern_.misses_per_iteration);
              break;
          case Output::kAccessesPerIter:
              r.set_value("accesses_per_iter",
                          e.pattern_.accesses_per_iteration);
              break;
          case Output::kNsPerIter:
              r.set_value("ns_per_iter", e.pattern_.ns_per_iteration);
              break;
          case Output::kCyclesPerIter:
              r.set_value("cycles_per_iter",
                          e.pattern_.cycles_per_iteration);
              break;
          case Output::kHammersPerRefresh:
              r.set_value("hammers_per_refresh",
                          e.pattern_.hammers_per_refresh);
              break;
          case Output::kAggressorActShare:
              r.set_value("aggressor_act_share",
                          e.pattern_.aggressor_activation_share);
              break;
          case Output::kAnvilStats:
              if (e.anvil_) {
                  const detector::AnvilStats &s = e.anvil_->stats();
                  r.set_block(
                      "anvil",
                      {{"stage1_windows", s.stage1_windows},
                       {"stage1_triggers", s.stage1_triggers},
                       {"stage2_windows", s.stage2_windows},
                       {"detections", s.detections},
                       {"selective_refreshes", s.selective_refreshes},
                       {"false_positive_detections",
                        s.false_positive_detections},
                       {"false_positive_refreshes",
                        s.false_positive_refreshes},
                       {"overhead_ticks", s.overhead}});
              }
              break;
          case Output::kDramStats: {
              const dram::DramSystem::Stats &s = e.machine_->dram().stats();
              r.set_block("dram",
                          {{"accesses", s.accesses},
                           {"row_hits", s.row_hits},
                           {"row_misses", s.row_misses},
                           {"selective_refreshes", s.selective_refreshes},
                           {"refresh_stall_ticks", s.refresh_stall}});
              break;
          }
          case Output::kMitigationRefreshes:
              r.set_counter("mitigation_refreshes",
                            e.mitigation_->stats().neighbor_refreshes);
              break;
          case Output::kMitigationEvictions:
              r.set_counter("mitigation_evictions",
                            e.mitigation_->stats().table_evictions);
              break;
          case Output::kTenantOps:
              for (const BuiltTenant &t : e.tenants_) {
                  if (t.is_attacker)
                      continue;
                  r.set_counter("ops/" + t.name,
                                e.workloads_[t.payload]->ops() -
                                    t.run_start_ops);
              }
              break;
          case Output::kTenantDetections: {
              const DetectionTally &t = detections_by_tenant();
              for (std::size_t i = 0; i < e.tenants_.size(); ++i) {
                  r.set_counter("detections/" + e.tenants_[i].name,
                                t.per_tenant[i]);
              }
              r.set_counter("detections/unattributed", t.unattributed);
              break;
          }
          case Output::kCrossTenantFp: {
              // A detection blamed on a benign (workload) tenant is a
              // cross-tenant false positive regardless of the attack
              // window: the daemon would throttle the wrong process.
              const DetectionTally &t = detections_by_tenant();
              std::uint64_t total = 0;
              for (std::size_t i = 0; i < e.tenants_.size(); ++i) {
                  if (!e.tenants_[i].is_attacker)
                      total += t.per_tenant[i];
              }
              r.set_counter("cross_tenant_fp", total);
              for (std::size_t i = 0; i < e.tenants_.size(); ++i) {
                  if (e.tenants_[i].is_attacker)
                      continue;
                  r.set_counter("cross_tenant_fp/" + e.tenants_[i].name,
                                t.per_tenant[i]);
              }
              break;
          }
        }
    }
    return r;
}

runner::TrialResult
ScenarioBuilder::run_trial(const ScenarioSpec &spec,
                           const runner::TrialContext &ctx)
{
    ScenarioBuilder builder(spec, ctx);
    builder.build();
    builder.run();
    return builder.emit();
}

runner::SweepRun
run_sweep(const SweepSpec &spec, runner::CliOptions &cli)
{
    validate(spec);

    cli.sweep.name = spec.name;
    runner::Sweep sweep(cli.sweep);
    for (const ScenarioSpec &cell : spec.cells) {
        const std::uint64_t trials =
            cell.fixed_trials != 0 ? cell.fixed_trials
                                   : cli.trials_or(spec.default_trials);
        sweep.add_scenario(cell.name, trials,
                           [cell](const runner::TrialContext &ctx) {
                               return ScenarioBuilder::run_trial(cell, ctx);
                           });
    }
    runner::SweepRun run = sweep.run();
    if (spec.finalize)
        spec.finalize(run.sink);
    return run;
}

}  // namespace anvil::scenario
