#include "pmu/pmu.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace anvil::pmu {

void
HwCounter::arm_overflow(std::uint64_t threshold,
                        std::function<void()> handler)
{
    assert(threshold > 0);
    value_ = 0;
    threshold_ = threshold;
    handler_ = std::move(handler);
    armed_ = true;
}

void
HwCounter::disarm()
{
    armed_ = false;
    handler_ = nullptr;
}

void
HwCounter::fire()
{
    armed_ = false;
    // Take the handler out first: the PMI handler may re-arm.
    auto handler = std::move(handler_);
    handler_ = nullptr;
    if (handler)
        handler();
}

Pmu::Pmu(mem::MemorySystem &mem, std::uint64_t seed)
    : mem_(mem), rng_(seed)
{
    mem_.set_access_listener(this);
}

Pmu::~Pmu()
{
    mem_.set_access_listener(nullptr);
}

HwCounter &
Pmu::counter(Event event)
{
    return counters_[static_cast<std::size_t>(event)];
}

const HwCounter &
Pmu::counter(Event event) const
{
    return counters_[static_cast<std::size_t>(event)];
}

std::uint64_t
Pmu::llc_misses(Pid pid) const
{
    return pid < pid_llc_misses_.size() ? pid_llc_misses_[pid] : 0;
}

void
Pmu::enable_sampling(const SampleConfig &config)
{
    sample_config_ = config;
    sampling_enabled_ = true;
    sampling_started_ = mem_.now();
    qualifying_events_ = 0;
    // Let a few events accumulate before the first record so the
    // event-rate estimate has something to chew on.
    next_sample_at_ = 16;
    records_.reserve(64);
}

void
Pmu::disable_sampling()
{
    sampling_enabled_ = false;
}

void
Pmu::drain_samples(std::vector<PebsRecord> &out)
{
    out.clear();
    std::swap(out, records_);
}

void
Pmu::schedule_next_sample(Tick now)
{
    // PEBS samples every Nth qualifying event (unbiased across
    // operations). N is adapted to the observed qualifying-event rate so
    // the wall-clock sample rate tracks 1/mean_period, with uniform
    // jitter in [0.5, 1.5) N to decorrelate from periodic patterns
    // (hardware randomizes the reload value similarly).
    // Floor the window at 1 us: sampling is often enabled from a PMI in
    // the middle of the access stream, and a zero-length window would
    // make the rate estimate explode.
    const Tick elapsed = std::max<Tick>(now - sampling_started_, us(1));
    const double event_rate = static_cast<double>(qualifying_events_) /
                              static_cast<double>(elapsed);
    const double n_target = std::max(
        1.0, event_rate * static_cast<double>(sample_config_.mean_period));
    const double jitter = 0.5 + rng_.next_double();
    next_sample_at_ =
        qualifying_events_ +
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(n_target * jitter + 0.5));
}

void
Pmu::on_access(const mem::AccessInfo &info)
{
    // Event counters.
    if (info.llc_miss) {
        // Attribute before ticking: the kLlcMisses tick may fire the
        // Stage-1 PMI, and the handler should see this miss included in
        // its owner's total.
        if (info.pid >= pid_llc_misses_.size())
            grow_pid_counts(info.pid);
        ++pid_llc_misses_[info.pid];
        counter(Event::kLlcMisses).tick();
        if (info.type == AccessType::kLoad)
            counter(Event::kLlcLoadMisses).tick();
        else
            counter(Event::kLlcStoreMisses).tick();
    }
    if (info.type == AccessType::kLoad)
        counter(Event::kLoadsRetired).tick();
    else
        counter(Event::kStoresRetired).tick();

    // PEBS sampling.
    if (!sampling_enabled_)
        return;

    const bool load_ok = sample_config_.sample_loads &&
                         info.type == AccessType::kLoad &&
                         info.latency >=
                             sample_config_.load_latency_threshold;
    const bool store_ok = sample_config_.sample_stores &&
                          info.type == AccessType::kStore &&
                          info.llc_miss;
    if (!load_ok && !store_ok)
        return;

    ++qualifying_events_;
    if (qualifying_events_ < next_sample_at_)
        return;
    record_sample(info);
}

void
Pmu::grow_pid_counts(Pid pid)
{
    pid_llc_misses_.resize(pid + 1, 0);
}

void
Pmu::record_sample(const mem::AccessInfo &info)
{
    records_.push_back(PebsRecord{info.pid, info.va, info.type, info.source,
                                  info.latency, info.complete_time});
    schedule_next_sample(info.complete_time);
}

}  // namespace anvil::pmu
