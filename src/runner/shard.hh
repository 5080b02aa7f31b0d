/**
 * @file
 * Trial-range sharding and the deterministic shard-journal merge.
 *
 * A sharded campaign splits a sweep's trial plan into contiguous ranges,
 * runs each range in its own `anvil-sim shard` child process (its own
 * failure domain, its own checkpoint journal), and folds the journals
 * back into one canonical `anvil-sweep-v1` report. A plain run is the
 * one-shard case: its `<json-out>.journal` merges as shard 0 of 1.
 * Because every trial's result is a pure function of (master seed,
 * scenario, trial index) and the merge feeds the sink strictly in plan
 * order, the merged JSON is byte-identical to a single-process
 * `--jobs N` run — no matter how many shards ran, how often they
 * crashed, or which surviving shard picked up a dead one's requeued
 * trials.
 *
 * Merge rules:
 *   - every journal's header must match the sweep (name, master seed,
 *     plan hash) and its claimed shard identity, and every record must
 *     match the plan (read_journal enforces both);
 *   - a trial recorded by two shards (a requeue race: the original
 *     owner's record survived *and* the work was reassigned) is accepted
 *     when both records encode identically — determinism guarantees they
 *     do — and refused as divergent otherwise;
 *   - a plan trial held by no journal makes the merge incomplete: no
 *     report is written (a partial report that looks complete is worse
 *     than no report), and the diagnostics name the missing ranges.
 */
#ifndef ANVIL_RUNNER_SHARD_HH
#define ANVIL_RUNNER_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/result_sink.hh"
#include "runner/sweep.hh"

namespace anvil::runner {

/**
 * Splits @p total trials into @p count contiguous, near-equal ranges
 * (the first `total % count` ranges are one trial longer). Ranges past
 * the trial count come back empty — a 4-shard campaign over 3 trials
 * simply has an empty fourth shard.
 */
std::vector<std::vector<TrialRange>> partition_trials(std::uint64_t total,
                                                      std::uint32_t count);

/**
 * Parses the `--shard-trials` syntax "A-B[,C-D...]" (inclusive bounds)
 * into ascending disjoint ranges; a bare "A" means the single trial A.
 * @throw Error on malformed text, descending bounds, or overlap.
 */
std::vector<TrialRange> parse_trial_ranges(const std::string &text);

/** Renders ranges back to the `--shard-trials` syntax. */
std::string to_string(const std::vector<TrialRange> &ranges);

/** Compresses ascending indices into minimal inclusive ranges. */
std::vector<TrialRange> compress_indices(
    const std::vector<std::uint64_t> &sorted_indices);

/** What a merge found and (when clean) produced. */
struct MergeResult {
    /// The campaign as one run over the whole plan, folded in plan
    /// order — what finish_sweep() commits. Valid only when complete().
    SweepRun run;
    std::uint64_t duplicates = 0;    ///< identical records dropped
    /// Human-readable, per-shard diagnostics; empty = mergeable.
    std::vector<std::string> problems;
    /// "shard K: N trial record(s) [+ M duplicate(s)]" coverage lines.
    std::vector<std::string> coverage;

    bool complete() const { return problems.empty(); }
};

/**
 * Reads the journals of every shard of the campaign that @p options
 * describes (sweep name, master seed, json_out, shard.count) and folds
 * the records into one run over @p plan, in plan order. Never throws
 * for per-journal problems — they become MergeResult::problems so a
 * validator can show all of them at once. @p check selects the strict
 * validator mode (anvil-sim merge --check): overlaps, even
 * byte-identical ones, are reported as problems too.
 */
MergeResult merge_shards(const std::vector<TrialSpec> &plan,
                         const SweepOptions &options, bool check = false);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_SHARD_HH
