/**
 * @file
 * Crash-safe checkpoint journal for sweep execution.
 *
 * While a sweep with a file JSON destination runs, every completed
 * trial's outcome is appended to its journal as a length-prefixed,
 * checksummed, fsync'd binary record. If the process dies mid-sweep —
 * Ctrl-C, SIGKILL, OOM — `--resume` replays the journal, skips the trials
 * it holds, runs only the remainder, and produces final JSON
 * byte-identical to an uninterrupted run (the sink aggregates in plan
 * order, and doubles are journaled as raw IEEE-754 bits, so replayed
 * results are bit-exact).
 *
 * There is one journal format. Every run executes one shard of a
 * campaign: a plain run is shard 0 of 1 and journals to
 * `<json-out>.journal`; shard K of a larger campaign (anvil-sim
 * shard/supervise) journals to `<json-out>.shard-K.journal`. The header
 * always carries the shard's identity (index, count) and a hash of the
 * full trial plan, so `--resume`, the supervisor and the merge all read
 * and write the same file and refuse journals from a different sweep
 * definition. Shard children also interleave *lease records* — periodic
 * heartbeats — so a supervisor can tell a shard that is slowly working
 * from one that is wedged.
 *
 * Recovery rules:
 *   - a torn trailing record (partial write at the kill point) is
 *     truncated away, never fatal;
 *   - a header that does not match the reading sweep (different name,
 *     master seed, plan hash, or shard identity) is refused with a
 *     structured error;
 *   - a record that contradicts the sweep plan (scenario, trial or seed
 *     mismatch at its global index — the sweep definition changed)
 *     likewise refuses.
 *
 * The format is host-endian and process-local (a checkpoint, not an
 * interchange format); the version byte guards against record-layout
 * drift across builds.
 */
#ifndef ANVIL_RUNNER_JOURNAL_HH
#define ANVIL_RUNNER_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runner/trial.hh"

namespace anvil::runner {

/**
 * Identity block at the front of every journal. Two journals with equal
 * headers were produced by the same sweep definition — same name, same
 * master seed, same full trial plan — as the same shard of the same
 * campaign, so their records are interchangeable facts about the same
 * deterministic computation.
 */
struct JournalHeader {
    std::string sweep;
    std::uint64_t master_seed = 0;
    /// plan_hash() over the *full* sweep plan.
    std::uint64_t plan_hash = 0;
    std::uint32_t shard_index = 0;
    /// Number of shards in the campaign (1 for a plain run).
    std::uint32_t shard_count = 1;
};

/** One replayed journal entry: the trial's identity and its outcome. */
struct JournalRecord {
    TrialSpec spec;
    TrialOutcome outcome;
};

/**
 * Append-side of the journal. Thread-safe: workers append records as
 * trials complete, in completion order — records carry their global
 * index, so ordering never matters for replay.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Opens @p path for journaling the sweep identified by @p header.
     * Fresh runs truncate, write a new header, and fsync the parent
     * directory (a journal that vanishes on power loss is no journal);
     * resuming runs (@p append) keep existing records and validate the
     * header first.
     * @throw Error on I/O failure or an append-mode header mismatch.
     */
    void open(const std::string &path, const JournalHeader &header,
              bool append);

    bool is_open() const { return fd_ >= 0; }

    /** Appends one record and fsyncs it to disk. @throw Error on I/O. */
    void append(const TrialSpec &spec, const TrialOutcome &outcome);

    /**
     * Appends a lease (heartbeat) record: sequence number plus the
     * writing process id. Lease records are liveness evidence for a
     * supervisor — read_journal() skips them during replay.
     * @throw Error on I/O.
     */
    void append_lease(std::uint64_t seq);

    void close();

  private:
    std::mutex mutex_;
    int fd_ = -1;
    std::string path_;
};

/**
 * Reads every intact trial record of @p path (lease records are
 * skipped). The header must equal @p expect field for field, and every
 * record must describe the trial @p plan holds at its global index. A
 * torn or corrupt tail is truncated from the file (recovery, reported
 * on stderr), not an error; a missing file reads as no records.
 * @throw Error when the file belongs to a different sweep, plan or
 *        shard, or holds a record that contradicts @p plan.
 */
std::vector<JournalRecord> read_journal(const std::string &path,
                                        const JournalHeader &expect,
                                        const std::vector<TrialSpec> &plan);

/**
 * Reads and returns just the header of @p path (merge diagnostics:
 * report which shard a journal claims to be before validating it).
 * @throw Error when the file is missing or not a journal.
 */
JournalHeader read_journal_header(const std::string &path);

/**
 * Canonical encoding of one trial record's payload. Two records encode
 * identically iff they describe the same outcome bit-for-bit — the
 * merge uses this to accept duplicate trials claimed by two shards
 * (requeue races) while refusing divergent ones.
 */
std::string encode_journal_payload(const TrialSpec &spec,
                                   const TrialOutcome &outcome);

/**
 * The journal of shard @p index of @p count for a JSON destination:
 * `<json_out>.journal` for a plain run (shard 0 of 1), else
 * `<json_out>.shard-K.journal`.
 */
std::string journal_path(const std::string &json_out, std::uint32_t index,
                         std::uint32_t count);

/**
 * fsyncs the directory containing @p path, making a just-created or
 * just-renamed entry durable. Best-effort: failures are reported on
 * stderr, not thrown (an unsyncable directory should not kill a sweep
 * whose data writes all succeeded).
 */
void fsync_parent_dir(const std::string &path);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_JOURNAL_HH
