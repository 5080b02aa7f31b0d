#include "runner/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>

namespace anvil::runner {
namespace {

constexpr char kMagic[8] = {'A', 'N', 'V', 'L', 'J', 'N', 'L', '1'};
// v2 added the plan hash to the header; v4 dropped v3's shard identity
// and the per-record type byte (every record is a trial record); v5
// dropped the per-record attempt count; v6 journals stat blocks as
// named field lists instead of two fixed detector/DRAM layouts.
constexpr std::uint32_t kVersion = 6;

/** FNV-1a 64-bit over raw bytes (record checksums). */
std::uint64_t
fnv1a_bytes(const char *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Append-only byte buffer with fixed-width host-endian encoders. */
struct Encoder {
    std::string bytes;

    void
    put_u8(std::uint8_t v)
    {
        bytes.push_back(static_cast<char>(v));
    }
    void
    put_u32(std::uint32_t v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    }
    void
    put_u64(std::uint64_t v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    }
    void
    put_double(double v)
    {
        // Raw IEEE-754 bits: replayed values are bit-exact, which the
        // byte-identical-resume guarantee depends on.
        put_u64(std::bit_cast<std::uint64_t>(v));
    }
    void
    put_string(const std::string &s)
    {
        put_u32(static_cast<std::uint32_t>(s.size()));
        bytes.append(s);
    }
};

/** Bounds-checked reader over one record payload. */
class Decoder
{
  public:
    Decoder(const char *data, std::size_t size)
        : p_(data), end_(data + size)
    {
    }

    std::uint8_t
    get_u8()
    {
        need(1);
        return static_cast<std::uint8_t>(*p_++);
    }
    std::uint32_t
    get_u32()
    {
        need(sizeof(std::uint32_t));
        std::uint32_t v;
        std::memcpy(&v, p_, sizeof v);
        p_ += sizeof v;
        return v;
    }
    std::uint64_t
    get_u64()
    {
        need(sizeof(std::uint64_t));
        std::uint64_t v;
        std::memcpy(&v, p_, sizeof v);
        p_ += sizeof v;
        return v;
    }
    double
    get_double()
    {
        return std::bit_cast<double>(get_u64());
    }
    std::string
    get_string()
    {
        const std::uint32_t n = get_u32();
        need(n);
        std::string s(p_, n);
        p_ += n;
        return s;
    }
    bool exhausted() const { return p_ == end_; }

  private:
    void
    need(std::size_t n)
    {
        if (static_cast<std::size_t>(end_ - p_) < n)
            throw Error("journal record payload is short");
    }

    const char *p_;
    const char *end_;
};

std::string
encode_header(const JournalHeader &header)
{
    Encoder e;
    e.bytes.append(kMagic, sizeof kMagic);
    e.put_u32(kVersion);
    e.put_u64(header.master_seed);
    e.put_string(header.sweep);
    e.put_u64(header.plan_hash);
    return e.bytes;
}

/** Decodes the header; also returns its on-disk size via @p size. */
JournalHeader
decode_header(const std::string &data, const std::string &path,
              std::size_t &size)
{
    if (data.size() < sizeof kMagic ||
        std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
        throw Error("journal is not an anvil sweep journal")
            .with("path", path);
    }
    Decoder d(data.data() + sizeof kMagic, data.size() - sizeof kMagic);
    JournalHeader header;
    std::uint32_t version = 0;
    try {
        version = d.get_u32();
        if (version == kVersion) {
            header.master_seed = d.get_u64();
            header.sweep = d.get_string();
            header.plan_hash = d.get_u64();
        }
    } catch (const Error &e) {
        throw Error("journal header is truncated")
            .with("path", path)
            .caused_by(e);
    }
    if (version != kVersion) {
        throw Error("journal format version is not supported by this "
                    "build; delete the journal and rerun")
            .with("path", path)
            .with("version", std::uint64_t{version})
            .with("supported", std::uint64_t{kVersion});
    }
    size = encode_header(header).size();
    return header;
}

/** Field-by-field header validation, naming the first mismatch. */
void
validate_header(const JournalHeader &got, const JournalHeader &expect,
                const std::string &path)
{
    if (got.sweep != expect.sweep ||
        got.master_seed != expect.master_seed) {
        throw Error("journal belongs to a different sweep configuration "
                    "(name or master seed mismatch); delete it or rerun "
                    "without --resume")
            .with("path", path)
            .with("journal_sweep", got.sweep)
            .with("sweep", expect.sweep)
            .with_hex("journal_master_seed", got.master_seed)
            .with_hex("master_seed", expect.master_seed);
    }
    if (got.plan_hash != expect.plan_hash) {
        throw Error("journal was written against a different sweep plan "
                    "(trial count or scenario set changed); delete it "
                    "or rerun with the original flags")
            .with("path", path)
            .with_hex("journal_plan", got.plan_hash)
            .with_hex("plan", expect.plan_hash);
    }
}

/** Refuses a record that is not the trial @p plan holds at its index. */
void
check_against_plan(const TrialSpec &spec, const std::vector<TrialSpec> &plan,
                   const std::string &path)
{
    const std::uint64_t i = spec.global_index;
    if (i < plan.size() && plan[i].scenario == spec.scenario &&
        plan[i].trial == spec.trial && plan[i].seed == spec.seed)
        return;
    throw Error("journal record does not match the sweep plan (the sweep "
                "definition or flags changed); delete the journal or "
                "rerun with the original flags")
        .with("path", path)
        .with("record_trial", i)
        .with("record_scenario", spec.scenario);
}

/** Decodes one trial-record payload. @throw Error when malformed. */
JournalRecord
decode_payload(const char *data, std::size_t size)
{
    Decoder d(data, size);
    JournalRecord rec;
    rec.spec.global_index = d.get_u64();
    rec.spec.trial = d.get_u64();
    rec.spec.seed = d.get_u64();
    rec.spec.scenario = d.get_string();
    rec.outcome.status = static_cast<TrialStatus>(d.get_u8());
    rec.outcome.error = d.get_string();
    const std::uint32_t nvalues = d.get_u32();
    for (std::uint32_t i = 0; i < nvalues; ++i) {
        std::string name = d.get_string();
        const double v = d.get_double();
        rec.outcome.result.set_value(std::move(name), v);
    }
    const std::uint32_t ncounters = d.get_u32();
    for (std::uint32_t i = 0; i < ncounters; ++i) {
        std::string name = d.get_string();
        const std::uint64_t v = d.get_u64();
        rec.outcome.result.set_counter(std::move(name), v);
    }
    const std::uint32_t nblocks = d.get_u32();
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        std::string name = d.get_string();
        StatFields fields;
        const std::uint32_t nfields = d.get_u32();
        for (std::uint32_t j = 0; j < nfields; ++j) {
            std::string field = d.get_string();
            fields.emplace_back(std::move(field), d.get_u64());
        }
        rec.outcome.result.set_block(std::move(name), std::move(fields));
    }
    if (!d.exhausted())
        throw Error("journal record payload has trailing bytes");
    return rec;
}

/** Canonical encoding of one trial record's payload. */
std::string
encode_payload(const TrialSpec &spec, const TrialOutcome &outcome)
{
    Encoder e;
    e.put_u64(spec.global_index);
    e.put_u64(spec.trial);
    e.put_u64(spec.seed);
    e.put_string(spec.scenario);
    e.put_u8(static_cast<std::uint8_t>(outcome.status));
    e.put_string(outcome.error);
    const TrialResult &r = outcome.result;
    e.put_u32(static_cast<std::uint32_t>(r.values().size()));
    for (const auto &[name, v] : r.values()) {
        e.put_string(name);
        e.put_double(v);
    }
    e.put_u32(static_cast<std::uint32_t>(r.counters().size()));
    for (const auto &[name, v] : r.counters()) {
        e.put_string(name);
        e.put_u64(v);
    }
    e.put_u32(static_cast<std::uint32_t>(r.blocks().size()));
    for (const StatBlock &b : r.blocks()) {
        e.put_string(b.name);
        e.put_u32(static_cast<std::uint32_t>(b.fields.size()));
        for (const auto &[field, v] : b.fields) {
            e.put_string(field);
            e.put_u64(v);
        }
    }
    return e.bytes;
}

}  // namespace

std::string
journal_path(const std::string &json_out)
{
    return json_out + ".journal";
}

void
write_all(int fd, std::string_view data, const std::string &path)
{
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw Error("write failed")
                .with("path", path)
                .caused_by(std::strerror(errno));
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
}

void
fsync_file(int fd, const std::string &path)
{
    if (::fsync(fd) != 0) {
        throw Error("fsync failed")
            .with("path", path)
            .caused_by(std::strerror(errno));
    }
}

void
fsync_parent_dir(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        std::cerr << "[runner] cannot open directory " << dir
                  << " for fsync: " << std::strerror(errno) << "\n";
        return;
    }
    if (::fsync(fd) != 0) {
        std::cerr << "[runner] cannot fsync directory " << dir << ": "
                  << std::strerror(errno) << "\n";
    }
    ::close(fd);
}

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::open(const std::string &path, const JournalHeader &header,
                    bool append)
{
    close();
    path_ = path;
    const std::string encoded = encode_header(header);
    if (append) {
        fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
        if (fd_ >= 0) {
            // Existing journal: the header must belong to this sweep
            // (read_journal validated it in detail; this is the cheap
            // re-check for the append handle).
            std::string existing(encoded.size(), '\0');
            const ssize_t n = ::read(fd_, existing.data(), existing.size());
            if (n != static_cast<ssize_t>(encoded.size()) ||
                existing != encoded) {
                ::close(fd_);
                fd_ = -1;
                throw Error("journal header does not match this sweep")
                    .with("path", path);
            }
            if (::lseek(fd_, 0, SEEK_END) < 0) {
                ::close(fd_);
                fd_ = -1;
                throw Error("journal seek failed").with("path", path);
            }
            return;
        }
        if (errno != ENOENT) {
            throw Error("cannot open journal")
                .with("path", path)
                .caused_by(std::strerror(errno));
        }
        // Fall through: nothing to resume from; start a fresh journal.
    }
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
        throw Error("cannot create journal")
            .with("path", path)
            .caused_by(std::strerror(errno));
    }
    try {
        write_all(fd_, encoded, path_);
        fsync_file(fd_, path_);
    } catch (const Error &) {
        // A journal whose header never reached the disk resumes nothing;
        // closed, later appends are no-ops.
        ::close(fd_);
        fd_ = -1;
        throw;
    }
    // A journal whose directory entry evaporates on power loss would
    // leave a committed-looking run with nothing to resume from.
    fsync_parent_dir(path_);
}

void
JournalWriter::append(const TrialSpec &spec, const TrialOutcome &outcome)
{
    const std::string payload = encode_payload(spec, outcome);
    Encoder record;
    record.put_u32(static_cast<std::uint32_t>(payload.size()));
    record.put_u64(fnv1a_bytes(payload.data(), payload.size()));
    record.bytes.append(payload);

    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return;
    // One contiguous write then fsync: a crash leaves at most one torn
    // trailing record, which read_journal truncates away on resume.
    write_all(fd_, record.bytes, path_);
    fsync_file(fd_, path_);
}

void
JournalWriter::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::vector<JournalRecord>
read_journal(const std::string &path, const JournalHeader &expect,
             const std::vector<TrialSpec> &plan)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};  // nothing journaled yet: fresh run
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();

    std::size_t header_size = 0;
    const JournalHeader got = decode_header(data, path, header_size);
    validate_header(got, expect, path);

    std::vector<JournalRecord> records;
    std::size_t offset = header_size;
    while (offset < data.size()) {
        const std::size_t record_start = offset;
        constexpr std::size_t kPrefix =
            sizeof(std::uint32_t) + sizeof(std::uint64_t);
        bool torn = data.size() - offset < kPrefix;
        std::uint32_t size = 0;
        std::uint64_t checksum = 0;
        if (!torn) {
            std::memcpy(&size, data.data() + offset, sizeof size);
            std::memcpy(&checksum, data.data() + offset + sizeof size,
                        sizeof checksum);
            torn = data.size() - offset - kPrefix < size;
        }
        if (!torn) {
            const char *payload = data.data() + offset + kPrefix;
            if (fnv1a_bytes(payload, size) != checksum) {
                torn = true;  // corrupt: treat like a torn tail
            } else {
                JournalRecord rec;
                try {
                    rec = decode_payload(payload, size);
                } catch (const Error &) {
                    torn = true;
                }
                if (!torn) {
                    check_against_plan(rec.spec, plan, path);
                    records.push_back(std::move(rec));
                }
            }
        }
        if (torn) {
            std::cerr << "[runner] journal " << path
                      << ": torn record at byte " << record_start
                      << " truncated (recovered " << records.size()
                      << " intact record(s))\n";
            if (::truncate(path.c_str(),
                           static_cast<off_t>(record_start)) != 0) {
                throw Error("cannot truncate torn journal record")
                    .with("path", path)
                    .caused_by(std::strerror(errno));
            }
            break;
        }
        offset += kPrefix + size;
    }
    return records;
}

}  // namespace anvil::runner
