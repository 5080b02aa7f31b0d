/**
 * @file
 * Structured error type shared across the simulator and the experiment
 * runner.
 *
 * An Error carries a short message, an ordered list of key=value context
 * attachments (scenario name, trial index, seed, file offset, ...), and a
 * flattened cause chain, and renders them all into what(). The rendering
 * is deterministic — the same failure produces the same string on every
 * run — because failure diagnostics end up in journals and sweep JSON,
 * where byte-stability is a tested property.
 */
#ifndef ANVIL_COMMON_ERROR_HH
#define ANVIL_COMMON_ERROR_HH

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

namespace anvil {

/** Exception with attachable context and a cause chain. */
class Error : public std::exception
{
  public:
    explicit Error(std::string message) : message_(std::move(message))
    {
        render();
    }

    /** Attaches a key=value context pair (kept in attachment order). */
    Error &
    with(std::string key, std::string value)
    {
        context_.emplace_back(std::move(key), std::move(value));
        render();
        return *this;
    }

    Error &
    with(std::string key, std::uint64_t value)
    {
        return with(std::move(key), std::to_string(value));
    }

    /** Attaches a key=0x... hex context pair (seeds, addresses). */
    Error &
    with_hex(std::string key, std::uint64_t value)
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(value));
        return with(std::move(key), std::string(buf));
    }

    /**
     * Records @p cause as the underlying failure. A nested Error cause
     * flattens naturally: its what() already renders its own chain.
     */
    Error &
    caused_by(const std::exception &cause)
    {
        cause_ = cause.what();
        render();
        return *this;
    }

    Error &
    caused_by(std::string cause)
    {
        cause_ = std::move(cause);
        render();
        return *this;
    }

    const char *
    what() const noexcept override
    {
        return rendered_.c_str();
    }

    const std::string &message() const { return message_; }
    const std::string &cause() const { return cause_; }

  private:
    void
    render()
    {
        rendered_ = message_;
        if (!context_.empty()) {
            rendered_ += " [";
            for (std::size_t i = 0; i < context_.size(); ++i) {
                if (i != 0)
                    rendered_ += ", ";
                rendered_ += context_[i].first;
                rendered_ += '=';
                rendered_ += context_[i].second;
            }
            rendered_ += ']';
        }
        if (!cause_.empty()) {
            rendered_ += ": caused by: ";
            rendered_ += cause_;
        }
    }

    std::string message_;
    std::vector<std::pair<std::string, std::string>> context_;
    std::string cause_;
    std::string rendered_;
};

/**
 * A trial exceeded its simulated-event budget (see runner::Watchdog).
 * Distinct type so the runner can classify the outcome as timed-out
 * rather than failed.
 */
class TimeoutError : public Error
{
  public:
    using Error::Error;
};

}  // namespace anvil

#endif  // ANVIL_COMMON_ERROR_HH
