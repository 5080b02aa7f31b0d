/**
 * @file
 * Registry<T>: an ordered list of named entries, looked up by name. The
 * scenario sweeps, the mitigation trackers and the SPEC workload profiles
 * are each one Registry; T supplies the key as `T::name` and a
 * human-readable `T::kind` ("scenario sweep", ...) for error text.
 */
#ifndef ANVIL_COMMON_REGISTRY_HH
#define ANVIL_COMMON_REGISTRY_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/text.hh"

namespace anvil {

/** Entries in registration order; names are unique. */
template <typename T>
class Registry
{
  public:
    /**
     * @throw std::invalid_argument on a duplicate name, naming the
     *        collision and the already-registered entries.
     */
    void
    add(T entry)
    {
        if (find(entry.name) != nullptr) {
            throw std::invalid_argument(
                std::string("duplicate ") + T::kind + " name '" +
                entry.name + "' — already registered: " + known_names());
        }
        entries_.push_back(std::move(entry));
    }

    /** The entry named @p name, or nullptr. */
    const T *
    find(const std::string &name) const
    {
        for (const T &entry : entries_) {
            if (entry.name == name)
                return &entry;
        }
        return nullptr;
    }

    /**
     * The entry named @p name.
     * @throw std::out_of_range naming every registered entry.
     */
    const T &
    at(const std::string &name) const
    {
        if (const T *entry = find(name))
            return *entry;
        throw std::out_of_range(std::string("unknown ") + T::kind + " '" +
                                name + "' — known: " + known_names());
    }

    const std::vector<T> &all() const { return entries_; }

    /** The registered name nearest @p name (common/text.hh), if any. */
    std::optional<std::string>
    nearest(const std::string &name) const
    {
        std::vector<std::string> names;
        for (const T &entry : entries_)
            names.push_back(entry.name);
        return nearest_name(name, names);
    }

    /**
     * @p error, which reports that @p name is not registered, with the
     * `known` names and, for a near miss, `did_you_mean` attached.
     */
    Error
    unknown(Error error, const std::string &name) const
    {
        error.with("known", known_names());
        if (const auto near = nearest(name))
            error.with("did_you_mean", *near);
        return error;
    }

  private:
    /** Comma-separated registered names, in registration order. */
    std::string
    known_names() const
    {
        std::string names;
        for (const T &entry : entries_)
            names += (names.empty() ? "" : ", ") + entry.name;
        return names;
    }

    std::vector<T> entries_;
};

}  // namespace anvil

#endif  // ANVIL_COMMON_REGISTRY_HH
