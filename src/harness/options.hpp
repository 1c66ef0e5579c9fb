#ifndef HYPERCAST_HARNESS_OPTIONS_HPP
#define HYPERCAST_HARNESS_OPTIONS_HPP

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/stepwise.hpp"
#include "fault/fault_set.hpp"
#include "hcube/types.hpp"

namespace hypercast::harness {

/// Minimal --key value / --key=value / --flag command-line parser shared
/// by the CLI tool; kept in the library so it is unit-testable.
class Options {
 public:
  /// Parse argv[first..argc). Throws std::invalid_argument on malformed
  /// input (an option without the leading "--", an empty key). Two value
  /// syntaxes: `--key value` (the value must not start with "--", or it
  /// is taken as the next option) and `--key=value` (the value may be
  /// anything, including strings starting with "--").
  ///
  /// A key may repeat: `--header a:1 --header b:2` accumulates both
  /// values in argv order. Single-value getters (get, get_int, ...)
  /// see the *last* occurrence — "later flags win", so a script can
  /// append overrides to a base command line — while get_all returns
  /// every occurrence for genuinely multi-valued options.
  static Options parse(int argc, const char* const* argv, int first = 1);

  /// Every lookup below (has and count too) marks the key as read, so
  /// reject_unread() knows which flags the caller consumed; the marks
  /// make concurrent lookups on one Options a data race.
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Number of times the key was given (0 when absent).
  std::size_t count(const std::string& key) const {
    const Entry* entry = find(key);
    return entry == nullptr ? 0 : entry->values.size();
  }

  /// True iff the key's last occurrence was a bare `--flag` (no value).
  /// Typed getters reject bare flags with a diagnostic suggesting
  /// `--key=<v>`.
  bool is_bare_flag(const std::string& key) const {
    const Entry* entry = find(key);
    return entry != nullptr && entry->bare;
  }

  /// Value lookups; `get` throws std::invalid_argument when the key is
  /// missing, the *_or forms substitute a default. For repeated keys
  /// these return the last occurrence; use get_all for all of them.
  std::string get(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;

  /// Every value given for the key, in argv order (empty vector when the
  /// key is absent). Bare occurrences contribute "true".
  std::vector<std::string> get_all(const std::string& key) const;
  long get_int(const std::string& key) const;
  long get_int_or(const std::string& key, long fallback) const;
  double get_double(const std::string& key) const;

  /// Comma-separated node list, e.g. "3,5,12".
  std::vector<hcube::NodeId> get_nodes(const std::string& key) const;

  /// "high" / "low" -> Resolution. Defaults to HighToLow.
  hcube::Resolution resolution() const;

  /// "one", "all" or "k:<n>" -> PortModel. Defaults to all-port.
  core::PortModel port() const;

  /// Fault-injection flags shared by the CLI and benches:
  ///   --faults <k|p>       k >= 1 random failed links, or a link fault
  ///                        rate p in (0, 1) (seeded by --fault-seed,
  ///                        default 1)
  ///   --fail-links u:d,... explicit links (low endpoint : dimension)
  ///   --fail-nodes a,b     explicit dead nodes
  /// The three compose. Returns nullopt when none is present.
  std::optional<fault::FaultSet> fault_set(const hcube::Topology& topo) const;

  /// Schedule-cache flags shared by the CLI and the bench runner:
  ///   --cache-shards n     lock stripes (0 = auto)
  ///   --cache-bytes b      total byte budget across shards
  /// Kept as a plain struct so the harness stays independent of the
  /// coll layer; callers translate it into coll::ScheduleCache::Config.
  struct CacheOptions {
    std::size_t shards = 0;    ///< 0 = auto
    std::size_t max_bytes = 0; ///< 0 = library default
  };

  /// Parse the cache flags. Throws std::invalid_argument for a negative
  /// count and for --cache in any spelling: every pipeline caches, so
  /// the on|off switch is gone, and a leftover flag must not be
  /// silently ignored.
  CacheOptions cache() const;

  /// Typo detection: throws std::invalid_argument naming every given
  /// flag no lookup has read yet. A tool calls it once it has read all
  /// its options, before it starts work, so a misspelled or unsupported
  /// flag fails instead of being silently ignored.
  void reject_unread() const;

 private:
  struct Entry {
    std::vector<std::string> values;  ///< one per occurrence, argv order
    bool bare = false;  ///< last occurrence was `--flag` (value "true")
    mutable bool read = false;  ///< some lookup asked for this key

    const std::string& last() const { return values.back(); }
  };

  /// The key's entry (nullptr when absent), marked as read.
  const Entry* find(const std::string& key) const;

  /// Value lookup for typed getters: throws for missing keys and for
  /// bare flags (`what` names the expected value kind).
  const std::string& typed_value(const std::string& key,
                                 const char* what) const;

  std::map<std::string, Entry> values_;  ///< in key order, as reject_unread lists
};

}  // namespace hypercast::harness

#endif  // HYPERCAST_HARNESS_OPTIONS_HPP
