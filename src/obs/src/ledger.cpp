#include "csecg/obs/ledger.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "env.hpp"

namespace csecg::obs {
namespace {

std::atomic<bool>& ledger_flag() {
  static std::atomic<bool> flag{env_truthy("CSECG_LEDGER")};
  return flag;
}

}  // namespace

bool ledger_enabled() noexcept {
  return ledger_flag().load(std::memory_order_relaxed);
}

void set_ledger_enabled(bool on) noexcept {
  ledger_flag().store(on, std::memory_order_relaxed);
}

void Ledger::append(std::uint64_t seq, std::string row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  rows_.emplace_back(seq, std::move(row));
}

std::string Ledger::jsonl() const {
  std::vector<std::pair<std::uint64_t, std::string>> sorted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sorted = rows_;
  }
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [seq, row] : sorted) {
    out += row;
    out += '\n';
  }
  return out;
}

std::size_t Ledger::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

void Ledger::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  rows_.clear();
}

Ledger& Ledger::global() {
  // Leaked for the same reason as Registry::global().
  static Ledger* ledger = new Ledger();
  return *ledger;
}

std::string ledger_jsonl() { return Ledger::global().jsonl(); }

void ledger_reset() { Ledger::global().reset(); }

std::size_t ledger_size() { return Ledger::global().size(); }

namespace {

/// A ledger row's top-level fields, values kept as their raw JSON text.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// Splits a flat JSON object (string, number, bool and null values — what
/// the ledger writes) into its fields; nullopt if the line is not one.
std::optional<Fields> split_row(std::string_view line) {
  std::size_t i = 0;
  const auto skip_space = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\r')) {
      ++i;
    }
  };
  // A quoted string starting at i, returned with its quotes.
  const auto string_token = [&]() -> std::optional<std::string_view> {
    const std::size_t start = i++;
    while (i < line.size() && line[i] != '"') i += line[i] == '\\' ? 2 : 1;
    if (i >= line.size()) return std::nullopt;
    ++i;
    return line.substr(start, i - start);
  };
  Fields fields;
  skip_space();
  if (i >= line.size() || line[i++] != '{') return std::nullopt;
  skip_space();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_space();
      if (i >= line.size() || line[i] != '"') return std::nullopt;
      const auto key = string_token();
      if (!key) return std::nullopt;
      skip_space();
      if (i >= line.size() || line[i++] != ':') return std::nullopt;
      skip_space();
      std::string_view value;
      if (i < line.size() && line[i] == '"') {
        const auto text = string_token();
        if (!text) return std::nullopt;
        value = *text;
      } else {
        const std::size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' &&
               line[i] != ' ') {
          if (line[i] == '{' || line[i] == '[' || line[i] == '"') {
            return std::nullopt;
          }
          ++i;
        }
        value = line.substr(start, i - start);
        if (value.empty()) return std::nullopt;
      }
      fields.emplace_back(std::string(key->substr(1, key->size() - 2)),
                          std::string(value));
      skip_space();
      if (i >= line.size()) return std::nullopt;
      if (line[i] == '}') {
        ++i;
        break;
      }
      if (line[i++] != ',') return std::nullopt;
    }
  }
  skip_space();
  if (i != line.size()) return std::nullopt;
  return fields;
}

const std::string* find_field(const Fields& fields, std::string_view name) {
  for (const auto& [key, value] : fields) {
    if (key == name) return &value;
  }
  return nullptr;
}

double number_or_nan(const std::string* text) {
  double value = std::numeric_limits<double>::quiet_NaN();
  if (text != nullptr) {
    std::from_chars(text->data(), text->data() + text->size(), value);
  }
  return value;
}

long long integer_or_zero(const std::string* text) {
  long long value = 0;
  if (text != nullptr) {
    std::from_chars(text->data(), text->data() + text->size(), value);
  }
  return value;
}

/// (kind, record, window): what identifies a row across two ledgers.
using RowKey = std::tuple<std::string, std::string, std::uint64_t>;

struct KeyedRow {
  RowKey key;
  Fields fields;
};

std::string describe(const RowKey& key) {
  return std::get<0>(key) + " " + std::get<1>(key) + " window " +
         std::to_string(std::get<2>(key));
}

/// Parses every non-empty line into keyed rows; malformed lines and
/// repeated keys land in `problems`, tagged with `side` and line number.
std::vector<KeyedRow> keyed_rows(std::string_view text, const char* side,
                                 std::vector<std::string>& problems) {
  std::vector<KeyedRow> rows;
  std::set<RowKey> seen;
  std::size_t line_no = 0;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(std::min(end + 1, text.size()));
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    const std::string where =
        std::string(side) + " line " + std::to_string(line_no);
    auto fields = split_row(line);
    const std::string* kind = fields ? find_field(*fields, "kind") : nullptr;
    const std::string* record =
        fields ? find_field(*fields, "record") : nullptr;
    const std::string* window =
        fields ? find_field(*fields, "window") : nullptr;
    std::uint64_t index = 0;
    const bool window_ok =
        window != nullptr &&
        std::from_chars(window->data(), window->data() + window->size(),
                        index)
                .ptr == window->data() + window->size();
    if (kind == nullptr || record == nullptr || !window_ok) {
      problems.push_back(where +
                         ": malformed row (needs kind, record and window)");
      continue;
    }
    RowKey key{kind->substr(1, kind->size() - 2),
               record->substr(1, record->size() - 2), index};
    if (!seen.insert(key).second) {
      problems.push_back(where + ": duplicate row for " + describe(key));
      continue;
    }
    rows.push_back({std::move(key), std::move(*fields)});
  }
  return rows;
}

}  // namespace

int LedgerDiff::status(double snr_tol) const noexcept {
  if (!problems.empty()) return 2;
  for (const LedgerMover& m : movers) {
    const bool snr_same =
        std::find(m.fields.begin(), m.fields.end(), "snr") == m.fields.end();
    if (m.lost_convergence ||
        !(snr_same || std::abs(m.delta_snr) <= snr_tol)) {
      return 1;
    }
  }
  return 0;
}

LedgerDiff diff_ledgers(std::string_view base, std::string_view changed) {
  LedgerDiff diff;
  const std::vector<KeyedRow> old_rows =
      keyed_rows(base, "base", diff.problems);
  const std::vector<KeyedRow> new_rows =
      keyed_rows(changed, "new", diff.problems);
  std::map<RowKey, const KeyedRow*> by_key;
  for (const KeyedRow& row : new_rows) by_key.emplace(row.key, &row);
  for (const KeyedRow& old_row : old_rows) {
    const auto it = by_key.find(old_row.key);
    if (it == by_key.end()) {
      diff.problems.push_back("only in base: " + describe(old_row.key));
      continue;
    }
    const KeyedRow& new_row = *it->second;
    by_key.erase(it);
    ++diff.matched;

    LedgerMover mover;
    for (const auto& [key, value] : old_row.fields) {
      const std::string* other = find_field(new_row.fields, key);
      if (other == nullptr || *other != value) mover.fields.push_back(key);
    }
    for (const auto& [key, value] : new_row.fields) {
      if (find_field(old_row.fields, key) == nullptr) {
        mover.fields.push_back(key);
      }
    }
    if (mover.fields.empty()) continue;
    std::tie(mover.kind, mover.record, mover.window) = old_row.key;
    mover.delta_snr = number_or_nan(find_field(new_row.fields, "snr")) -
                      number_or_nan(find_field(old_row.fields, "snr"));
    mover.delta_iterations =
        integer_or_zero(find_field(new_row.fields, "iterations")) -
        integer_or_zero(find_field(old_row.fields, "iterations"));
    const std::string* old_converged = find_field(old_row.fields, "converged");
    const std::string* new_converged = find_field(new_row.fields, "converged");
    mover.convergence_flip =
        (old_converged == nullptr) != (new_converged == nullptr) ||
        (old_converged != nullptr && *old_converged != *new_converged);
    mover.lost_convergence = old_converged != nullptr &&
                             *old_converged == "true" &&
                             mover.convergence_flip;
    diff.convergence_flips += mover.convergence_flip;
    diff.movers.push_back(std::move(mover));
  }
  for (const auto& [key, row] : by_key) {
    diff.problems.push_back("only in new: " + describe(key));
  }
  return diff;
}

}  // namespace csecg::obs
