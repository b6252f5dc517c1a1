// Per-window quality ledger: one structured JSONL row per decoded window,
// exported in deterministic sequence order.
//
// The experiment runner (core::run_windows, behind core::run_record and
// link::run_link_record) appends one row per window keyed by the window's
// global sequence number.  Rows carry only
// deterministic facts — measurement counts, sigma, solver iterations,
// convergence, residual, PRD/SNR, link accounting — never wall-clock
// times, so the merged ledger of a run is bit-identical for any thread
// count (wall time lives in the trace and the histograms instead).
//
// Gating mirrors the trace: disabled by default, seeded from the
// CSECG_LEDGER environment variable, toggled with set_ledger_enabled().
// Appends from a disabled call site are the caller's responsibility to
// skip (the runner checks ledger_enabled() before building a row string).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csecg::obs {

/// True while the ledger accepts rows.  Seeded from CSECG_LEDGER.
bool ledger_enabled() noexcept;

/// Enables/disables ledger recording process-wide.
void set_ledger_enabled(bool on) noexcept;

/// A sequence-keyed collection of JSONL rows.  Appends take one mutex
/// (the runner appends at most one row per window, too few to contend);
/// rows are sorted only at export time.
class Ledger {
 public:
  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Appends one row — a complete JSON object without trailing newline —
  /// under sequence key `seq`.  Callers must hand distinct sequences to
  /// rows that should keep a relative order (the runner derives them from
  /// record index × windows-per-record + window index).
  void append(std::uint64_t seq, std::string row);

  /// Every row sorted by (seq, row), each newline-terminated.  The sort
  /// key makes the output independent of append interleaving, hence
  /// bit-identical across thread counts for deterministic row content.
  std::string jsonl() const;

  /// Rows currently buffered.
  std::size_t size() const;

  /// Drops every buffered row.
  void reset();

  /// The process-wide ledger the runner writes to.
  static Ledger& global();

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> rows_;
};

/// Ledger::global().jsonl().
std::string ledger_jsonl();

/// Ledger::global().reset().
void ledger_reset();

/// Ledger::global().size().
std::size_t ledger_size();

/// A window present in both ledgers of a diff whose row differs.
struct LedgerMover {
  std::string kind;
  std::string record;
  std::uint64_t window = 0;
  std::vector<std::string> fields;  ///< Fields whose values differ.
  double delta_snr = 0.0;           ///< new − base "snr" (NaN if null).
  long long delta_iterations = 0;   ///< new − base "iterations".
  bool convergence_flip = false;    ///< "converged" differs.
  bool lost_convergence = false;    ///< "converged" went true → not.
};

/// Window-by-window comparison of two ledgers.
struct LedgerDiff {
  std::size_t matched = 0;  ///< Windows present in both.
  /// Matched windows whose rows differ, in base-ledger order.
  std::vector<LedgerMover> movers;
  /// Malformed, duplicate or unmatched rows.
  std::vector<std::string> problems;
  std::size_t convergence_flips = 0;

  /// Like cmp: 0 when every window matches bit for bit, 1 when some
  /// window differs, 2 when a row is malformed or has no partner.
  int status() const noexcept {
    if (!problems.empty()) return 2;
    return movers.empty() ? 0 : 1;
  }

  /// The same with an SNR tolerance: 0 also when every differing window's
  /// "snr" moved by at most `snr_tol` dB and none lost "converged".
  int status(double snr_tol) const noexcept;
};

/// Diffs two JSONL ledgers.  Rows are matched by ("kind", "record",
/// "window") and compared field by field on their exact JSON text, so two
/// runs that differ only in cycles diff clean.
LedgerDiff diff_ledgers(std::string_view base, std::string_view changed);

}  // namespace csecg::obs
