//===- LintCore.h - Concurrency-discipline lint rules -----------*- C++ -*-===//
///
/// \file
/// The rule engine behind `cgc-lint`, the build-time enforcement of the
/// repo's concurrency discipline (DESIGN.md §10). A token-level scanner
/// (comments/strings/preprocessor stripped, no libclang) checks:
///
///   R1  every std::atomic load/store/RMW spells an explicit
///       memory_order (two for compare_exchange); no implicit seq_cst.
///   R2  fences only at the Section-5 sites: raw atomic_thread_fence
///       only inside support/Fences.h, and fence(FenceSite::X) calls
///       only at the documented (file, site) pairs. A fence in the
///       write barrier or card-table fast path is a build error.
///   R3  no hand-rolled compare_exchange retry loops outside support/
///       (use atomicCasLoop / atomicStoreMax / atomicClaimRangeBelow).
///   R4  concurrency documentation: every std::atomic member in the
///       core component headers carries CGC_ATOMIC_DOC or
///       CGC_GUARDED_BY, and std::lock_guard<SpinLock> is banned
///       tree-wide in favour of the analysis-visible SpinLockGuard.
///
/// Suppression: a comment `cgc-lint: allow(R2)` (comma-separated rules,
/// or `all`) suppresses findings on its own line and the next one.
///
/// The library is separate from the CLI so tests/lint_selftest.cpp can
/// drive the rules over fixture snippets.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_TOOLS_LINTCORE_H
#define CGC_TOOLS_LINTCORE_H

#include <string>
#include <vector>

namespace cgclint {

/// One finding. Line and column numbers are 1-based.
struct LintViolation {
  std::string Rule; // "R1".."R4"
  std::string File; // path as passed in (tree-relative for lintTree)
  int Line = 0;
  int Col = 1;
  std::string Message;
};

/// Lints one translation unit. \p RelPath must be the path relative to
/// the source root with '/' separators (rules R2/R3/R4 are
/// path-sensitive); \p Content is the file's text.
std::vector<LintViolation> lintSource(const std::string &RelPath,
                                      const std::string &Content);

/// Walks \p SrcRoot recursively, linting every .h/.cpp file. Paths in
/// the result are relative to \p SrcRoot.
std::vector<LintViolation> lintTree(const std::string &SrcRoot);

/// Formats a finding as "file:line:col: [Rule] message" (the format the
/// CI problem matcher in .github/problem-matchers/ parses).
std::string formatViolation(const LintViolation &V);

/// Renders findings as a JSON array of {file, line, column, rule,
/// message} objects (the `--json` CLI mode).
std::string violationsToJson(const std::vector<LintViolation> &Vs);

} // namespace cgclint

#endif // CGC_TOOLS_LINTCORE_H
