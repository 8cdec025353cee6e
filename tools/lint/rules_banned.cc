// The call-level bans (the "banned API" family), one rule id each so
// suppressions stay precise:
//
// raw-mutex       std:: lockables outside common/mutex.h — the wrappers
//                 carry the clang thread-safety capability attributes;
//                 a bare std::mutex is invisible to -Wthread-safety.
// raw-io          ::write / ::fsync outside the posix_io/fault_injection
//                 shims — raw syscalls bypass the crash-injection hooks
//                 the durability tests count on.
// unsafe-call     libc calls that mutate hidden process-global state and
//                 race under the thread pool (lgamma's signgam, strtok,
//                 the static-tm time formatters, the rand family).
// iteration-order unordered containers in serialization paths — their
//                 iteration order is hash-seed-dependent, so anything
//                 they emit byte-for-byte is nondeterministic.
// audit-path      transcendental libm in the scalar X2 kernel — those
//                 functions are not correctly rounded, so results drift
//                 across libm versions; the kernel must stay on +-*/,
//                 sqrt/fma/fabs (IEEE-exact) only.

#include <set>
#include <string>

#include "lint/analyzer.h"

namespace sigsub {
namespace lint {
namespace {

bool HasPrefix(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

void RunRawMutexRule(Analysis* analysis) {
  static const auto* const kNames = new std::set<std::string_view>{
      "mutex",        "timed_mutex", "recursive_mutex",
      "shared_mutex", "lock_guard",  "unique_lock",
      "scoped_lock",  "shared_lock", "condition_variable",
      "condition_variable_any"};
  for (const SourceFile& file : analysis->files) {
    if (file.area != "src" || file.rel == "src/common/mutex.h") continue;
    const auto& tokens = file.lexed.tokens;
    for (size_t i = 2; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier || kNames->count(t.text) == 0) {
        continue;
      }
      // The ban is on the name `std::<lockable>` anywhere, not just in
      // declarations — aliases would otherwise launder the type past it.
      if (IsPunct(tokens, i - 1, "::") && IsIdent(tokens, i - 2, "std")) {
        analysis->Report(
            file, t.line, "raw-mutex",
            "std::" + std::string(t.text) +
                " outside common/mutex.h — use sigsub::Mutex / MutexLock / "
                "CondVar so clang thread-safety analysis sees the lock");
      }
    }
  }
}

void RunRawIoRule(Analysis* analysis) {
  for (const SourceFile& file : analysis->files) {
    if (file.area != "src" || file.rel == "src/common/posix_io.cc" ||
        file.rel == "src/common/fault_injection.cc") {
      continue;
    }
    const auto& tokens = file.lexed.tokens;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier ||
          (t.text != "write" && t.text != "fsync")) {
        continue;
      }
      if (IsPunct(tokens, i - 1, "::") && IsPunct(tokens, i + 1, "(")) {
        analysis->Report(
            file, t.line, "raw-io",
            "raw ::" + std::string(t.text) +
                "() bypasses the fault-injection shim — use "
                "common/posix_io.h WriteFdAll/SyncFd");
      }
    }
  }
}

void RunUnsafeCallRule(Analysis* analysis) {
  static const auto* const kNames = new std::set<std::string_view>{
      "lgamma",    "lgammaf", "lgammal", "strtok", "localtime", "gmtime",
      "asctime",   "ctime",   "rand",    "srand",  "drand48",   "lrand48"};
  for (const SourceFile& file : analysis->files) {
    const auto& tokens = file.lexed.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier || kNames->count(t.text) == 0) {
        continue;
      }
      if (!IsPunct(tokens, i + 1, "(")) continue;
      // Member calls (`gen.rand()`) are some other type's business.
      if (i >= 1 &&
          (IsPunct(tokens, i - 1, ".") || IsPunct(tokens, i - 1, "->"))) {
        continue;
      }
      analysis->Report(
          file, t.line, "unsafe-call",
          std::string(t.text) +
              "() mutates hidden process-global state and races under the "
              "thread pool — use the _r variant or a local "
              "generator/formatter");
    }
  }
}

void RunIterationOrderRule(Analysis* analysis) {
  static const auto* const kNames = new std::set<std::string_view>{
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const SourceFile& file : analysis->files) {
    // Everything persist/ writes is on-disk format; serde.cc and
    // protocol.cc are the wire encoders.
    if (!HasPrefix(file.rel, "src/persist/") &&
        file.rel != "src/api/serde.cc" &&
        file.rel != "src/server/protocol.cc") {
      continue;
    }
    const auto& tokens = file.lexed.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier || kNames->count(t.text) == 0) {
        continue;
      }
      analysis->Report(
          file, t.line, "iteration-order",
          "std::" + std::string(t.text) +
              " in a serialization path — iteration order is hash-seed "
              "dependent, so emitted bytes would be nondeterministic; use "
              "std::map/std::set or sort before emitting");
    }
  }
}

void RunAuditPathRule(Analysis* analysis) {
  static const auto* const kNames = new std::set<std::string_view>{
      "exp",    "expf",  "expm1", "log",  "logf",  "log2",  "log10",
      "log1p",  "pow",   "powf",  "sin",  "cos",   "tan",   "sinh",
      "cosh",   "tanh",  "asin",  "acos", "atan",  "atan2", "tgamma",
      "lgamma", "erf",   "erfc",  "cbrt", "hypot"};
  for (const SourceFile& file : analysis->files) {
    if (file.rel != "src/core/x2_kernel.cc" &&
        file.rel != "src/core/x2_kernel.h") {
      continue;
    }
    const auto& tokens = file.lexed.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier || kNames->count(t.text) == 0) {
        continue;
      }
      if (!IsPunct(tokens, i + 1, "(")) continue;
      if (i >= 1 &&
          (IsPunct(tokens, i - 1, ".") || IsPunct(tokens, i - 1, "->"))) {
        continue;  // Member function of some unrelated type.
      }
      analysis->Report(
          file, t.line, "audit-path",
          std::string(t.text) +
              "() in the scalar X2 kernel path — transcendental libm is "
              "not correctly rounded and drifts across libm versions; the "
              "audit kernel may only use +-*/ and IEEE-exact "
              "sqrt/fma/fabs (hoist the transcendental to the caller)");
    }
  }
}

}  // namespace lint
}  // namespace sigsub
