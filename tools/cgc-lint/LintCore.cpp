//===- LintCore.cpp - Concurrency-discipline lint rules ----------------------//

#include "LintCore.h"

#include "Lexer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace cgclint;

namespace {

/// Line -> rules suppressed by a `cgc-lint: allow(...)` comment there.
using SuppressionMap = std::map<int, std::set<std::string>>;

void recordSuppression(SuppressionMap &Allowed, const std::string &Comment,
                       int Line) {
  const std::string Key = "cgc-lint:";
  size_t At = Comment.find(Key);
  if (At == std::string::npos)
    return;
  size_t Open = Comment.find("allow(", At);
  if (Open == std::string::npos)
    return;
  size_t Close = Comment.find(')', Open);
  if (Close == std::string::npos)
    return;
  std::string Rules = Comment.substr(Open + 6, Close - Open - 6);
  std::stringstream SS(Rules);
  std::string Rule;
  while (std::getline(SS, Rule, ',')) {
    Rule.erase(std::remove_if(Rule.begin(), Rule.end(), ::isspace),
               Rule.end());
    if (!Rule.empty())
      Allowed[Line].insert(Rule);
  }
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

struct RuleContext {
  const std::string &Path;
  const Lexed &L;
  const SuppressionMap &Allowed;
  std::vector<LintViolation> &Out;

  bool suppressed(const std::string &Rule, int Line) const {
    for (int Probe : {Line, Line - 1}) {
      auto It = Allowed.find(Probe);
      if (It == Allowed.end())
        continue;
      if (It->second.count(Rule) || It->second.count("all"))
        return true;
    }
    return false;
  }

  void report(const std::string &Rule, const Token &At,
              const std::string &Msg) {
    if (!suppressed(Rule, At.Line))
      Out.push_back({Rule, Path, At.Line, At.Col, Msg});
  }
};

//===----------------------------------------------------------------------===//
// R1: explicit memory orders on every atomic access
//===----------------------------------------------------------------------===//

const std::set<std::string> &atomicOps() {
  static const std::set<std::string> Ops = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "test_and_set",  "compare_exchange_weak",
      "compare_exchange_strong"};
  return Ops;
}

void checkR1(RuleContext &C) {
  const auto &T = C.L.Toks;
  for (size_t I = 0; I + 2 < T.size(); ++I) {
    if (T[I].Kind != Token::Punct || (T[I].Text != "." && T[I].Text != "->"))
      continue;
    if (T[I + 1].Kind != Token::Ident || !atomicOps().count(T[I + 1].Text))
      continue;
    if (T[I + 2].Kind != Token::Punct || T[I + 2].Text != "(")
      continue;
    size_t Close = matchParen(T, I + 2);
    // Count memory_order arguments at the call's own depth only, so an
    // inner atomic call's order cannot vouch for the outer call.
    int Depth = 0, Orders = 0;
    for (size_t J = I + 2; J <= Close && J < T.size(); ++J) {
      if (T[J].Kind == Token::Punct) {
        if (T[J].Text == "(")
          ++Depth;
        else if (T[J].Text == ")")
          --Depth;
        continue;
      }
      if (Depth == 1 && T[J].Kind == Token::Ident &&
          startsWith(T[J].Text, "memory_order"))
        ++Orders;
    }
    const std::string &Op = T[I + 1].Text;
    int Needed = startsWith(Op, "compare_exchange") ? 2 : 1;
    if (Orders < Needed)
      C.report("R1", T[I + 1],
               Op + "() without " + (Needed == 2 ? "success+failure " : "") +
                   "explicit std::memory_order (implicit seq_cst)");
  }
}

//===----------------------------------------------------------------------===//
// R2: fences only at the Section-5 sites
//===----------------------------------------------------------------------===//

/// Files where raw atomic_thread_fence may appear (the one wrapper).
bool rawFenceAllowed(const std::string &Path) {
  return Path == "support/Fences.h" || Path == "support/Fences.cpp";
}

/// The documented Section-5 fence allowlist: (file, FenceSite) pairs.
/// Everything else — most importantly the write barrier
/// (heap/CardTable.h) and the allocation fast path — must stay fence
/// free (paper Sections 5.1-5.3; DESIGN.md §10 maps each entry).
const std::set<std::pair<std::string, std::string>> &fenceAllowlist() {
  static const std::set<std::pair<std::string, std::string>> A = {
      {"heap/AllocationCache.h", "AllocCacheFlush"},   // 5.2 cache flush
      {"runtime/GcHeap.cpp", "AllocCacheFlush"},       // 5.2 large object
      {"workpackets/PacketPool.cpp", "PacketPublish"}, // 5.1 packet publish
      {"gc/Tracer.cpp", "TracerBatch"},                // 5.1 tracer batch
      {"gc/CardCleaner.cpp", "CardTableHandshake"},    // 5.3 registrar
      {"mutator/ThreadRegistry.cpp", "CardTableHandshake"}, // 5.3 ack
      {"mutator/ThreadRegistry.cpp", "StopTheWorld"},  // park/resume edges
  };
  return A;
}

void checkR2(RuleContext &C) {
  const auto &T = C.L.Toks;
  bool FastPathFile = startsWith(C.Path, "heap/CardTable");
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].Kind != Token::Ident)
      continue;
    if (T[I].Text == "atomic_thread_fence" || T[I].Text == "atomic_signal_fence") {
      if (!rawFenceAllowed(C.Path))
        C.report("R2", T[I],
                 "raw " + T[I].Text +
                     " outside support/Fences.h (use fence(FenceSite::...))");
      continue;
    }
    if (T[I].Text != "fence")
      continue;
    if (I + 1 >= T.size() || T[I + 1].Kind != Token::Punct ||
        T[I + 1].Text != "(")
      continue;
    // Don't confuse a member/qualified name ending in ...fence — only a
    // bare call (or one qualified with cgc::) counts.
    if (I > 0 && T[I - 1].Kind == Token::Punct &&
        (T[I - 1].Text == "." || T[I - 1].Text == "->"))
      continue;
    if (rawFenceAllowed(C.Path))
      continue; // The wrapper's own declaration/definition.
    size_t Close = matchParen(T, I + 1);
    // Find the FenceSite::Name literal inside the argument list.
    std::string Site;
    for (size_t J = I + 2; J + 2 < T.size() && J < Close; ++J)
      if (T[J].Kind == Token::Ident && T[J].Text == "FenceSite" &&
          T[J + 1].Text == "::" && T[J + 2].Kind == Token::Ident) {
        Site = T[J + 2].Text;
        break;
      }
    if (Site.empty()) {
      C.report("R2", T[I],
               "fence() with a non-literal site: spell fence(FenceSite::X) "
               "so the allowlist can check it");
      continue;
    }
    if (!fenceAllowlist().count({C.Path, Site})) {
      std::string Msg = "fence(FenceSite::" + Site + ") is not on the "
                        "Section-5 allowlist for " + C.Path;
      if (FastPathFile)
        Msg = "fence in the write-barrier/card-table fast path — the "
              "paper's Section 5 discipline requires this path fence free";
      C.report("R2", T[I], Msg);
    }
  }
}

//===----------------------------------------------------------------------===//
// R3: CAS retry loops only via the shared support/ helpers
//===----------------------------------------------------------------------===//

void checkR3(RuleContext &C) {
  if (startsWith(C.Path, "support/"))
    return; // The helpers themselves live here.
  const auto &T = C.L.Toks;
  struct Scope {
    char Kind; // '(' or '{'
    bool Loop;
  };
  std::vector<Scope> Stack;
  bool PendingLoopHead = false; // saw for/while, waiting for its '('
  bool PendingLoopBody = false; // loop head closed, waiting for body
  auto inLoop = [&]() {
    if (PendingLoopBody)
      return true;
    for (const Scope &S : Stack)
      if (S.Loop)
        return true;
    return false;
  };
  for (const Token &Tok : T) {
    if (Tok.Kind == Token::Ident) {
      if (Tok.Text == "for" || Tok.Text == "while")
        PendingLoopHead = true;
      else if (Tok.Text == "do")
        PendingLoopBody = true;
      else if (startsWith(Tok.Text, "compare_exchange") && inLoop())
        C.report("R3", Tok,
                 "hand-rolled " + Tok.Text +
                     " retry loop: use atomicCasLoop/atomicStoreMax/"
                     "atomicClaimRangeBelow from support/Atomics.h");
      continue;
    }
    if (Tok.Kind != Token::Punct)
      continue;
    const std::string &P = Tok.Text;
    if (P == "(") {
      Stack.push_back({'(', PendingLoopHead});
      PendingLoopHead = false;
    } else if (P == ")") {
      while (!Stack.empty() && Stack.back().Kind != '(')
        Stack.pop_back();
      if (!Stack.empty()) {
        if (Stack.back().Loop)
          PendingLoopBody = true;
        Stack.pop_back();
      }
    } else if (P == "{") {
      Stack.push_back({'{', PendingLoopBody});
      PendingLoopBody = false;
    } else if (P == "}") {
      while (!Stack.empty() && Stack.back().Kind != '{')
        Stack.pop_back();
      if (!Stack.empty())
        Stack.pop_back();
    } else if (P == ";" && PendingLoopBody) {
      // Single-statement loop body (no braces) ends here.
      PendingLoopBody = false;
    }
  }
}

//===----------------------------------------------------------------------===//
// R4: documented atomics in component headers; SpinLockGuard only
//===----------------------------------------------------------------------===//

/// Headers whose every std::atomic member must carry CGC_ATOMIC_DOC or
/// CGC_GUARDED_BY: the components the paper's protocols live in.
bool annotatedHeader(const std::string &Path) {
  static const std::set<std::string> Headers = {
      "support/SpinLock.h",    "heap/FreeList.h",
      "heap/ShardedFreeList.h", "workpackets/PacketPool.h",
      "mutator/ThreadRegistry.h", "mutator/MutatorContext.h",
      "gc/Pacer.h",            "gc/Compactor.h",
      "observe/EventRing.h",   "observe/Observe.h",
      "observe/MetricsRegistry.h"};
  return Headers.count(Path) != 0;
}

void checkR4(RuleContext &C) {
  const auto &T = C.L.Toks;
  // R4b (tree-wide): std::lock_guard<SpinLock> is invisible to the
  // thread-safety analysis; SpinLockGuard is the annotated equivalent.
  for (size_t I = 0; I + 3 < T.size(); ++I)
    if (T[I].Kind == Token::Ident && T[I].Text == "lock_guard" &&
        T[I + 1].Text == "<" && T[I + 2].Kind == Token::Ident &&
        T[I + 2].Text == "SpinLock")
      C.report("R4", T[I],
               "std::lock_guard<SpinLock> bypasses the thread-safety "
               "analysis: use cgc::SpinLockGuard");

  if (!annotatedHeader(C.Path))
    return;
  // R4a: scan declaration fragments (token runs between ; { }) for
  // atomic members lacking a CGC_ATOMIC_DOC / CGC_GUARDED_BY claim.
  size_t Start = 0;
  for (size_t I = 0; I <= T.size(); ++I) {
    bool Boundary =
        I == T.size() || (T[I].Kind == Token::Punct &&
                          (T[I].Text == ";" || T[I].Text == "{" ||
                           T[I].Text == "}"));
    if (!Boundary)
      continue;
    // Fragment [Start, I).
    bool HasAtomicType = false, HasClaim = false, LooksLikeFunction = false;
    size_t AtomicTok = 0;
    for (size_t J = Start; J + 1 < I; ++J) {
      if (T[J].Kind != Token::Ident)
        continue;
      if (startsWith(T[J].Text, "CGC_")) {
        if (T[J].Text == "CGC_ATOMIC_DOC" || T[J].Text == "CGC_GUARDED_BY")
          HasClaim = true;
        // Skip the macro's own parenthesized argument.
        if (J + 1 < I && T[J + 1].Text == "(") {
          size_t Close = matchParen(T, J + 1);
          J = Close < I ? Close : I - 1;
        }
        continue;
      }
      if (T[J].Text == "atomic" && J + 1 < I && T[J + 1].Text == "<") {
        HasAtomicType = true;
        AtomicTok = J;
        continue;
      }
      if (J + 1 < I && T[J + 1].Kind == Token::Punct && T[J + 1].Text == "(")
        LooksLikeFunction = true; // signature, not a member declaration
    }
    if (HasAtomicType && !LooksLikeFunction && !HasClaim)
      C.report("R4", T[AtomicTok],
               "std::atomic member in a core component header without "
               "CGC_ATOMIC_DOC/CGC_GUARDED_BY (who touches it, and why "
               "these orders suffice?)");
    Start = I + 1;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

std::vector<LintViolation> cgclint::lintSource(const std::string &RelPath,
                                               const std::string &Content) {
  Lexed L = lex(Content);
  SuppressionMap Allowed;
  for (const Comment &Cm : L.Comments)
    recordSuppression(Allowed, Cm.Text, Cm.Line);
  std::vector<LintViolation> Out;
  RuleContext C{RelPath, L, Allowed, Out};
  checkR1(C);
  checkR2(C);
  checkR3(C);
  checkR4(C);
  std::sort(Out.begin(), Out.end(),
            [](const LintViolation &A, const LintViolation &B) {
              if (A.File != B.File)
                return A.File < B.File;
              if (A.Line != B.Line)
                return A.Line < B.Line;
              return A.Rule < B.Rule;
            });
  return Out;
}

std::vector<LintViolation> cgclint::lintTree(const std::string &SrcRoot) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  for (const auto &Entry : fs::recursive_directory_iterator(SrcRoot)) {
    if (!Entry.is_regular_file())
      continue;
    std::string Ext = Entry.path().extension().string();
    if (Ext != ".h" && Ext != ".cpp")
      continue;
    Files.push_back(
        fs::relative(Entry.path(), SrcRoot).generic_string());
  }
  std::sort(Files.begin(), Files.end());
  std::vector<LintViolation> Out;
  for (const std::string &Rel : Files) {
    std::ifstream In(fs::path(SrcRoot) / Rel);
    std::stringstream SS;
    SS << In.rdbuf();
    auto Part = lintSource(Rel, SS.str());
    Out.insert(Out.end(), Part.begin(), Part.end());
  }
  return Out;
}

std::string cgclint::formatViolation(const LintViolation &V) {
  return V.File + ":" + std::to_string(V.Line) + ":" + std::to_string(V.Col) +
         ": [" + V.Rule + "] " + V.Message;
}

std::string cgclint::violationsToJson(const std::vector<LintViolation> &Vs) {
  auto Escape = [](const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (C == '\n') {
        Out += "\\n";
        continue;
      }
      Out += C;
    }
    return Out;
  };
  std::string Out = "[";
  for (size_t I = 0; I < Vs.size(); ++I) {
    const LintViolation &V = Vs[I];
    if (I)
      Out += ",";
    Out += "\n  {\"file\": \"" + Escape(V.File) +
           "\", \"line\": " + std::to_string(V.Line) +
           ", \"column\": " + std::to_string(V.Col) + ", \"rule\": \"" +
           Escape(V.Rule) + "\", \"message\": \"" + Escape(V.Message) + "\"}";
  }
  Out += Vs.empty() ? "]\n" : "\n]\n";
  return Out;
}
