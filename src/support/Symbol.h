//===- Symbol.h - Interned identifiers --------------------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifiers. A Symbol is a cheap value type (one pointer) with
/// O(1) equality and hashing; the backing strings live in a SymbolTable's
/// arena. Names in every calculus (term variables, type variables, rep
/// variables, constructors) are Symbols.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SUPPORT_SYMBOL_H
#define LEVITY_SUPPORT_SYMBOL_H

#include "support/Arena.h"

#include <cassert>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace levity {

class SymbolTable;

/// An interned identifier; equality is pointer equality.
class Symbol {
public:
  Symbol() = default;

  std::string_view str() const {
    assert(Data && "querying the empty symbol");
    return {Data, Len};
  }

  bool valid() const { return Data != nullptr; }

  friend bool operator==(Symbol A, Symbol B) { return A.Data == B.Data; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Data != B.Data; }
  /// A stable, deterministic order (interning order), suitable for sorted
  /// output. Not lexicographic.
  friend bool operator<(Symbol A, Symbol B) { return A.Seq < B.Seq; }

  size_t hash() const { return std::hash<const void *>()(Data); }

private:
  friend class SymbolTable;
  Symbol(const char *Data, uint32_t Len, uint32_t Seq)
      : Data(Data), Len(Len), Seq(Seq) {}

  const char *Data = nullptr;
  uint32_t Len = 0;
  uint32_t Seq = 0;
};

struct SymbolHash {
  size_t operator()(Symbol S) const { return S.hash(); }
};

/// Owns interned identifier strings and hands out Symbols. Internally
/// synchronized: interning and freshening may be called from many threads
/// (e.g. concurrent abstract-machine runs sharing one context's name
/// supply). Symbols themselves are immutable values and need no locking.
///
/// A table may be a child of a frozen parent table: names the parent
/// holds resolve to the parent's Symbols (a lock-free read, since nothing
/// writes a frozen table), fresh names avoid them, and the child's Seq
/// numbers and fresh counter continue where the parent's stopped. The
/// parent must outlive the child.
class SymbolTable {
public:
  explicit SymbolTable(const SymbolTable *Parent = nullptr)
      : Parent(Parent) {
    if (!Parent)
      return;
    assert(Parent->Frozen && "a parent table must be frozen");
    FirstSeq = Parent->FirstSeq + static_cast<uint32_t>(Parent->Map.size());
    FreshCounter = Parent->FreshCounter;
  }
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Interns \p Name, returning the unique Symbol for it.
  Symbol intern(std::string_view Name) {
    if (const Symbol *S = findInParents(Name))
      return *S;
    std::lock_guard<std::mutex> Lock(Mutex);
    return internLocked(Name);
  }

  /// Interns a name guaranteed distinct from every symbol interned so far,
  /// derived from \p Base (e.g. "x" -> "x'3"). Used by capture-avoiding
  /// substitution and the ANF compiler's fresh-variable supply.
  Symbol fresh(std::string_view Base) {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::string Candidate(Base);
    while (findInParents(Candidate) || Map.count(Candidate))
      Candidate = std::string(Base) + "'" + std::to_string(FreshCounter++);
    return internLocked(Candidate);
  }

  /// Forbids every later write, so that child tables may read this one
  /// without locking.
  void freeze() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Frozen = true;
  }

  /// The number of names this table itself holds (its parent's excluded).
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Map.size();
  }

private:
  const Symbol *findInParents(std::string_view Name) const {
    for (const SymbolTable *P = Parent; P; P = P->Parent) {
      auto It = P->Map.find(Name);
      if (It != P->Map.end())
        return &It->second;
    }
    return nullptr;
  }

  Symbol internLocked(std::string_view Name) {
    auto It = Map.find(Name);
    if (It != Map.end())
      return It->second;
    assert(!Frozen && "interning into a frozen symbol table");
    char *Mem = static_cast<char *>(Strings.allocate(Name.size() + 1, 1));
    std::memcpy(Mem, Name.data(), Name.size());
    Mem[Name.size()] = '\0';
    Symbol S(Mem, static_cast<uint32_t>(Name.size()),
             FirstSeq + static_cast<uint32_t>(Map.size()));
    Map.emplace(std::string_view(Mem, Name.size()), S);
    return S;
  }

  const SymbolTable *const Parent;
  uint32_t FirstSeq = 0;
  bool Frozen = false;
  mutable std::mutex Mutex;
  Arena Strings;
  std::unordered_map<std::string_view, Symbol> Map;
  uint64_t FreshCounter = 0;
};

} // namespace levity

#endif // LEVITY_SUPPORT_SYMBOL_H
