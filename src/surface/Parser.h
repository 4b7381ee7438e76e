//===- Parser.h - Recursive-descent parser for the surface lang -*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recursive-descent parser for the surface language. The grammar is a
/// layout-free Haskell subset: declarations are ';'-separated, `where`
/// and `case … of` blocks are brace-delimited. Operators are parsed by
/// precedence climbing over a fixed fixity table; their *meaning* is
/// resolved by the elaborator (primop, class method, or builtin).
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SURFACE_PARSER_H
#define LEVITY_SURFACE_PARSER_H

#include "surface/Ast.h"
#include "surface/Lexer.h"

namespace levity {
namespace surface {

/// The nesting budget, in levels of the surface tree: each parenthesis,
/// lambda binder, let binding, case, if, operator and application nests
/// one. The parser refuses a deeper tree (DiagCode::NestingTooDeep).
inline constexpr unsigned MaxNestingDepth = 128;

/// The same budget in core levels, which the core → L lowering enforces
/// for core built by hand: elaboration at most doubles a tree's depth (an
/// operator application nests its left operand two applications deep; a
/// lambda binder is two levels), plus a few levels at the leaves. Every
/// pass after the lowering recurses at most this deep per global.
inline constexpr unsigned MaxCoreNestingDepth = 2 * MaxNestingDepth + 16;

/// Parses a token stream into an SModule. On error, reports to the
/// engine and attempts recovery at the next ';'.
class Parser {
public:
  Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
      : Toks(std::move(Tokens)), Diags(Diags) {}

  SModule parseModule();

  /// Entry points used by tests and the REPL-style examples.
  STypePtr parseTypeOnly();
  SExprPtr parseExprOnly();

private:
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind K) const { return peek().Kind == K; }
  bool atOp(std::string_view Text) const {
    return (peek().Kind == TokKind::Operator || peek().Kind == TokKind::Dot)
           && peek().Text == Text;
  }
  const Token &advance() { return Toks[Pos < Toks.size() - 1 ? Pos++ : Pos]; }
  bool eat(TokKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind K, std::string_view Context);
  void error(std::string Msg);
  void recoverToSemi();

  // Declarations.
  bool parseDecl(SModule &M);
  SDataDecl parseData();
  SClassDecl parseClass();
  SInstanceDecl parseInstance();
  // Signature or binding (shared prefix).
  void parseSigOrBind(SModule &M);
  SSigDecl parseSigTail(std::string Name, SourceLoc Loc);
  SBindDecl parseBindTail(std::string Name, SourceLoc Loc);

  // Types / kinds / reps.
  STypePtr parseCType(); ///< forall/context type.
  STypePtr parseType();  ///< arrows.
  STypePtr parseBType(); ///< applications.
  STypePtr parseAType(); ///< atoms.
  std::vector<STyBinder> parseTyBinders();
  std::vector<SConstraint> parseContextOpt();
  SKindPtr parseKind();
  SKindPtr parseKindAtom();
  SRep parseRep();

  // Expressions.
  SExprPtr parseExpr();
  SExprPtr parseOpExpr(int MinPrec);
  SExprPtr parseFExpr();
  SExprPtr parseAExpr();
  bool startsAExpr() const;
  SBinder parseBinder();
  SPattern parsePattern();
  SAlt parseAlt();
  std::vector<SLocalBind> parseLetBinds();

  /// One level of the tree, open while a child is parsed.
  struct Level {
    Parser &P;
    explicit Level(Parser &P) : P(P) { ++P.Depth; }
    ~Level() { --P.Depth; }
  };
  /// True when a tree \p Levels deep is over the budget; the first time,
  /// reports DiagCode::NestingTooDeep and abandons the parse (every loop
  /// stops at end of input, and no later error is reported).
  bool tooDeep(unsigned Levels);
  /// Sets \p E's height and refuses it when the levels open above it
  /// make the tree too deep.
  void setHeight(SExpr &E, unsigned Height);

  std::vector<Token> Toks;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Depth = 0; ///< Levels open above the current token.
  bool Abandoned = false;
};

/// Fixity of a (surface) operator; returns false for unknown operators.
bool operatorFixity(std::string_view Op, int &Prec, bool &RightAssoc);

} // namespace surface
} // namespace levity

#endif // LEVITY_SURFACE_PARSER_H
