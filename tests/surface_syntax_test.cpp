//===- surface_syntax_test.cpp - Lexer and parser tests -------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "surface/Parser.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::surface;

namespace {

std::vector<Token> lex(std::string_view Src, DiagnosticEngine &Diags) {
  Lexer L(Src, Diags);
  return L.lexAll();
}

TEST(LexerTest, MagicHashLiterals) {
  DiagnosticEngine D;
  std::vector<Token> T = lex("42 42# 3.14 3.14## 0#", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  EXPECT_EQ(T[0].Kind, TokKind::IntLit);
  EXPECT_EQ(T[0].IntValue, 42);
  EXPECT_EQ(T[1].Kind, TokKind::IntHashLit);
  EXPECT_EQ(T[1].IntValue, 42);
  EXPECT_EQ(T[2].Kind, TokKind::DoubleLit);
  EXPECT_EQ(T[3].Kind, TokKind::DoubleHashLit);
  EXPECT_DOUBLE_EQ(T[3].DoubleValue, 3.14);
  EXPECT_EQ(T[4].Kind, TokKind::IntHashLit);
}

// A literal past the range of its type is a lexer diagnostic, not an
// exception out of the front end.
TEST(LexerTest, OutOfRangeLiteralsAreLexErrors) {
  const std::string Big(400, '9');
  const std::pair<std::string, bool> Cases[] = {
      {"9223372036854775807#", true}, // INT64_MAX
      {"9223372036854775808#", false},
      {Big + "#", false},
      {Big + ".5##", false},
      {"1." + Big + "##", true}, // Rounds to 2.0.
  };
  for (const auto &[Src, InRange] : Cases) {
    DiagnosticEngine D;
    lex(Src, D);
    EXPECT_EQ(D.hasError(DiagCode::LexError), !InRange) << Src << D.str();
  }
}

TEST(LexerTest, HashSuffixedNames) {
  DiagnosticEngine D;
  std::vector<Token> T = lex("Int# sumTo# x", D);
  EXPECT_EQ(T[0].Kind, TokKind::ConId);
  EXPECT_EQ(T[0].Text, "Int#");
  EXPECT_EQ(T[1].Kind, TokKind::VarId);
  EXPECT_EQ(T[1].Text, "sumTo#");
  EXPECT_EQ(T[2].Text, "x");
}

TEST(LexerTest, UnboxedTupleDelimiters) {
  DiagnosticEngine D;
  std::vector<Token> T = lex("(# 1#, x #)", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  EXPECT_EQ(T[0].Kind, TokKind::LHashParen);
  EXPECT_EQ(T[1].Kind, TokKind::IntHashLit);
  EXPECT_EQ(T[2].Kind, TokKind::Comma);
  EXPECT_EQ(T[3].Kind, TokKind::VarId);
  EXPECT_EQ(T[4].Kind, TokKind::RHashParen);
}

TEST(LexerTest, OperatorsAndPunctuation) {
  DiagnosticEngine D;
  std::vector<Token> T = lex("-> => :: = | . +# ==## $ \\", D);
  EXPECT_EQ(T[0].Kind, TokKind::Arrow);
  EXPECT_EQ(T[1].Kind, TokKind::DArrow);
  EXPECT_EQ(T[2].Kind, TokKind::DColon);
  EXPECT_EQ(T[3].Kind, TokKind::Equals);
  EXPECT_EQ(T[4].Kind, TokKind::Pipe);
  EXPECT_EQ(T[5].Kind, TokKind::Dot);
  EXPECT_EQ(T[6].Kind, TokKind::Operator);
  EXPECT_EQ(T[6].Text, "+#");
  EXPECT_EQ(T[7].Kind, TokKind::Operator);
  EXPECT_EQ(T[7].Text, "==##");
  EXPECT_EQ(T[8].Kind, TokKind::Operator);
  EXPECT_EQ(T[9].Kind, TokKind::Backslash);
}

TEST(LexerTest, CommentsAndStrings) {
  DiagnosticEngine D;
  std::vector<Token> T =
      lex("x -- line comment\n {- block {- nested -} -} \"hi\\n\"", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  EXPECT_EQ(T[0].Text, "x");
  EXPECT_EQ(T[1].Kind, TokKind::StringLit);
  EXPECT_EQ(T[1].Text, "hi\n");
}

TEST(LexerTest, KeywordsRecognized) {
  DiagnosticEngine D;
  std::vector<Token> T =
      lex("data class instance where let in case of if then else forall",
          D);
  EXPECT_EQ(T[0].Kind, TokKind::KwData);
  EXPECT_EQ(T[3].Kind, TokKind::KwWhere);
  EXPECT_EQ(T[11].Kind, TokKind::KwForall);
}

//===--------------------------------------------------------------------===//
// Parser
//===--------------------------------------------------------------------===//

SModule parse(std::string_view Src, DiagnosticEngine &D) {
  Lexer L(Src, D);
  Parser P(L.lexAll(), D);
  return P.parseModule();
}

TEST(ParserTest, DataDeclaration) {
  DiagnosticEngine D;
  SModule M = parse("data Shape = Circle Double | Square Double Double", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  ASSERT_EQ(M.Decls.size(), 1u);
  const SDataDecl &Data = M.Decls[0].Data;
  EXPECT_EQ(Data.Name, "Shape");
  ASSERT_EQ(Data.Cons.size(), 2u);
  EXPECT_EQ(Data.Cons[0].Name, "Circle");
  EXPECT_EQ(Data.Cons[0].Fields.size(), 1u);
  EXPECT_EQ(Data.Cons[1].Fields.size(), 2u);
}

TEST(ParserTest, AbstractDataDeclaration) {
  DiagnosticEngine D;
  SModule M = parse("data IO a", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  EXPECT_TRUE(M.Decls[0].Data.Cons.empty());
  EXPECT_EQ(M.Decls[0].Data.Params.size(), 1u);
}

TEST(ParserTest, SignatureAndBinding) {
  DiagnosticEngine D;
  SModule M = parse("inc :: Int -> Int ; inc x = x + 1", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  ASSERT_EQ(M.Decls.size(), 2u);
  EXPECT_EQ(M.Decls[0].T, SDecl::Tag::Sig);
  EXPECT_EQ(M.Decls[1].T, SDecl::Tag::Bind);
  EXPECT_EQ(M.Decls[1].Bind.Params.size(), 1u);
}

TEST(ParserTest, ForallWithKindAnnotations) {
  DiagnosticEngine D;
  SModule M = parse(
      "myError :: forall r (a :: TYPE r). String -> a ;"
      "f :: forall (a :: TYPE IntRep). a -> a", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SType &T = *M.Decls[0].Sig.Ty;
  ASSERT_EQ(T.T, SType::Tag::ForAll);
  ASSERT_EQ(T.Binders.size(), 2u);
  EXPECT_EQ(T.Binders[0].Name, "r");
  EXPECT_EQ(T.Binders[1].Name, "a");
  ASSERT_NE(T.Binders[1].Kind, nullptr);
  EXPECT_EQ(T.Binders[1].Kind->T, SKind::Tag::TypeOf);
}

TEST(ParserTest, ClassAndInstance) {
  DiagnosticEngine D;
  SModule M = parse("class Num (a :: TYPE r) where {"
                    "  (+) :: a -> a -> a ;"
                    "  abs :: a -> a"
                    "} ;"
                    "instance Num Int# where {"
                    "  (+) = plusIntHash ;"
                    "  abs x = x"
                    "}",
                    D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  ASSERT_EQ(M.Decls.size(), 2u);
  const SClassDecl &Cls = M.Decls[0].Class;
  EXPECT_EQ(Cls.Name, "Num");
  EXPECT_EQ(Cls.Var.Name, "a");
  ASSERT_EQ(Cls.Methods.size(), 2u);
  EXPECT_EQ(Cls.Methods[0].Name, "+");
  const SInstanceDecl &Inst = M.Decls[1].Instance;
  EXPECT_EQ(Inst.ClassName, "Num");
  ASSERT_EQ(Inst.Methods.size(), 2u);
  EXPECT_EQ(Inst.Methods[1].Params.size(), 1u);
}

TEST(ParserTest, SuperclassContext) {
  DiagnosticEngine D;
  SModule M = parse("class Eq a => Ord a where { compare :: a -> a -> Int }",
                    D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SClassDecl &Cls = M.Decls[0].Class;
  ASSERT_EQ(Cls.Supers.size(), 1u);
  EXPECT_EQ(Cls.Supers[0].ClassName, "Eq");
}

TEST(ParserTest, OperatorPrecedence) {
  DiagnosticEngine D;
  SModule M = parse("x = 1 + 2 * 3", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SExpr &E = *M.Decls[0].Bind.Rhs;
  ASSERT_EQ(E.T, SExpr::Tag::BinOp);
  EXPECT_EQ(E.Name, "+");
  EXPECT_EQ(E.Arg->T, SExpr::Tag::BinOp);
  EXPECT_EQ(E.Arg->Name, "*");
}

TEST(ParserTest, DollarIsRightAssociativeAndLoose) {
  DiagnosticEngine D;
  SModule M = parse("x = f $ g $ h 1", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SExpr &E = *M.Decls[0].Bind.Rhs;
  ASSERT_EQ(E.T, SExpr::Tag::BinOp);
  EXPECT_EQ(E.Name, "$");
  EXPECT_EQ(E.Arg->T, SExpr::Tag::BinOp); // right-nested
}

TEST(ParserTest, CaseWithPatterns) {
  DiagnosticEngine D;
  SModule M = parse("f n = case n of {"
                    "  I# h -> h ;"
                    "  _ -> 0#"
                    "}",
                    D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SExpr &E = *M.Decls[0].Bind.Rhs;
  ASSERT_EQ(E.T, SExpr::Tag::Case);
  ASSERT_EQ(E.Alts.size(), 2u);
  EXPECT_EQ(E.Alts[0].Pat.T, SPattern::Tag::Con);
  EXPECT_EQ(E.Alts[0].Pat.Name, "I#");
  EXPECT_EQ(E.Alts[1].Pat.T, SPattern::Tag::Wild);
}

TEST(ParserTest, UnboxedTupleExprAndPattern) {
  DiagnosticEngine D;
  SModule M = parse("f p = case p of { (# a, b #) -> a } ;"
                    "g x = (# x, 1# #)",
                    D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  EXPECT_EQ(M.Decls[0].Bind.Rhs->Alts[0].Pat.T,
            SPattern::Tag::UnboxedTuple);
  EXPECT_EQ(M.Decls[1].Bind.Rhs->T, SExpr::Tag::UnboxedTuple);
}

TEST(ParserTest, LambdaLetIf) {
  DiagnosticEngine D;
  SModule M = parse("f = \\x (y :: Int) -> "
                    "let z = x + y in if z > 0 then z else 0",
                    D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SExpr &Lam = *M.Decls[0].Bind.Rhs;
  ASSERT_EQ(Lam.T, SExpr::Tag::Lam);
  ASSERT_EQ(Lam.Binders.size(), 2u);
  EXPECT_NE(Lam.Binders[1].Ann, nullptr);
  EXPECT_EQ(Lam.Body->T, SExpr::Tag::Let);
  EXPECT_EQ(Lam.Body->Body->T, SExpr::Tag::If);
}

TEST(ParserTest, TypeAnnotationExpr) {
  DiagnosticEngine D;
  SModule M = parse("x = (1# :: Int#)", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  EXPECT_EQ(M.Decls[0].Bind.Rhs->T, SExpr::Tag::Ann);
}

TEST(ParserTest, ContextInSignature) {
  DiagnosticEngine D;
  SModule M = parse("double :: Num a => a -> a", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SType &T = *M.Decls[0].Sig.Ty;
  ASSERT_EQ(T.T, SType::Tag::ForAll);
  ASSERT_EQ(T.Context.size(), 1u);
  EXPECT_EQ(T.Context[0].ClassName, "Num");
}

TEST(ParserTest, RecoversAfterErrors) {
  DiagnosticEngine D;
  SModule M = parse("f = ) broken ; g = 1", D);
  EXPECT_TRUE(D.hasErrors());
  // g still parsed.
  bool FoundG = false;
  for (const SDecl &Decl : M.Decls)
    if (Decl.T == SDecl::Tag::Bind && Decl.Bind.Name == "g")
      FoundG = true;
  EXPECT_TRUE(FoundG);
}

TEST(ParserTest, RepKindsInClassHead) {
  DiagnosticEngine D;
  SModule M = parse(
      "f :: forall (a :: TYPE (TupleRep [IntRep, LiftedRep])). a -> a", D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  const SType &T = *M.Decls[0].Sig.Ty;
  ASSERT_EQ(T.Binders.size(), 1u);
  ASSERT_NE(T.Binders[0].Kind, nullptr);
  EXPECT_EQ(T.Binders[0].Kind->R.T, SRep::Tag::Tuple);
  EXPECT_EQ(T.Binders[0].Kind->R.Elems.size(), 2u);
}

} // namespace
