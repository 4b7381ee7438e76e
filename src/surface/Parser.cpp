//===- Parser.cpp - Recursive-descent parser for the surface lang ---------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "surface/Parser.h"

#include <algorithm>

using namespace levity;
using namespace levity::surface;

bool surface::operatorFixity(std::string_view Op, int &Prec,
                             bool &RightAssoc) {
  RightAssoc = false;
  if (Op == "$") {
    Prec = 0;
    RightAssoc = true;
    return true;
  }
  if (Op == "==" || Op == "/=" || Op == "<" || Op == "<=" || Op == ">" ||
      Op == ">=" || Op == "==#" || Op == "/=#" || Op == "<#" ||
      Op == "<=#" || Op == ">#" || Op == ">=#" || Op == "==##" ||
      Op == "<##") {
    Prec = 4;
    return true;
  }
  if (Op == "+" || Op == "-" || Op == "+#" || Op == "-#" || Op == "+##" ||
      Op == "-##") {
    Prec = 6;
    return true;
  }
  if (Op == "*" || Op == "*#" || Op == "*##" || Op == "/##") {
    Prec = 7;
    return true;
  }
  if (Op == ".") {
    Prec = 9;
    RightAssoc = true;
    return true;
  }
  return false;
}

void Parser::error(std::string Msg) {
  if (!Abandoned)
    Diags.error(DiagCode::ParseError, std::move(Msg), peek().Loc);
}

bool Parser::tooDeep(unsigned Levels) {
  if (Levels <= MaxNestingDepth)
    return false;
  if (!Abandoned)
    Diags.error(DiagCode::NestingTooDeep,
                "nesting too deep: the program nests deeper than " +
                    std::to_string(MaxNestingDepth) + " levels",
                peek().Loc);
  Abandoned = true;
  Pos = Toks.size() - 1; // The end-of-input token.
  return true;
}

void Parser::setHeight(SExpr &E, unsigned Height) {
  E.Height = Height;
  tooDeep(Depth - 1 + Height);
}

namespace {
unsigned height(const SExprPtr &E) { return E ? E->Height : 0; }
} // namespace

bool Parser::expect(TokKind K, std::string_view Context) {
  if (eat(K))
    return true;
  error("expected " + std::string(tokKindName(K)) + " " +
        std::string(Context) + ", found " +
        std::string(tokKindName(peek().Kind)) +
        (peek().Text.empty() ? "" : " '" + peek().Text + "'"));
  return false;
}

void Parser::recoverToSemi() {
  while (!at(TokKind::Eof) && !at(TokKind::Semi))
    advance();
  eat(TokKind::Semi);
}

SModule Parser::parseModule() {
  SModule M;
  while (!at(TokKind::Eof)) {
    if (eat(TokKind::Semi))
      continue;
    size_t Before = Diags.numErrors();
    if (!parseDecl(M) || Diags.numErrors() != Before)
      recoverToSemi();
  }
  return M;
}

STypePtr Parser::parseTypeOnly() { return parseCType(); }
SExprPtr Parser::parseExprOnly() { return parseExpr(); }

bool Parser::parseDecl(SModule &M) {
  switch (peek().Kind) {
  case TokKind::KwData: {
    SDecl D;
    D.T = SDecl::Tag::Data;
    D.Data = parseData();
    M.Decls.push_back(std::move(D));
    return true;
  }
  case TokKind::KwClass: {
    SDecl D;
    D.T = SDecl::Tag::Class;
    D.Class = parseClass();
    M.Decls.push_back(std::move(D));
    return true;
  }
  case TokKind::KwInstance: {
    SDecl D;
    D.T = SDecl::Tag::Instance;
    D.Instance = parseInstance();
    M.Decls.push_back(std::move(D));
    return true;
  }
  case TokKind::VarId:
  case TokKind::LParen:
    parseSigOrBind(M);
    return true;
  default:
    error("expected a declaration");
    return false;
  }
}

SDataDecl Parser::parseData() {
  SDataDecl D;
  D.Loc = peek().Loc;
  advance(); // data
  if (at(TokKind::ConId)) {
    D.Name = peek().Text;
    advance();
  } else {
    expect(TokKind::ConId, "after 'data'");
  }
  D.Params = parseTyBinders();
  if (!eat(TokKind::Equals))
    return D; // abstract type: data IO a
  do {
    SConDecl Con;
    Con.Loc = peek().Loc;
    if (at(TokKind::ConId)) {
      Con.Name = peek().Text;
      advance();
    } else {
      expect(TokKind::ConId, "in constructor declaration");
      break;
    }
    while (!at(TokKind::Pipe) && !at(TokKind::Semi) && !at(TokKind::Eof)) {
      // A token that starts no type ends the fields, already reported;
      // the declaration loop resynchronizes past it.
      STypePtr Field = parseAType();
      if (!Field)
        break;
      Con.Fields.push_back(std::move(Field));
    }
    D.Cons.push_back(std::move(Con));
  } while (eat(TokKind::Pipe));
  return D;
}

std::vector<STyBinder> Parser::parseTyBinders() {
  std::vector<STyBinder> Out;
  for (;;) {
    if (at(TokKind::VarId)) {
      STyBinder B;
      B.Name = peek().Text;
      B.Loc = peek().Loc;
      advance();
      Out.push_back(std::move(B));
      continue;
    }
    if (at(TokKind::LParen) && peek(1).Kind == TokKind::VarId &&
        peek(2).Kind == TokKind::DColon) {
      advance(); // (
      STyBinder B;
      B.Name = peek().Text;
      B.Loc = peek().Loc;
      advance();
      advance(); // ::
      B.Kind = parseKind();
      expect(TokKind::RParen, "after kinded binder");
      Out.push_back(std::move(B));
      continue;
    }
    return Out;
  }
}

std::vector<SConstraint> Parser::parseContextOpt() {
  // Lookahead-with-rollback: try to parse `ctx =>`; rollback otherwise.
  // Diagnostics emitted during speculation are rolled back too.
  size_t Save = Pos;
  size_t DiagMark = Diags.size();
  std::vector<SConstraint> Ctx;
  auto ParseOne = [&]() -> bool {
    if (!at(TokKind::ConId))
      return false;
    SConstraint C;
    C.ClassName = peek().Text;
    C.Loc = peek().Loc;
    advance();
    C.Arg = parseAType();
    if (!C.Arg)
      return false;
    Ctx.push_back(std::move(C));
    return true;
  };

  if (at(TokKind::LParen)) {
    advance();
    if (!ParseOne()) {
      Pos = Save;
      Diags.truncate(DiagMark);
      return {};
    }
    while (eat(TokKind::Comma))
      if (!ParseOne()) {
        Pos = Save;
        Diags.truncate(DiagMark);
        return {};
      }
    if (!eat(TokKind::RParen) || !eat(TokKind::DArrow)) {
      Pos = Save;
      Diags.truncate(DiagMark);
      return {};
    }
    return Ctx;
  }
  if (!ParseOne()) {
    Pos = Save;
    Diags.truncate(DiagMark);
    return {};
  }
  if (!eat(TokKind::DArrow)) {
    Pos = Save;
    Diags.truncate(DiagMark);
    return {};
  }
  return Ctx;
}

SClassDecl Parser::parseClass() {
  SClassDecl D;
  D.Loc = peek().Loc;
  advance(); // class
  D.Supers = parseContextOpt();
  if (at(TokKind::ConId)) {
    D.Name = peek().Text;
    advance();
  } else {
    expect(TokKind::ConId, "after 'class'");
  }
  std::vector<STyBinder> Vars = parseTyBinders();
  if (Vars.size() != 1)
    error("classes take exactly one type variable");
  if (!Vars.empty())
    D.Var = std::move(Vars[0]);
  expect(TokKind::KwWhere, "in class declaration");
  expect(TokKind::LBrace, "to open the class body");
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (eat(TokKind::Semi))
      continue;
    // Method signature: name (or (op)) :: type.
    std::string Name;
    SourceLoc Loc = peek().Loc;
    if (at(TokKind::VarId)) {
      Name = peek().Text;
      advance();
    } else if (at(TokKind::LParen) &&
               (peek(1).Kind == TokKind::Operator ||
                peek(1).Kind == TokKind::Dot) &&
               peek(2).Kind == TokKind::RParen) {
      advance();
      Name = peek().Text;
      advance();
      advance();
    } else {
      error("expected a method signature");
      break;
    }
    if (!expect(TokKind::DColon, "in method signature"))
      break;
    SSigDecl Sig;
    Sig.Name = std::move(Name);
    Sig.Loc = Loc;
    Sig.Ty = parseCType();
    D.Methods.push_back(std::move(Sig));
  }
  expect(TokKind::RBrace, "to close the class body");
  return D;
}

SInstanceDecl Parser::parseInstance() {
  SInstanceDecl D;
  D.Loc = peek().Loc;
  advance(); // instance
  if (at(TokKind::ConId)) {
    D.ClassName = peek().Text;
    advance();
  } else {
    expect(TokKind::ConId, "after 'instance'");
  }
  D.Head = parseAType();
  expect(TokKind::KwWhere, "in instance declaration");
  expect(TokKind::LBrace, "to open the instance body");
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (eat(TokKind::Semi))
      continue;
    std::string Name;
    SourceLoc Loc = peek().Loc;
    if (at(TokKind::VarId)) {
      Name = peek().Text;
      advance();
    } else if (at(TokKind::LParen) &&
               (peek(1).Kind == TokKind::Operator ||
                peek(1).Kind == TokKind::Dot) &&
               peek(2).Kind == TokKind::RParen) {
      advance();
      Name = peek().Text;
      advance();
      advance();
    } else {
      error("expected a method binding");
      break;
    }
    D.Methods.push_back(parseBindTail(std::move(Name), Loc));
  }
  expect(TokKind::RBrace, "to close the instance body");
  return D;
}

void Parser::parseSigOrBind(SModule &M) {
  std::string Name;
  SourceLoc Loc = peek().Loc;
  if (at(TokKind::VarId)) {
    Name = peek().Text;
    advance();
  } else if (at(TokKind::LParen) &&
             (peek(1).Kind == TokKind::Operator ||
              peek(1).Kind == TokKind::Dot) &&
             peek(2).Kind == TokKind::RParen) {
    advance();
    Name = peek().Text;
    advance();
    advance();
  } else {
    error("expected a top-level signature or binding");
    recoverToSemi();
    return;
  }

  if (at(TokKind::DColon)) {
    advance();
    SDecl D;
    D.T = SDecl::Tag::Sig;
    D.Sig = parseSigTail(std::move(Name), Loc);
    M.Decls.push_back(std::move(D));
    return;
  }
  SDecl D;
  D.T = SDecl::Tag::Bind;
  D.Bind = parseBindTail(std::move(Name), Loc);
  M.Decls.push_back(std::move(D));
}

SSigDecl Parser::parseSigTail(std::string Name, SourceLoc Loc) {
  SSigDecl Sig;
  Sig.Name = std::move(Name);
  Sig.Loc = Loc;
  Sig.Ty = parseCType();
  return Sig;
}

SBindDecl Parser::parseBindTail(std::string Name, SourceLoc Loc) {
  SBindDecl B;
  B.Name = std::move(Name);
  B.Loc = Loc;
  while (!at(TokKind::Equals) && !at(TokKind::Eof) && !at(TokKind::Semi))
    B.Params.push_back(parseBinder());
  expect(TokKind::Equals, "in binding");
  B.Rhs = parseExpr();
  tooDeep(static_cast<unsigned>(B.Params.size()) + height(B.Rhs));
  return B;
}

//===----------------------------------------------------------------------===//
// Types, kinds, reps
//===----------------------------------------------------------------------===//

STypePtr Parser::parseCType() {
  if (at(TokKind::KwForall)) {
    SourceLoc Loc = peek().Loc;
    advance();
    auto T = std::make_unique<SType>();
    T->T = SType::Tag::ForAll;
    T->Loc = Loc;
    T->Binders = parseTyBinders();
    expect(TokKind::Dot, "after forall binders");
    T->Context = parseContextOpt();
    T->Body = parseType();
    return T;
  }
  std::vector<SConstraint> Ctx = parseContextOpt();
  if (!Ctx.empty()) {
    auto T = std::make_unique<SType>();
    T->T = SType::Tag::ForAll;
    T->Loc = peek().Loc;
    T->Context = std::move(Ctx);
    T->Body = parseType();
    return T;
  }
  return parseType();
}

STypePtr Parser::parseType() {
  Level L(*this);
  if (tooDeep(Depth))
    return nullptr;
  STypePtr Lhs = parseBType();
  if (at(TokKind::Arrow)) {
    advance();
    auto T = std::make_unique<SType>();
    T->T = SType::Tag::Fun;
    T->Loc = Lhs ? Lhs->Loc : peek().Loc;
    T->Fn = std::move(Lhs);
    T->Arg = parseType();
    return T;
  }
  return Lhs;
}

STypePtr Parser::parseBType() {
  STypePtr T = parseAType();
  if (!T)
    return T;
  for (unsigned Apps = 1; !tooDeep(Depth + Apps); ++Apps) {
    switch (peek().Kind) {
    case TokKind::ConId:
    case TokKind::VarId:
    case TokKind::LParen:
    case TokKind::LHashParen:
    case TokKind::LBracket: {
      auto App = std::make_unique<SType>();
      App->T = SType::Tag::App;
      App->Loc = T->Loc;
      App->Fn = std::move(T);
      App->Arg = parseAType();
      T = std::move(App);
      break;
    }
    default:
      return T;
    }
  }
  return T;
}

STypePtr Parser::parseAType() {
  SourceLoc Loc = peek().Loc;
  if (at(TokKind::ConId)) {
    auto T = std::make_unique<SType>();
    T->T = SType::Tag::Con;
    T->Name = peek().Text;
    T->Loc = Loc;
    advance();
    return T;
  }
  if (at(TokKind::VarId)) {
    auto T = std::make_unique<SType>();
    T->T = SType::Tag::Var;
    T->Name = peek().Text;
    T->Loc = Loc;
    advance();
    return T;
  }
  if (at(TokKind::LBracket)) {
    advance();
    auto T = std::make_unique<SType>();
    T->T = SType::Tag::List;
    T->Loc = Loc;
    T->Body = parseCType();
    expect(TokKind::RBracket, "to close list type");
    return T;
  }
  if (at(TokKind::LHashParen)) {
    advance();
    auto T = std::make_unique<SType>();
    T->T = SType::Tag::UnboxedTuple;
    T->Loc = Loc;
    if (!at(TokKind::RHashParen)) {
      T->Elems.push_back(parseCType());
      while (eat(TokKind::Comma))
        T->Elems.push_back(parseCType());
    }
    expect(TokKind::RHashParen, "to close unboxed tuple type");
    return T;
  }
  if (at(TokKind::LParen)) {
    advance();
    STypePtr Inner = parseCType();
    if (eat(TokKind::Comma)) {
      auto T = std::make_unique<SType>();
      T->T = SType::Tag::Tuple2;
      T->Loc = Loc;
      T->Fn = std::move(Inner);
      T->Arg = parseCType();
      expect(TokKind::RParen, "to close tuple type");
      return T;
    }
    expect(TokKind::RParen, "to close parenthesized type");
    return Inner;
  }
  error("expected a type");
  return nullptr;
}

SKindPtr Parser::parseKind() {
  Level L(*this);
  if (tooDeep(Depth))
    return nullptr;
  SKindPtr K = parseKindAtom();
  if (at(TokKind::Arrow)) {
    advance();
    auto A = std::make_unique<SKind>();
    A->T = SKind::Tag::Arrow;
    A->Loc = K ? K->Loc : peek().Loc;
    A->Param = std::move(K);
    A->Result = parseKind();
    return A;
  }
  return K;
}

SKindPtr Parser::parseKindAtom() {
  SourceLoc Loc = peek().Loc;
  if (at(TokKind::ConId)) {
    std::string Name = peek().Text;
    if (Name == "Type") {
      advance();
      auto K = std::make_unique<SKind>();
      K->T = SKind::Tag::Type;
      K->Loc = Loc;
      return K;
    }
    if (Name == "Rep") {
      advance();
      auto K = std::make_unique<SKind>();
      K->T = SKind::Tag::Rep;
      K->Loc = Loc;
      return K;
    }
    if (Name == "TYPE") {
      advance();
      auto K = std::make_unique<SKind>();
      K->T = SKind::Tag::TypeOf;
      K->Loc = Loc;
      K->R = parseRep();
      return K;
    }
    error("unknown kind '" + Name + "'");
    advance();
    return nullptr;
  }
  if (at(TokKind::LParen)) {
    advance();
    SKindPtr K = parseKind();
    expect(TokKind::RParen, "to close kind");
    return K;
  }
  error("expected a kind");
  return nullptr;
}

SRep Parser::parseRep() {
  Level L(*this);
  SRep R;
  R.Loc = peek().Loc;
  if (tooDeep(Depth))
    return R;
  eat(TokKind::Tick); // optional promotion quote
  if (at(TokKind::ConId)) {
    std::string Name = peek().Text;
    if (Name == "TupleRep" || Name == "SumRep") {
      advance();
      R.T = SRep::Tag::Tuple;
      R.Name = Name;
      eat(TokKind::Tick);
      expect(TokKind::LBracket, "after TupleRep");
      if (!at(TokKind::RBracket)) {
        R.Elems.push_back(parseRep());
        while (eat(TokKind::Comma))
          R.Elems.push_back(parseRep());
      }
      expect(TokKind::RBracket, "to close rep list");
      return R;
    }
    R.T = SRep::Tag::Named;
    R.Name = Name;
    advance();
    return R;
  }
  if (at(TokKind::VarId)) {
    R.T = SRep::Tag::Var;
    R.Name = peek().Text;
    advance();
    return R;
  }
  if (at(TokKind::LParen)) {
    advance();
    SRep Inner = parseRep();
    expect(TokKind::RParen, "to close rep");
    return Inner;
  }
  error("expected a runtime representation");
  return R;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

SExprPtr Parser::parseExpr() {
  Level L(*this);
  if (tooDeep(Depth))
    return nullptr;
  switch (peek().Kind) {
  case TokKind::Backslash: {
    SourceLoc Loc = peek().Loc;
    advance();
    auto E = std::make_unique<SExpr>();
    E->T = SExpr::Tag::Lam;
    E->Loc = Loc;
    while (!at(TokKind::Arrow) && !at(TokKind::Eof))
      E->Binders.push_back(parseBinder());
    expect(TokKind::Arrow, "in lambda");
    E->Body = parseExpr();
    setHeight(*E, static_cast<unsigned>(E->Binders.size()) + height(E->Body));
    return E;
  }
  case TokKind::KwLet: {
    SourceLoc Loc = peek().Loc;
    advance();
    auto E = std::make_unique<SExpr>();
    E->T = SExpr::Tag::Let;
    E->Loc = Loc;
    E->Binds = parseLetBinds();
    expect(TokKind::KwIn, "after let bindings");
    E->Body = parseExpr();
    unsigned Below = height(E->Body);
    for (const SLocalBind &B : E->Binds)
      Below = std::max<unsigned>(Below, B.Params.size() + height(B.Rhs));
    setHeight(*E, static_cast<unsigned>(E->Binds.size()) + Below);
    return E;
  }
  case TokKind::KwIf: {
    SourceLoc Loc = peek().Loc;
    advance();
    auto E = std::make_unique<SExpr>();
    E->T = SExpr::Tag::If;
    E->Loc = Loc;
    E->Cond = parseExpr();
    expect(TokKind::KwThen, "in conditional");
    E->Then = parseExpr();
    expect(TokKind::KwElse, "in conditional");
    E->Else = parseExpr();
    setHeight(*E, 1 + std::max({height(E->Cond), height(E->Then),
                                height(E->Else)}));
    return E;
  }
  case TokKind::KwCase: {
    SourceLoc Loc = peek().Loc;
    advance();
    auto E = std::make_unique<SExpr>();
    E->T = SExpr::Tag::Case;
    E->Loc = Loc;
    E->Scrut = parseExpr();
    expect(TokKind::KwOf, "in case expression");
    expect(TokKind::LBrace, "to open case alternatives");
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      if (eat(TokKind::Semi))
        continue;
      E->Alts.push_back(parseAlt());
    }
    expect(TokKind::RBrace, "to close case alternatives");
    unsigned Below = height(E->Scrut);
    for (const SAlt &A : E->Alts)
      Below = std::max(Below, height(A.Rhs));
    setHeight(*E, 1 + Below);
    return E;
  }
  default:
    return parseOpExpr(0);
  }
}

SExprPtr Parser::parseOpExpr(int MinPrec) {
  SExprPtr Lhs = parseFExpr();
  for (;;) {
    if (peek().Kind != TokKind::Operator && peek().Kind != TokKind::Dot)
      return Lhs;
    int Prec;
    bool Right;
    if (!operatorFixity(peek().Text, Prec, Right)) {
      error("unknown operator '" + peek().Text + "'");
      advance();
      continue;
    }
    if (Prec < MinPrec)
      return Lhs;
    std::string Op = peek().Text;
    SourceLoc Loc = peek().Loc;
    advance();
    SExprPtr Rhs;
    {
      Level L(*this);
      if (!tooDeep(Depth))
        Rhs = parseOpExpr(Right ? Prec : Prec + 1);
    }
    auto E = std::make_unique<SExpr>();
    E->T = SExpr::Tag::BinOp;
    E->Name = std::move(Op);
    E->Loc = Loc;
    E->Fn = std::move(Lhs);
    E->Arg = std::move(Rhs);
    setHeight(*E, 1 + std::max(height(E->Fn), height(E->Arg)));
    Lhs = std::move(E);
  }
}

bool Parser::startsAExpr() const {
  switch (peek().Kind) {
  case TokKind::VarId:
  case TokKind::ConId:
  case TokKind::IntLit:
  case TokKind::IntHashLit:
  case TokKind::DoubleLit:
  case TokKind::DoubleHashLit:
  case TokKind::StringLit:
  case TokKind::LParen:
  case TokKind::LHashParen:
    return true;
  default:
    return false;
  }
}

SExprPtr Parser::parseFExpr() {
  SExprPtr E = parseAExpr();
  if (!E)
    return E;
  while (startsAExpr()) {
    auto App = std::make_unique<SExpr>();
    App->T = SExpr::Tag::App;
    App->Loc = E->Loc;
    App->Fn = std::move(E);
    App->Arg = parseAExpr();
    setHeight(*App, 1 + std::max(height(App->Fn), height(App->Arg)));
    E = std::move(App);
  }
  return E;
}

SExprPtr Parser::parseAExpr() {
  SourceLoc Loc = peek().Loc;
  auto Mk = [&](SExpr::Tag T) {
    auto E = std::make_unique<SExpr>();
    E->T = T;
    E->Loc = Loc;
    return E;
  };

  switch (peek().Kind) {
  case TokKind::VarId: {
    auto E = Mk(SExpr::Tag::Var);
    E->Name = peek().Text;
    advance();
    return E;
  }
  case TokKind::ConId: {
    auto E = Mk(SExpr::Tag::Con);
    E->Name = peek().Text;
    advance();
    return E;
  }
  case TokKind::IntLit: {
    auto E = Mk(SExpr::Tag::IntLit);
    E->IntValue = peek().IntValue;
    advance();
    return E;
  }
  case TokKind::IntHashLit: {
    auto E = Mk(SExpr::Tag::IntHashLit);
    E->IntValue = peek().IntValue;
    advance();
    return E;
  }
  case TokKind::DoubleLit: {
    auto E = Mk(SExpr::Tag::DoubleLit);
    E->DoubleValue = peek().DoubleValue;
    advance();
    return E;
  }
  case TokKind::DoubleHashLit: {
    auto E = Mk(SExpr::Tag::DoubleHashLit);
    E->DoubleValue = peek().DoubleValue;
    advance();
    return E;
  }
  case TokKind::StringLit: {
    auto E = Mk(SExpr::Tag::StringLit);
    E->StringValue = peek().Text;
    advance();
    return E;
  }
  case TokKind::LHashParen: {
    advance();
    auto E = Mk(SExpr::Tag::UnboxedTuple);
    if (!at(TokKind::RHashParen)) {
      E->Elems.push_back(parseExpr());
      while (eat(TokKind::Comma))
        E->Elems.push_back(parseExpr());
    }
    expect(TokKind::RHashParen, "to close unboxed tuple");
    unsigned Below = 0;
    for (const SExprPtr &El : E->Elems)
      Below = std::max(Below, height(El));
    setHeight(*E, 1 + Below);
    return E;
  }
  case TokKind::LParen: {
    advance();
    // Operator-as-variable: (+), (+#), (.), ($).
    if ((peek().Kind == TokKind::Operator || peek().Kind == TokKind::Dot) &&
        peek(1).Kind == TokKind::RParen) {
      auto E = Mk(SExpr::Tag::Var);
      E->Name = peek().Text;
      advance();
      advance();
      return E;
    }
    SExprPtr Inner = parseExpr();
    if (eat(TokKind::DColon)) {
      auto E = Mk(SExpr::Tag::Ann);
      E->Body = std::move(Inner);
      E->Ann_ = parseCType();
      expect(TokKind::RParen, "to close annotation");
      setHeight(*E, 1 + height(E->Body));
      return E;
    }
    expect(TokKind::RParen, "to close parenthesized expression");
    return Inner;
  }
  default:
    error("expected an expression");
    advance();
    return nullptr;
  }
}

SBinder Parser::parseBinder() {
  SBinder B;
  B.Loc = peek().Loc;
  if (at(TokKind::VarId)) {
    B.Name = peek().Text;
    advance();
    return B;
  }
  if (at(TokKind::Underscore)) {
    B.Name = "_";
    advance();
    return B;
  }
  if (at(TokKind::LParen)) {
    advance();
    if (at(TokKind::VarId)) {
      B.Name = peek().Text;
      advance();
    } else if (at(TokKind::Underscore)) {
      B.Name = "_";
      advance();
    } else {
      error("expected a binder");
    }
    if (eat(TokKind::DColon))
      B.Ann = parseCType();
    expect(TokKind::RParen, "to close annotated binder");
    return B;
  }
  error("expected a binder");
  advance();
  return B;
}

SPattern Parser::parsePattern() {
  SPattern P;
  P.Loc = peek().Loc;
  switch (peek().Kind) {
  case TokKind::ConId: {
    P.T = SPattern::Tag::Con;
    P.Name = peek().Text;
    advance();
    while (at(TokKind::VarId) || at(TokKind::Underscore)) {
      P.Args.push_back(at(TokKind::Underscore) ? "_" : peek().Text);
      advance();
    }
    return P;
  }
  case TokKind::IntHashLit:
    P.T = SPattern::Tag::IntHashLit;
    P.IntValue = peek().IntValue;
    advance();
    return P;
  case TokKind::DoubleHashLit:
    P.T = SPattern::Tag::DoubleHashLit;
    P.DoubleValue = peek().DoubleValue;
    advance();
    return P;
  case TokKind::IntLit:
    P.T = SPattern::Tag::IntLit;
    P.IntValue = peek().IntValue;
    advance();
    return P;
  case TokKind::VarId:
    P.T = SPattern::Tag::Var;
    P.Name = peek().Text;
    advance();
    return P;
  case TokKind::Underscore:
    P.T = SPattern::Tag::Wild;
    advance();
    return P;
  case TokKind::LHashParen: {
    advance();
    P.T = SPattern::Tag::UnboxedTuple;
    if (!at(TokKind::RHashParen)) {
      do {
        if (at(TokKind::VarId)) {
          P.Args.push_back(peek().Text);
          advance();
        } else if (at(TokKind::Underscore)) {
          P.Args.push_back("_");
          advance();
        } else {
          error("expected a variable in unboxed tuple pattern");
          break;
        }
      } while (eat(TokKind::Comma));
    }
    expect(TokKind::RHashParen, "to close unboxed tuple pattern");
    return P;
  }
  default:
    error("expected a pattern");
    advance();
    return P;
  }
}

SAlt Parser::parseAlt() {
  SAlt A;
  A.Pat = parsePattern();
  expect(TokKind::Arrow, "in case alternative");
  A.Rhs = parseExpr();
  return A;
}

std::vector<SLocalBind> Parser::parseLetBinds() {
  std::vector<SLocalBind> Out;
  bool Braced = eat(TokKind::LBrace);
  do {
    if (Braced && at(TokKind::RBrace))
      break;
    if (eat(TokKind::Semi))
      continue;
    SLocalBind B;
    B.Loc = peek().Loc;
    if (at(TokKind::VarId)) {
      B.Name = peek().Text;
      advance();
    } else {
      error("expected a let binding");
      break;
    }
    while (!at(TokKind::Equals) && !at(TokKind::Eof))
      B.Params.push_back(parseBinder());
    expect(TokKind::Equals, "in let binding");
    B.Rhs = parseExpr();
    Out.push_back(std::move(B));
  } while (Braced && (at(TokKind::Semi) || !at(TokKind::RBrace)));
  if (Braced)
    expect(TokKind::RBrace, "to close let bindings");
  return Out;
}

