//===- Lexer.cpp - Tokens for the surface language ------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "surface/Lexer.h"

#include <cctype>
#include <charconv>

using namespace levity;
using namespace levity::surface;

std::string_view surface::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof: return "end of input";
  case TokKind::VarId: return "identifier";
  case TokKind::ConId: return "constructor name";
  case TokKind::Operator: return "operator";
  case TokKind::IntLit: return "integer literal";
  case TokKind::IntHashLit: return "unboxed integer literal";
  case TokKind::DoubleLit: return "floating literal";
  case TokKind::DoubleHashLit: return "unboxed floating literal";
  case TokKind::StringLit: return "string literal";
  case TokKind::KwData: return "'data'";
  case TokKind::KwClass: return "'class'";
  case TokKind::KwInstance: return "'instance'";
  case TokKind::KwWhere: return "'where'";
  case TokKind::KwLet: return "'let'";
  case TokKind::KwIn: return "'in'";
  case TokKind::KwCase: return "'case'";
  case TokKind::KwOf: return "'of'";
  case TokKind::KwIf: return "'if'";
  case TokKind::KwThen: return "'then'";
  case TokKind::KwElse: return "'else'";
  case TokKind::KwForall: return "'forall'";
  case TokKind::LParen: return "'('";
  case TokKind::RParen: return "')'";
  case TokKind::LHashParen: return "'(#'";
  case TokKind::RHashParen: return "'#)'";
  case TokKind::LBrace: return "'{'";
  case TokKind::RBrace: return "'}'";
  case TokKind::LBracket: return "'['";
  case TokKind::RBracket: return "']'";
  case TokKind::Semi: return "';'";
  case TokKind::Comma: return "','";
  case TokKind::Backslash: return "'\\'";
  case TokKind::Arrow: return "'->'";
  case TokKind::DArrow: return "'=>'";
  case TokKind::DColon: return "'::'";
  case TokKind::Equals: return "'='";
  case TokKind::Pipe: return "'|'";
  case TokKind::Dot: return "'.'";
  case TokKind::Underscore: return "'_'";
  case TokKind::Tick: return "'''";
  }
  return "?";
}

char Lexer::advance() {
  char C = Src[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipWhitespaceAndComments() {
  for (;;) {
    if (atEnd())
      return;
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r') {
      advance();
      continue;
    }
    // Line comments: -- to end of line.
    if (C == '-' && peek(1) == '-') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    // Block comments: {- ... -} (nested).
    if (C == '{' && peek(1) == '-') {
      advance();
      advance();
      unsigned Depth = 1;
      while (!atEnd() && Depth != 0) {
        if (peek() == '{' && peek(1) == '-') {
          advance();
          advance();
          ++Depth;
        } else if (peek() == '-' && peek(1) == '}') {
          advance();
          advance();
          --Depth;
        } else {
          advance();
        }
      }
      continue;
    }
    return;
  }
}

Token Lexer::make(TokKind K, std::string Text) {
  Token T;
  T.Kind = K;
  T.Text = std::move(Text);
  T.Loc = here();
  return T;
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Out;
  for (;;) {
    skipWhitespaceAndComments();
    if (atEnd()) {
      Out.push_back(make(TokKind::Eof));
      return Out;
    }
    Out.push_back(lexToken());
  }
}

Token Lexer::lexToken() {
  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
    return identifierOrKeyword();
  if (std::isdigit(static_cast<unsigned char>(C)))
    return number();
  if (C == '"')
    return stringLiteral();

  SourceLoc Loc = here();
  auto Punct = [&](TokKind K, unsigned Len, const char *Text) {
    Token T = make(K, Text);
    T.Loc = Loc;
    for (unsigned I = 0; I != Len; ++I)
      advance();
    return T;
  };

  if (C == '(' && peek(1) == '#' && peek(2) != ')')
    return Punct(TokKind::LHashParen, 2, "(#");
  if (C == '#' && peek(1) == ')')
    return Punct(TokKind::RHashParen, 2, "#)");
  if (C == '(')
    return Punct(TokKind::LParen, 1, "(");
  if (C == ')')
    return Punct(TokKind::RParen, 1, ")");
  if (C == '{')
    return Punct(TokKind::LBrace, 1, "{");
  if (C == '}')
    return Punct(TokKind::RBrace, 1, "}");
  if (C == '[')
    return Punct(TokKind::LBracket, 1, "[");
  if (C == ']')
    return Punct(TokKind::RBracket, 1, "]");
  if (C == ';')
    return Punct(TokKind::Semi, 1, ";");
  if (C == ',')
    return Punct(TokKind::Comma, 1, ",");
  if (C == '\\')
    return Punct(TokKind::Backslash, 1, "\\");
  if (C == '\'')
    return Punct(TokKind::Tick, 1, "'");
  if (C == '_' || std::ispunct(static_cast<unsigned char>(C)))
    return operatorToken();

  Diags.error(DiagCode::LexError,
              std::string("unexpected character '") + C + "'", here());
  advance();
  return make(TokKind::Eof);
}

Token Lexer::identifierOrKeyword() {
  SourceLoc Loc = here();
  std::string Name;
  while (!atEnd() &&
         (std::isalnum(static_cast<unsigned char>(peek())) ||
          peek() == '_' || peek() == '\''))
    Name += advance();
  // Magic hash suffixes: Int#, sumTo#. Maximal munch: `x#)` is `x#` `)`,
  // so unboxed tuple closers need a space, as in GHC.
  while (!atEnd() && peek() == '#')
    Name += advance();

  Token T = make(TokKind::Eof, Name);
  T.Loc = Loc;
  if (Name == "data")
    T.Kind = TokKind::KwData;
  else if (Name == "class")
    T.Kind = TokKind::KwClass;
  else if (Name == "instance")
    T.Kind = TokKind::KwInstance;
  else if (Name == "where")
    T.Kind = TokKind::KwWhere;
  else if (Name == "let")
    T.Kind = TokKind::KwLet;
  else if (Name == "in")
    T.Kind = TokKind::KwIn;
  else if (Name == "case")
    T.Kind = TokKind::KwCase;
  else if (Name == "of")
    T.Kind = TokKind::KwOf;
  else if (Name == "if")
    T.Kind = TokKind::KwIf;
  else if (Name == "then")
    T.Kind = TokKind::KwThen;
  else if (Name == "else")
    T.Kind = TokKind::KwElse;
  else if (Name == "forall")
    T.Kind = TokKind::KwForall;
  else if (Name == "_")
    T.Kind = TokKind::Underscore;
  else if (std::isupper(static_cast<unsigned char>(Name[0])))
    T.Kind = TokKind::ConId;
  else
    T.Kind = TokKind::VarId;
  return T;
}

Token Lexer::number() {
  SourceLoc Loc = here();
  std::string Digits;
  while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
    Digits += advance();
  bool IsDouble = false;
  if (!atEnd() && peek() == '.' &&
      std::isdigit(static_cast<unsigned char>(peek(1)))) {
    IsDouble = true;
    Digits += advance();
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      Digits += advance();
  }
  // Hash suffixes: # for Int#, ## for Double#. Maximal munch (`1#)` is
  // `1#` `)`).
  unsigned Hashes = 0;
  while (!atEnd() && peek() == '#' && Hashes < 2) {
    advance();
    ++Hashes;
  }

  Token T = make(TokKind::Eof, Digits);
  T.Loc = Loc;
  const char *First = Digits.data(), *Last = First + Digits.size();
  std::from_chars_result R;
  if (IsDouble || Hashes == 2) {
    R = std::from_chars(First, Last, T.DoubleValue);
    T.Kind = Hashes >= 1 ? TokKind::DoubleHashLit : TokKind::DoubleLit;
  } else {
    R = std::from_chars(First, Last, T.IntValue);
    T.Kind = Hashes == 1 ? TokKind::IntHashLit : TokKind::IntLit;
  }
  if (R.ec != std::errc())
    Diags.error(DiagCode::LexError, "numeric literal out of range: " + Digits,
                Loc);
  return T;
}

Token Lexer::stringLiteral() {
  SourceLoc Loc = here();
  advance(); // opening quote
  std::string Value;
  while (!atEnd() && peek() != '"') {
    char C = advance();
    if (C == '\\' && !atEnd()) {
      char E = advance();
      switch (E) {
      case 'n': Value += '\n'; break;
      case 't': Value += '\t'; break;
      case '\\': Value += '\\'; break;
      case '"': Value += '"'; break;
      default: Value += E; break;
      }
      continue;
    }
    Value += C;
  }
  if (atEnd())
    Diags.error(DiagCode::LexError, "unterminated string literal", Loc);
  else
    advance(); // closing quote
  Token T = make(TokKind::StringLit, Value);
  T.Loc = Loc;
  return T;
}

Token Lexer::operatorToken() {
  SourceLoc Loc = here();
  auto IsOpChar = [](char C) {
    switch (C) {
    case '+': case '-': case '*': case '/': case '<': case '>':
    case '=': case '$': case '.': case '|': case ':': case '#':
    case '&': case '!': case '@': case '~': case '^': case '%':
      return true;
    default:
      return false;
    }
  };
  std::string Op;
  while (!atEnd() && IsOpChar(peek())) {
    // Stop before '#)' so unboxed tuple closers lex correctly.
    if (peek() == '#' && peek(1) == ')')
      break;
    Op += advance();
  }
  Token T = make(TokKind::Operator, Op);
  T.Loc = Loc;
  if (Op == "->")
    T.Kind = TokKind::Arrow;
  else if (Op == "=>")
    T.Kind = TokKind::DArrow;
  else if (Op == "::")
    T.Kind = TokKind::DColon;
  else if (Op == "=")
    T.Kind = TokKind::Equals;
  else if (Op == "|")
    T.Kind = TokKind::Pipe;
  else if (Op == ".")
    T.Kind = TokKind::Dot;
  else if (Op.empty()) {
    Diags.error(DiagCode::LexError, "stray punctuation", Loc);
    advance();
    T.Kind = TokKind::Eof;
  }
  return T;
}
