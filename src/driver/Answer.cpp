//===- Answer.cpp - The one answer printer and its M and VM readers -------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "driver/Answer.h"
#include "support/DoubleText.h"

#include <charconv>

using namespace levity;
using namespace levity::driver;

std::string driver::print(const Answer &A) {
  char Buf[24];
  if (A.K == Answer::Kind::Int)
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), A.I).ptr) +
           '#';
  if (A.K == Answer::Kind::Double)
    return support::doubleText(A.D) + "##";
  if (A.K == Answer::Kind::Lifted)
    return "_";
  if (A.K == Answer::Kind::Closure)
    return "<closure>";
  std::string S = A.Con.empty() ? "<con " + std::to_string(A.Tag) + ">" : A.Con;
  for (const Answer &F : A.Fields) {
    S += ' ';
    S += print(F);
  }
  return S;
}

std::optional<int64_t> driver::intValue(const Answer &A) {
  if (A.K == Answer::Kind::Int)
    return A.I;
  if (A.K == Answer::Kind::Con && A.Con == "I#" && A.Fields.size() == 1 &&
      A.Fields[0].K == Answer::Kind::Int)
    return A.Fields[0].I;
  return std::nullopt;
}

Answer driver::readMachine(const mcalc::Term *V) {
  Answer A;
  if (const auto *Lit = mcalc::dyn_cast<mcalc::LitTerm>(V))
    A = ofInt(Lit->value());
  else if (const auto *DLit = mcalc::dyn_cast<mcalc::DLitTerm>(V))
    A = ofDouble(DLit->value());
  else if (const auto *Box = mcalc::dyn_cast<mcalc::ConLitTerm>(V))
    A = {.K = Answer::Kind::Con, .Con = "I#", .Fields = {ofInt(Box->value())}};
  else if (const auto *C = mcalc::dyn_cast<mcalc::ConTerm>(V)) {
    A = {.K = Answer::Kind::Con, .Tag = C->tag()};
    for (const mcalc::MAtom &F : C->args())
      A.Fields.push_back(!F.IsLit  ? lifted()
                         : F.IsDbl ? ofDouble(F.DblLit)
                                   : ofInt(F.Lit));
  }
  return A;
}

Answer driver::readVm(bytecode::Slot V) {
  Answer A;
  if (V.isInt())
    A = ofInt(V.I);
  else if (V.isDbl())
    A = ofDouble(V.D);
  else if (V.P->Kind == bytecode::Obj::K::Con) {
    A = {.K = Answer::Kind::Con, .Con = V.P->IsBox ? "I#" : "",
         .Tag = V.P->Tag};
    for (bytecode::Slot F : V.P->Fields)
      A.Fields.push_back(F.isInt()   ? ofInt(F.I)
                         : F.isDbl() ? ofDouble(F.D)
                                     : lifted());
  }
  return A;
}
