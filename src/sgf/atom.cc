#include "sgf/atom.h"

#include <algorithm>

namespace gumbo::sgf {

std::vector<std::string> Atom::Variables() const {
  std::vector<std::string> out;
  for (const Term& t : terms_) {
    if (t.is_variable() &&
        std::find(out.begin(), out.end(), t.var()) == out.end()) {
      out.push_back(t.var());
    }
  }
  return out;
}

bool Atom::UsesVariable(const std::string& var) const {
  for (const Term& t : terms_) {
    if (t.is_variable() && t.var() == var) return true;
  }
  return false;
}

Atom::Atom(std::string relation, std::vector<Term> terms)
    : relation_(std::move(relation)), terms_(std::move(terms)) {
  for (uint32_t i = 0; i < terms_.size(); ++i) {
    const Term& t = terms_[i];
    if (t.is_constant()) {
      const_checks_.push_back({i, t.value().raw()});
      continue;
    }
    const int first = PositionOf(t.var());
    if (first != static_cast<int>(i)) {
      eq_checks_.push_back({i, static_cast<uint32_t>(first)});
    }
  }
}

Result<Projection> Atom::ProjectionOnto(
    const std::vector<std::string>& vars) const {
  Projection proj;
  proj.positions.reserve(vars.size());
  for (const std::string& v : vars) {
    const int pos = PositionOf(v);
    if (pos < 0) {
      return Status::InvalidArgument("variable " + v + " does not occur in " +
                                     ToString());
    }
    proj.positions.push_back(static_cast<uint32_t>(pos));
  }
  // Identity: every position is a distinct variable, listed in term order.
  proj.identity = proj.positions.size() == terms_.size();
  for (uint32_t i = 0; proj.identity && i < proj.positions.size(); ++i) {
    proj.identity = proj.positions[i] == i;
  }
  return proj;
}

int Atom::PositionOf(const std::string& var) const {
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (terms_[i].is_variable() && terms_[i].var() == var) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<std::string> Atom::SharedVariables(const Atom& guard) const {
  std::vector<std::string> out;
  for (const std::string& v : Variables()) {
    if (guard.UsesVariable(v)) out.push_back(v);
  }
  return out;
}

std::string Atom::ConditionSignature(
    const std::vector<std::string>& key_vars) const {
  std::string sig = relation_ + "/" + std::to_string(terms_.size()) + ":";
  // First-occurrence indices for existential (non-key) variables.
  std::vector<std::string> existentials;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) sig += ",";
    const Term& t = terms_[i];
    if (t.is_constant()) {
      sig += "C" + std::to_string(t.value().raw());
      continue;
    }
    auto key_it = std::find(key_vars.begin(), key_vars.end(), t.var());
    if (key_it != key_vars.end()) {
      sig += "K" + std::to_string(key_it - key_vars.begin());
      continue;
    }
    auto ex_it = std::find(existentials.begin(), existentials.end(), t.var());
    if (ex_it == existentials.end()) {
      existentials.push_back(t.var());
      ex_it = existentials.end() - 1;
    }
    sig += "E" + std::to_string(ex_it - existentials.begin());
  }
  return sig;
}

std::string Atom::ToString(const Dictionary* dict) const {
  std::string out = relation_ + "(";
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms_[i].ToString(dict);
  }
  out += ")";
  return out;
}

}  // namespace gumbo::sgf
